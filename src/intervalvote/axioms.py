"""Black-box axiom checkers.

Every checker takes a rule function (profile -> alternative index) plus
concrete instances and reports pass / vacuous-pass / violation with a
replayable witness.  A vacuous pass means the axiom's premise did not
apply; it is never counted as evidence for the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .core import (
    Interval,
    InvalidAlternative,
    Profile,
    VoterId,
    VotingError,
    combine,
    decoding,
    interval_grid,
    interval_table,
    json_int,
    replications,
    require_disjoint,
    robust_step,
)
from .preferences import (
    WeakOrder,
    first_wsp_witness,
    is_wsp_with_plateau,
    some_wsp_prefers,
)
from . import rules

PASS = "pass"
VACUOUS = "vacuous"
VIOLATION = "violation"
SATISFIED = "satisfied"
UNDETERMINED = "undetermined"


def _validated(m: int, fn: Callable[[Profile], int], p: Profile) -> int:
    """fn(p), refusing a profile over another m and a winner not in 1..m.

    The profile keeps the winner it validated as `(fn, w)`, and a later
    call with the same `fn` on the same profile object returns it
    without calling `fn`, so `fn` must be deterministic and is called at
    most once per profile object.  The m check comes first on every
    call, and a refused winner is never kept."""
    if p.m != m:
        raise VotingError(f"m mismatch: rule {m} vs profile {p.m}")
    kept = p._winner
    if kept is not None and kept[0] is fn:
        return kept[1]
    w = fn(p)
    if type(w) is not int or not 1 <= w <= m:
        raise VotingError(f"rule returned invalid winner {w}")
    p.__dict__["_winner"] = fn, w
    return w


class RuleFn(partial):
    """A total deterministic voting rule over `m` alternatives, named
    `name`, as a bound call: evaluating it is one C-level call.
    `RuleFn(m, fn, name)` binds `_validated` to m and the black box fn,
    which must be deterministic: it is called at most once per profile
    object, whose winner `_validated` keeps.
    `RuleFn.from_ptr(rule, name)` binds `rules.ptr_winner` to the
    threshold rule, with no wrapper: the kernel refuses a profile over
    another m with the same message and always returns an int in 1..m.
    It keeps no winner and runs its threshold scan on every call.  It
    is looked up when the rule is built, so a counter patched over it
    beforehand counts every call."""

    def __new__(cls, m: int, fn: Callable[[Profile], int], name: str = "rule") -> "RuleFn":
        self = partial.__new__(cls, _validated, m, fn)
        self.m, self.name = m, name
        return self

    @classmethod
    def from_ptr(cls, rule: rules.PositionThresholdRule, name: str = "ptr") -> "RuleFn":
        self = partial.__new__(cls, rules.ptr_winner, rule)
        self.m, self.name = rule.m, name
        return self


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: dict
    observed: object
    required: object

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "witness": self.witness,
            "observed": self.observed,
            "required": self.required,
        }


@dataclass(frozen=True)
class CheckResult:
    """What every checker returns.  A violation lists its witnesses in
    `violations`, first witness first; checkers that scan several
    deviations of one instance (robustness, strategyproofness) list one
    per deviation they found.

    A pass or vacuous pass carries nothing but its status, so it is one
    of the shared module constants `PASSED` and `VACUOUS_PASS`, and a
    clean instance allocates no result.  Their `detail` is one read-only
    empty mapping.
    """

    status: str
    violations: tuple[Violation, ...] = ()
    detail: Mapping = field(default_factory=dict)

    @property
    def violation(self) -> Optional[Violation]:
        """The first witness, or None."""
        return self.violations[0] if self.violations else None


_NO_DETAIL = MappingProxyType({})
PASSED = CheckResult(PASS, detail=_NO_DETAIL)
VACUOUS_PASS = CheckResult(VACUOUS, detail=_NO_DETAIL)


def require_at_least(name: str, value: int, least: int) -> None:
    """Refuse a search bound below `least`: a smaller one would check no
    instance, or give up on every instance that needs replication, and
    still read as a clean result."""
    if value < least:
        raise VotingError(f"{name} must be at least {least}, got {value}")


def _violated(axiom: str, observed, required, **witness) -> CheckResult:
    """The result of one violation of `axiom`; the keyword arguments are
    the witness's fields, in the order they are serialized."""
    return CheckResult(VIOLATION, (Violation(axiom, witness, observed, required),))


def robustness_violation(
    profile: dict, voter: VoterId, side: str, before: int, after: int
) -> Violation:
    """The robustness violation of deleting `voter`'s `side` endpoint in
    the serialized `profile`, which moved the winner from `before` to `after`."""
    return Violation(
        axiom="robustness",
        witness={"profile": profile, "voter": voter, "side": side},
        observed={"before": before, "after": after},
        required="winner unchanged, or moved one step off the deleted endpoint",
    )


def check_robustness(f: RuleFn, p: Profile) -> CheckResult:
    """Deleting a voter's extreme alternative must keep the winner or
    move it one step inward from that extreme."""
    violations = []
    profile = None
    grid = interval_grid(p.m)
    before = f(p)
    for voter in sorted(p.voters, key=str):
        iv = p.voters[voter]
        l, r = iv.left, iv.right
        if l == r:
            continue
        for side, shrunk in (("left", grid[l + 1][r]), ("right", grid[l][r - 1])):
            after = f(p._with_interval(voter, shrunk))
            if after != before and not robust_step(iv, side, before, after):
                if profile is None:
                    profile = p.to_json()
                violations.append(robustness_violation(profile, voter, side, before, after))
    return CheckResult(VIOLATION, tuple(violations)) if violations else PASSED


def check_reinforcement(f: RuleFn, p1: Profile, p2: Profile) -> CheckResult:
    w1, w2 = f(p1), f(p2)
    if w1 != w2:
        return VACUOUS_PASS
    w = f(combine(p1, p2))
    if w == w1:
        return PASSED
    return _violated(
        "reinforcement", w, w1, profile1=p1.to_json(), profile2=p2.to_json()
    )


def check_unanimity(f: RuleFn, j: int, n_max: int) -> CheckResult:
    """All-singleton {x_j} electorates of size 1..n_max must elect x_j."""
    require_at_least("n_max", n_max, 1)
    if not 1 <= j <= f.m:
        raise InvalidAlternative(f"alternative {j} is not in 1..{f.m}")
    iv = interval_grid(f.m)[j][j]
    for n in range(1, n_max + 1):
        p = Profile._of(f.m, dict.fromkeys(range(1, n + 1), iv))
        w = f(p)
        if w != j:
            return _violated("unanimity", w, j, profile=p.to_json())
    return PASSED


def check_strong_unanimity(f: RuleFn, p: Profile) -> CheckResult:
    lo, hi = 1, p.m
    for iv in p.voters.values():
        if iv.left > lo:
            lo = iv.left
        if iv.right < hi:
            hi = iv.right
    if lo > hi:
        return VACUOUS_PASS
    w = f(p)
    if lo <= w <= hi:
        return PASSED
    return _violated(
        "strong-unanimity", w, f"winner in [{lo}, {hi}]", profile=p.to_json()
    )


def check_majority_criterion(f: RuleFn, p: Profile) -> CheckResult:
    supporters = [0] * (p.m + 1)
    for iv in p.voters.values():
        if iv.left == iv.right:
            supporters[iv.left] += 1
    for j, count in enumerate(supporters):
        if 2 * count > p.n:
            w = f(p)
            if w == j:
                return PASSED
            return _violated("majority-criterion", w, j, profile=p.to_json())
    return VACUOUS_PASS


def check_weak_efficiency(f: RuleFn, p: Profile) -> CheckResult:
    w = f(p)
    for iv in p.voters.values():
        if iv.left <= w <= iv.right:
            return PASSED
    return _violated(
        "weak-efficiency",
        w,
        "winner reported by at least one voter",
        profile=p.to_json(),
    )


def check_anonymity(
    f: RuleFn, p: Profile, permutation: Mapping[VoterId, VoterId]
) -> CheckResult:
    renamed = {}
    for voter, iv in p.voters.items():
        renamed[permutation.get(voter, voter)] = iv
    if len(renamed) != p.n:
        raise VotingError("permutation must be a bijection on voter ids")
    # p first, so that the renamed profile shares what evaluating p kept
    w1 = f(p)
    w2 = f(p._renamed(renamed))
    if w1 == w2:
        return PASSED
    return _violated(
        "anonymity",
        w2,
        w1,
        profile=p.to_json(),
        permutation=sorted(([k, v] for k, v in permutation.items()), key=str),
    )


def check_right_biased_continuity(
    f: RuleFn, p1: Profile, p2: Profile, lambda_max: int
) -> CheckResult:
    """Replicating p1 must eventually pin the combined winner.

    Case (i), f(p2) weakly left of f(p1): some replication factor makes
    the combined winner equal f(p1).  Case (ii), f(p1) strictly left of
    f(p2): the combined winner must land between f(p1) and some
    alternative reported in p1.  The factor may be zero (the combination
    is then p2 alone).  Exhausting lambda_max without success is
    reported as undetermined, not as a violation.

    The factors are tried in order, on the profiles of
    `core.replications(p1, p2)`: each step adds one relabeled copy of p1
    to the previous one, with the voter ids of
    `combine(replicate(p1, lambda, avoid_ids=p2.voters), p2)`.
    """
    # each helper runs only when its inline check fails, to raise its error
    if lambda_max < 0:
        require_at_least("lambda_max", lambda_max, 0)
    if p1.m != p2.m or not p1.voters.keys().isdisjoint(p2.voters):
        require_disjoint(p1, p2)
    w1, w = f(p1), f(p2)
    case = "i" if w <= w1 else "ii"
    # the combined winner must land in [w1, hi]
    hi = w1 if case == "i" else max(iv.right for iv in p1.voters.values())
    lam, grown = 0, None
    while not w1 <= w <= hi:
        lam += 1
        if lam > lambda_max:
            return CheckResult(
                UNDETERMINED,
                detail={
                    "case": case,
                    "lambda_max": lambda_max,
                    "profile1": p1.to_json(),
                    "profile2": p2.to_json(),
                },
            )
        grown = grown or replications(p1, p2)
        w = f(next(grown))
    return _satisfied(case, lam, w if case == "ii" else None)


@lru_cache(maxsize=1024)
def _satisfied(case: str, lam: int, bound: Optional[int]) -> CheckResult:
    """The shared result of a satisfied continuity instance, with a
    read-only `detail`: case, lambda and, in case (ii), the bound."""
    detail = {"case": case, "lambda": lam}
    if bound is not None:
        detail["bound"] = bound
    return CheckResult(SATISFIED, detail=MappingProxyType(detail))


def check_strategyproofness(f: RuleFn, p: Profile, voter: VoterId) -> CheckResult:
    """No misreport may strictly improve the outcome for any weakly
    single-peaked preference whose plateau is the voter's interval;
    `violations` holds one witness per manipulating report, naming the
    first such preference that gains from it."""
    truth = p.voters.get(voter) or p.interval(voter)  # NoSuchVoter if absent
    own = interval_grid(p.m)[truth.left][truth.right]
    honest = f(p)
    # no preference with plateau `truth` ranks anything above a winner on it
    gainless = truth.left <= honest <= truth.right
    violations = []
    profile = None
    for report in interval_table(p.m):
        if report is own:
            continue
        outcome = f(p._with_interval(voter, report))
        if gainless or not some_wsp_prefers(truth, outcome, honest):
            continue
        pref = first_wsp_witness(p.m, truth, outcome, honest).to_json()
        if profile is None:
            profile = p.to_json()
        violations.append(
            Violation(
                axiom="strategyproofness",
                witness={
                    "profile": profile,
                    "voter": voter,
                    "preference": pref,
                    "report": [report.left, report.right],
                },
                observed={"honest": honest, "manipulated": outcome},
                required="honest outcome weakly preferred",
            )
        )
    return CheckResult(VIOLATION, tuple(violations)) if violations else PASSED


def _uncompromising_condition(
    winner: int, old: Interval, new: Interval
) -> Optional[str]:
    """Which invariance clause applies to this interval change, if any.

    The clauses cover every configuration of the old endpoints relative
    to the winner, paired with the matching constraint on the new
    endpoints; when one applies, the winner may not change.
    """
    l, r = old.left, old.right
    l2, r2 = new.left, new.right
    if r < winner and r2 <= winner:
        return "interval-left-of-winner"
    if winner < l and winner <= l2:
        return "interval-right-of-winner"
    if l < winner < r and l2 <= winner <= r2:
        return "winner-strictly-inside"
    if l == winner < r and l2 == winner <= r2:
        return "winner-at-left-endpoint"
    if l < winner == r and l2 <= winner == r2:
        return "winner-at-right-endpoint"
    return None


def check_strong_uncompromisingness(
    f: RuleFn, p: Profile, voter: VoterId, new_interval: Interval
) -> CheckResult:
    old = p.voters.get(voter) or p.interval(voter)  # NoSuchVoter if absent
    if new_interval.right > p.m:
        new_interval.validate(p.m)
    winner = f(p)
    condition = _uncompromising_condition(winner, old, new_interval)
    if condition is None:
        return VACUOUS_PASS
    after = f(p._with_interval(voter, new_interval))
    if after == winner:
        return PASSED
    return _violated(
        "strong-uncompromisingness",
        after,
        winner,
        profile=p.to_json(),
        voter=voter,
        new_interval=[new_interval.left, new_interval.right],
        condition=condition,
    )


def check_shift_symmetry(f: RuleFn, p: Profile) -> CheckResult:
    """Shifting every interval one step right must shift the winner."""
    shifted = {}
    grid = interval_grid(p.m)
    for v, iv in p.voters.items():
        if iv.right >= p.m:
            return VACUOUS_PASS
        shifted[v] = grid[iv.left + 1][iv.right + 1]
    w, ws = f(p), f(Profile._of(p.m, shifted))
    if ws == w + 1:
        return PASSED
    return _violated("shift-symmetry", ws, w + 1, profile=p.to_json())


def replay_violation(f: RuleFn, violation: dict) -> bool:
    """Re-run a serialized violation against `f`; True iff it reproduces.

    A witness that does not decode raises VotingError.
    """
    with decoding("violation"):
        replay = _decode_replay(f, violation)
    return replay()


def _witness_profile(f: RuleFn, data: dict) -> Profile:
    """The witness profile `data`, refused unless it is over the rule's
    m, before a checker builds anything of its m's size."""
    p = Profile.from_json(data)
    if p.m != f.m:
        raise VotingError(f"m mismatch: rule {f.m} vs profile {p.m}")
    return p


def _decode_replay(f: RuleFn, violation: dict) -> Callable[[], bool]:
    """Decode every field of a serialized violation up front and return
    the check that replays it, so that malformed input fails here rather
    than inside a checker."""
    axiom = violation["axiom"]
    witness = violation["witness"]
    if axiom == "reinforcement":
        p1 = _witness_profile(f, witness["profile1"])
        p2 = Profile.from_json(witness["profile2"])
        require_disjoint(p1, p2)  # a pair no campaign could have built
        return lambda: check_reinforcement(f, p1, p2).status == VIOLATION
    if "profile" not in witness:
        raise VotingError(f"cannot replay {axiom!r}: witness has no profile")
    p = _witness_profile(f, witness["profile"])
    if axiom == "robustness":
        voter, side = witness["voter"], witness["side"]
        p.interval(voter)  # an unknown or unhashable id fails while decoding
        if side not in ("left", "right"):
            raise VotingError(
                f"robustness witness side must be 'left' or 'right', got {side!r}"
            )
        return lambda: any(
            v.witness["voter"] == voter and v.witness["side"] == side
            for v in check_robustness(f, p).violations
        )
    if axiom == "strategyproofness":
        # the witness names one preference; evaluate it directly
        voter = witness["voter"]
        report = Interval(*map(json_int, witness["report"]))
        deviated = p.with_interval(voter, report)
        pref = WeakOrder(
            p.m, tuple(frozenset(cls) for cls in witness["preference"])
        )
        # only a weakly single-peaked preference whose top class is the
        # voter's true interval can witness a manipulation
        truthful = is_wsp_with_plateau(pref, p.interval(voter))

        def manipulates() -> bool:
            honest = f(p)
            return truthful and pref.strictly_prefers(f(deviated), honest)

        return manipulates
    if axiom == "unanimity":
        # the witness must be an electorate all reporting one singleton
        first = next(iter(p.voters.values()))
        j = first.left
        unanimous = first.is_singleton() and all(
            iv == first for iv in p.voters.values()
        )
        return lambda: unanimous and f(p) != j
    if axiom == "strong-unanimity":
        check = lambda: check_strong_unanimity(f, p)
    elif axiom == "majority-criterion":
        check = lambda: check_majority_criterion(f, p)
    elif axiom == "weak-efficiency":
        check = lambda: check_weak_efficiency(f, p)
    elif axiom == "anonymity":
        perm = {old: new for old, new in witness["permutation"]}
        for old, new in perm.items():  # each entry renames a voter to a valid id
            Profile(p.m, {new: p.interval(old)})
        check = lambda: check_anonymity(f, p, perm)
    elif axiom == "strong-uncompromisingness":
        voter = witness["voter"]
        new_iv = Interval(*map(json_int, witness["new_interval"]))
        p.with_interval(voter, new_iv)  # a bad voter or interval fails while decoding
        check = lambda: check_strong_uncompromisingness(f, p, voter, new_iv)
    elif axiom == "shift-symmetry":
        check = lambda: check_shift_symmetry(f, p)
    else:
        raise VotingError(f"cannot replay unknown axiom {axiom!r}")
    return lambda: check().status == VIOLATION
