"""Black-box axiom checkers.

Every checker takes a rule function (profile -> alternative index) plus
concrete instances and reports pass / vacuous-pass / violation with a
replayable witness.  A vacuous pass means the axiom's premise did not
apply; it is never counted as evidence for the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .core import (
    Interval,
    Profile,
    VoterId,
    VotingError,
    canonical_intervals,
    combine,
    decoding,
    delete_endpoint,
    replicate,
)
from .preferences import WeakOrder, enumerate_wsp_with_plateau
from .rules import PositionThresholdRule, collective_positions

PASS = "pass"
VACUOUS = "vacuous"
VIOLATION = "violation"
SATISFIED = "satisfied"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class RuleFn:
    """A total deterministic voting rule as a black box."""

    m: int
    fn: Callable[[Profile], int]
    name: str = "rule"

    def __call__(self, p: Profile) -> int:
        if p.m != self.m:
            raise VotingError(f"m mismatch: rule {self.m} vs profile {p.m}")
        w = self.fn(p)
        if not (1 <= w <= self.m):
            raise VotingError(f"rule returned invalid winner {w}")
        return w

    @classmethod
    def from_ptr(cls, rule: PositionThresholdRule, name: str = "ptr") -> "RuleFn":
        return cls(rule.m, rule.winner, name)


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
    """What every checker returns.  `violation` is the first witness;
    checkers that scan several deviations of one instance (robustness,
    strategyproofness) also list every witness they found in
    `violations`."""

    status: str
    violation: Optional[Violation] = None
    detail: dict = field(default_factory=dict)
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in (PASS, VACUOUS, SATISFIED)


def _scan_result(violations: list[Violation]) -> CheckResult:
    if not violations:
        return CheckResult(PASS)
    return CheckResult(VIOLATION, violations[0], violations=tuple(violations))


def check_robustness(f: RuleFn, p: Profile) -> CheckResult:
    """Deleting a voter's extreme alternative must keep the winner or
    move it one step inward from that extreme."""
    violations = []
    before = f(p)
    for voter in sorted(p.voters, key=str):
        iv = p.interval(voter)
        if iv.is_singleton():
            continue
        for side in ("left", "right"):
            after = f(delete_endpoint(p, voter, side))
            if before == after:
                continue
            if side == "left" and before == iv.left and after == iv.left + 1:
                continue
            if side == "right" and before == iv.right and after == iv.right - 1:
                continue
            violations.append(
                Violation(
                    axiom="robustness",
                    witness={
                        "profile": p.to_json(),
                        "voter": voter,
                        "side": side,
                    },
                    observed={"before": before, "after": after},
                    required="winner unchanged, or moved one step off the "
                    "deleted endpoint",
                )
            )
    return _scan_result(violations)


def check_reinforcement(f: RuleFn, p1: Profile, p2: Profile) -> CheckResult:
    w1, w2 = f(p1), f(p2)
    if w1 != w2:
        return CheckResult(VACUOUS)
    w = f(combine(p1, p2))
    if w == w1:
        return CheckResult(PASS)
    return CheckResult(
        VIOLATION,
        Violation(
            axiom="reinforcement",
            witness={"profile1": p1.to_json(), "profile2": p2.to_json()},
            observed=w,
            required=w1,
        ),
    )


def check_unanimity(f: RuleFn, m: int, j: int, n_max: int = 5) -> CheckResult:
    """All-singleton {x_j} electorates of size 1..n_max must elect x_j."""
    for n in range(1, n_max + 1):
        p = Profile(m, {v: Interval(j, j) for v in range(1, n + 1)})
        w = f(p)
        if w != j:
            return CheckResult(
                VIOLATION,
                Violation(
                    axiom="unanimity",
                    witness={"profile": p.to_json()},
                    observed=w,
                    required=j,
                ),
            )
    return CheckResult(PASS)


def check_strong_unanimity(f: RuleFn, p: Profile) -> CheckResult:
    lo = max(iv.left for iv in p.voters.values())
    hi = min(iv.right for iv in p.voters.values())
    if lo > hi:
        return CheckResult(VACUOUS)
    w = f(p)
    if lo <= w <= hi:
        return CheckResult(PASS)
    return CheckResult(
        VIOLATION,
        Violation(
            axiom="strong-unanimity",
            witness={"profile": p.to_json()},
            observed=w,
            required=f"winner in [{lo}, {hi}]",
        ),
    )


def check_majority_criterion(f: RuleFn, p: Profile) -> CheckResult:
    for j in range(1, p.m + 1):
        supporters = sum(
            1 for iv in p.voters.values() if iv == Interval(j, j)
        )
        if 2 * supporters > p.n:
            w = f(p)
            if w == j:
                return CheckResult(PASS)
            return CheckResult(
                VIOLATION,
                Violation(
                    axiom="majority-criterion",
                    witness={"profile": p.to_json()},
                    observed=w,
                    required=j,
                ),
            )
    return CheckResult(VACUOUS)


def check_weak_efficiency(f: RuleFn, p: Profile) -> CheckResult:
    w = f(p)
    if w in p.support():
        return CheckResult(PASS)
    return CheckResult(
        VIOLATION,
        Violation(
            axiom="weak-efficiency",
            witness={"profile": p.to_json()},
            observed=w,
            required="winner reported by at least one voter",
        ),
    )


def check_anonymity(
    f: RuleFn, p: Profile, permutation: Mapping[VoterId, VoterId]
) -> CheckResult:
    renamed = {}
    for voter, iv in p.voters.items():
        renamed[permutation.get(voter, voter)] = iv
    if len(renamed) != p.n:
        raise VotingError("permutation must be a bijection on voter ids")
    q = Profile(p.m, renamed)
    w1, w2 = f(p), f(q)
    if w1 == w2:
        return CheckResult(PASS)
    return CheckResult(
        VIOLATION,
        Violation(
            axiom="anonymity",
            witness={
                "profile": p.to_json(),
                "permutation": sorted(
                    ([k, v] for k, v in permutation.items()), key=str
                ),
            },
            observed=w2,
            required=w1,
        ),
    )


def check_right_biased_continuity(
    f: RuleFn, p1: Profile, p2: Profile, lambda_max: int = 1000
) -> CheckResult:
    """Replicating p1 must eventually pin the combined winner.

    Case (i), f(p2) weakly left of f(p1): some replication factor makes
    the combined winner equal f(p1).  Case (ii), f(p1) strictly left of
    f(p2): the combined winner must land between f(p1) and some
    alternative reported in p1.  The factor may be zero (the combination
    is then p2 alone).  Exhausting lambda_max without success is
    reported as undetermined, not as a violation.
    """
    if set(p1.voters) & set(p2.voters):
        raise VotingError("profiles must be voter-disjoint")
    w1, w2 = f(p1), f(p2)
    if w2 <= w1:
        if w2 == w1:
            return CheckResult(SATISFIED, detail={"case": "i", "lambda": 0})
        for lam in range(1, lambda_max + 1):
            scaled = replicate(p1, lam, avoid_ids=p2.voters)
            if f(combine(scaled, p2)) == w1:
                return CheckResult(SATISFIED, detail={"case": "i", "lambda": lam})
        return CheckResult(
            UNDETERMINED,
            detail={
                "case": "i",
                "lambda_max": lambda_max,
                "profile1": p1.to_json(),
                "profile2": p2.to_json(),
            },
        )
    rightmost = max(iv.right for iv in p1.voters.values())
    if w2 <= rightmost:  # lambda = 0 already satisfies the sandwich
        return CheckResult(SATISFIED, detail={"case": "ii", "lambda": 0, "bound": w2})
    for lam in range(1, lambda_max + 1):
        scaled = replicate(p1, lam, avoid_ids=p2.voters)
        w = f(combine(scaled, p2))
        if w1 <= w <= rightmost:
            return CheckResult(
                SATISFIED, detail={"case": "ii", "lambda": lam, "bound": w}
            )
    return CheckResult(
        UNDETERMINED,
        detail={
            "case": "ii",
            "lambda_max": lambda_max,
            "profile1": p1.to_json(),
            "profile2": p2.to_json(),
        },
    )


def check_strategyproofness(
    f: RuleFn, p: Profile, voter: VoterId, guard: int = 5
) -> CheckResult:
    """No misreport may strictly improve the outcome for any weakly
    single-peaked preference whose plateau is the voter's interval."""
    truth = p.interval(voter)
    honest = f(p)
    violations = []
    orders = enumerate_wsp_with_plateau(p.m, truth, guard=guard)
    for report in canonical_intervals(p.m):
        if report == truth:
            continue
        outcome = f(p.with_interval(voter, report))
        if outcome == honest:
            continue
        for pref in orders:
            if pref.strictly_prefers(outcome, honest):
                violations.append(
                    Violation(
                        axiom="strategyproofness",
                        witness={
                            "profile": p.to_json(),
                            "voter": voter,
                            "preference": pref.to_json(),
                            "report": [report.left, report.right],
                        },
                        observed={"honest": honest, "manipulated": outcome},
                        required="honest outcome weakly preferred",
                    )
                )
    return _scan_result(violations)


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
    old = p.interval(voter)
    winner = f(p)
    condition = _uncompromising_condition(winner, old, new_interval)
    if condition is None:
        return CheckResult(VACUOUS)
    after = f(p.with_interval(voter, new_interval))
    if after == winner:
        return CheckResult(PASS, detail={"condition": condition})
    return CheckResult(
        VIOLATION,
        Violation(
            axiom="strong-uncompromisingness",
            witness={
                "profile": p.to_json(),
                "voter": voter,
                "new_interval": [new_interval.left, new_interval.right],
                "condition": condition,
            },
            observed=after,
            required=winner,
        ),
    )


def check_shift_symmetry(f: RuleFn, p: Profile) -> CheckResult:
    """Shifting every interval one step right must shift the winner."""
    if any(iv.right >= p.m for iv in p.voters.values()):
        return CheckResult(VACUOUS)
    shifted = Profile(
        p.m,
        {v: Interval(iv.left + 1, iv.right + 1) for v, iv in p.voters.items()},
    )
    w, ws = f(p), f(shifted)
    if ws == w + 1:
        return CheckResult(PASS)
    return CheckResult(
        VIOLATION,
        Violation(
            axiom="shift-symmetry",
            witness={"profile": p.to_json()},
            observed=ws,
            required=w + 1,
        ),
    )


def check_orientation_symmetry(
    rule: PositionThresholdRule, p: Profile
) -> CheckResult:
    """Reversing the order of alternatives must mirror the winner.

    Takes the rule's internals because the exception clause (an exactly
    met threshold) is not observable from winners alone.
    """
    n = p.n
    positions = collective_positions(rule.alpha, p)
    for i, (pos, t) in enumerate(zip(positions, rule.theta.theta), 1):
        if pos == t * n:
            return CheckResult(VACUOUS, detail={"tied_alternative": i})
    mirrored = Profile(
        p.m,
        {
            v: Interval(p.m + 1 - iv.right, p.m + 1 - iv.left)
            for v, iv in p.voters.items()
        },
    )
    w = rule.winner(p)
    wm = rule.winner(mirrored)
    if wm == p.m + 1 - w:
        return CheckResult(PASS)
    return CheckResult(
        VIOLATION,
        Violation(
            axiom="orientation-symmetry",
            witness={"profile": p.to_json(), "rule": rule.to_json()},
            observed=wm,
            required=p.m + 1 - w,
        ),
    )


def replay_violation(f: RuleFn, violation: dict) -> bool:
    """Re-run a serialized violation against `f`; True iff it reproduces.

    A witness that does not decode raises VotingError.
    """
    with decoding("violation"):
        replay = _decode_replay(f, violation)
    return replay()


def _decode_replay(f: RuleFn, violation: dict) -> Callable[[], bool]:
    """Decode every field of a serialized violation up front and return
    the check that replays it, so that malformed input fails here rather
    than inside a checker."""
    axiom = violation["axiom"]
    witness = violation["witness"]
    if axiom == "reinforcement":
        p1 = Profile.from_json(witness["profile1"])
        p2 = Profile.from_json(witness["profile2"])
        return lambda: check_reinforcement(f, p1, p2).status == VIOLATION
    if "profile" not in witness:
        raise VotingError(f"cannot replay {axiom!r}: witness has no profile")
    p = Profile.from_json(witness["profile"])
    if axiom == "robustness":
        voter, side = witness["voter"], witness["side"]
        return lambda: any(
            v.witness["voter"] == voter and v.witness["side"] == side
            for v in check_robustness(f, p).violations
        )
    if axiom == "strategyproofness":
        # the witness names one preference; evaluate it directly rather
        # than re-enumerating every order the checker scans
        deviated = p.with_interval(witness["voter"], Interval(*witness["report"]))
        pref = WeakOrder(
            p.m, tuple(frozenset(cls) for cls in witness["preference"])
        )

        def manipulates() -> bool:
            honest = f(p)
            return pref.strictly_prefers(f(deviated), honest)

        return manipulates
    if axiom == "unanimity":
        j = p.interval(next(iter(p.voters))).left
        check = lambda: check_unanimity(f, p.m, j, n_max=p.n)
    elif axiom == "strong-unanimity":
        check = lambda: check_strong_unanimity(f, p)
    elif axiom == "majority-criterion":
        check = lambda: check_majority_criterion(f, p)
    elif axiom == "weak-efficiency":
        check = lambda: check_weak_efficiency(f, p)
    elif axiom == "anonymity":
        perm = {old: new for old, new in witness["permutation"]}
        check = lambda: check_anonymity(f, p, perm)
    elif axiom == "strong-uncompromisingness":
        voter = witness["voter"]
        p.interval(voter)  # an unknown or unhashable id fails while decoding
        new_iv = Interval(*witness["new_interval"])
        check = lambda: check_strong_uncompromisingness(f, p, voter, new_iv)
    elif axiom == "shift-symmetry":
        check = lambda: check_shift_symmetry(f, p)
    elif axiom == "orientation-symmetry":
        rule = PositionThresholdRule.from_json(witness["rule"])
        check = lambda: check_orientation_symmetry(rule, p)
    else:
        raise VotingError(f"cannot replay unknown axiom {axiom!r}")
    return lambda: check().status == VIOLATION
