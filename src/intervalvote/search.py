"""Profile generation, falsification campaigns, fixture rules, and the
proof-derived witnesses: the robustness violation of an incompatible
vector pair and the uniqueness witnesses for the endpoint-median rule.

Exhaustive sweeps run over identified profiles, built directly from each
multiset of canonical intervals with integer ids in canonical order;
`enumerate_profiles` anonymizes the same sequence.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product, starmap
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    AnonProfile,
    InvalidAlternativeCount,
    Profile,
    TooLarge,
    VotingError,
    anonymize,
    decoding,
    delete_endpoint,
    interval_grid,
    interval_table,
    robust_step,
)
from .axioms import (
    PASS,
    SATISFIED,
    UNDETERMINED,
    VACUOUS,
    VIOLATION,
    CheckResult,
    RuleFn,
    Violation,
    check_anonymity,
    check_majority_criterion,
    check_reinforcement,
    check_right_biased_continuity,
    check_robustness,
    check_shift_symmetry,
    check_strategyproofness,
    check_strong_unanimity,
    check_strong_uncompromisingness,
    check_unanimity,
    check_weak_efficiency,
    require_at_least,
    robustness_violation,
)
from .rules import (
    ONE_HALF,
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    check_compatible,
    endpoint_histogram,
)

BUDGET_ENV = "INTERVAL_VOTE_BUDGET"
DEFAULT_BUDGET = 1_000_000
SAMPLE_DRAWS_PER_PAIR = 2000
# largest denominator of a randomly drawn weight or threshold
SAMPLE_MAX_DENOMINATOR = 12
# a witness profile has as many voters as the denominator of the share
# it is built from, so larger ones are refused
WITNESS_MAX_DENOMINATOR = 10**6


class UnsupportedAxiom(VotingError):
    pass


@dataclass(frozen=True)
class SearchBounds:
    n_max: int = 3
    pair_budget: int = 5
    lambda_max: int = 1000

    def __post_init__(self):
        require_at_least("n_max", self.n_max, 1)
        require_at_least("pair_budget", self.pair_budget, 2)
        require_at_least("lambda_max", self.lambda_max, 0)


def enumeration_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    with decoding(BUDGET_ENV):
        budget = int(raw)
    if budget < 1:
        raise VotingError(f"{BUDGET_ENV} must be at least 1, got {budget}")
    return budget


def require_m_within_budget(m: int) -> None:
    """Refuse an m whose m(m+1)/2 intervals exceed the enumeration
    budget, the bound `_profiles(m, 1)` holds every sweep to, before
    anything of size m is built."""
    budget = enumeration_budget()
    q = m * (m + 1) // 2
    if q > budget:
        raise TooLarge(f"{q} intervals at m={m} exceed budget {budget}")


def profile_count(m: int, n: int) -> int:
    if m < 2:
        raise InvalidAlternativeCount(f"need m >= 2, got {m}")
    if n < 1:
        raise VotingError(f"need at least one voter, got n={n}")
    q = m * (m + 1) // 2
    return math.comb(q + n - 1, n)


def _require_profiles_within_budget(m: int, n: int) -> None:
    """Refuse a sweep whose profiles of n voters over m alternatives
    outnumber the enumeration budget."""
    budget = enumeration_budget()
    count = profile_count(m, n)
    if count > budget:
        raise TooLarge(
            f"enumeration of {count} profiles exceeds budget {budget}"
        )


def _require_sizes_within_budget(m: int, n_max: int) -> None:
    """Refuse a sweep over the profiles of 1..n_max voters before its
    first instance, at the least size whose profiles outnumber the
    budget and with the message `_profiles` gives for that size."""
    for n in range(1, n_max + 1):
        _require_profiles_within_budget(m, n)


def _profiles(m: int, n: int, first_id: int = 1) -> Iterator[Profile]:
    """Every multiset of n canonical intervals, in lexicographic index order,
    as a profile whose voters first_id, first_id + 1, ... cast them."""
    _require_profiles_within_budget(m, n)
    new = object.__new__
    for ballots in itertools.combinations_with_replacement(interval_table(m), n):
        p = new(Profile)  # `Profile._of` inlined: this runs per profile
        attrs = p.__dict__
        attrs["m"], attrs["voters"], attrs["n"] = m, dict(enumerate(ballots, first_id)), n
        yield p


def enumerate_profiles(m: int, n: int) -> Iterator[AnonProfile]:
    """The profiles of `_profiles(m, n)`, anonymized."""
    return map(anonymize, _profiles(m, n))


def random_profile(m: int, n: int, seed: int) -> Profile:
    """Uniform i.i.d. intervals per voter, reproducible from the seed."""
    if n < 1:
        raise VotingError(f"need at least one voter, got n={n}")
    rng = random.Random(seed)
    options = interval_table(m)
    return Profile(m, {v: rng.choice(options) for v in range(1, n + 1)})


def random_weight_vector(m: int, rng: random.Random) -> WeightVector:
    vals = []
    for _ in range(m):
        d = rng.randint(1, SAMPLE_MAX_DENOMINATOR)
        vals.append(Fraction(rng.randint(0, d), d))
    return WeightVector(m, tuple(vals))


def random_threshold_vector(m: int, rng: random.Random) -> ThresholdVector:
    vals = []
    for _ in range(m):
        d = rng.randint(2, SAMPLE_MAX_DENOMINATOR)
        vals.append(Fraction(rng.randint(1, d - 1), d))
    vals.sort(reverse=True)
    return ThresholdVector(m, tuple(vals))


def sample_vector_pairs(
    m: int, count: int, seed: int, compatible: bool
) -> list[tuple[WeightVector, ThresholdVector]]:
    """Seeded rejection sampling of (alpha, theta) pairs by compatibility.

    Raises TooLarge after SAMPLE_DRAWS_PER_PAIR * count draws: the share
    of compatible pairs falls about threefold per alternative (roughly
    1 in 700 at m = 10 and 1 in 14000 at m = 12).
    """
    if m == 2 and not compatible:
        # check_compatible tests indices 1..m-2 only, so every pair at
        # m = 2 is compatible and rejection sampling would never end
        raise VotingError("no incompatible vector pair exists at m = 2")
    rng = random.Random(seed)
    budget = SAMPLE_DRAWS_PER_PAIR * count
    out = []
    draws = 0
    while len(out) < count:
        if draws == budget:
            kind = "compatible" if compatible else "incompatible"
            raise TooLarge(
                f"found {len(out)} of {count} {kind} vector pairs at m={m} "
                f"in {budget} draws"
            )
        draws += 1
        alpha = random_weight_vector(m, rng)
        theta = random_threshold_vector(m, rng)
        ok, _ = check_compatible(alpha, theta)
        if ok == compatible:
            out.append((alpha, theta))
    return out


# ---------------------------------------------------------------------------
# fixture rules


def _first_reaching(counts: list[int], target: int, m: int) -> int:
    """The first k in 1..m-1 with counts[1] + ... + counts[k] >= target,
    or m when there is none: the target-th smallest of the endpoints
    that `counts` tallies by alternative."""
    total = 0
    for k in range(1, m):
        total += counts[k]
        if total >= target:
            return k
    return m


def _ceil_log2(n: int) -> int:
    """ceil(log2(n)) for n >= 1, in integers: the float log2 rounds
    2^k + 1 down to k from k = 49 on."""
    return (n - 1).bit_length()


def _log_parity_winner(p: Profile) -> int:
    """The median left endpoint when ceil(log2(n)) is odd, the median
    right endpoint when it is even."""
    counts = [0] * (p.m + 1)
    left = _ceil_log2(p.n) % 2 == 1
    for iv in p.voters.values():
        counts[iv.left if left else iv.right] += 1
    return _first_reaching(counts, (p.n + 1) // 2, p.m)


def _strict_threshold_winner(p: Profile) -> int:
    """The all-1/2 rule with every threshold test made strict: Pi(x_k) > n/2
    is L_k + R_k >= n + 1, so x_k is the (n+1)-th smallest of the 2n
    endpoints."""
    counts = [0] * (p.m + 1)
    for iv in p.voters.values():
        counts[iv.left] += 1
        counts[iv.right] += 1
    return _first_reaching(counts, p.n + 1, p.m)


def _even_doubled_winner(p: Profile) -> int:
    """Endpoint-median with ballots of even integer voter ids counted twice;
    a string id counts once, as do the copies `core.replicate` makes of it.

    With alpha = theta = 1/2, Pi(x_k) >= W/2 over the W weighted ballots
    is L_k + R_k >= W: the median of the 2W weighted endpoints.
    """
    counts = [0] * (p.m + 1)
    for voter, iv in p.voters.items():
        weight = 2 if isinstance(voter, int) and voter % 2 == 0 else 1
        counts[iv.left] += weight
        counts[iv.right] += weight
    return _first_reaching(counts, sum(counts) // 2, p.m)


def _profile_dependent_alpha_winner(p: Profile) -> int:
    """Endpoint-variant whose first weight shrinks with the number of
    voters excluding x_1; behaves like a different threshold rule per
    profile, which no fixed vector pair can reproduce."""
    lefts, rights = endpoint_histogram(p)
    # a_1 = 1/2 - excluded / (2n) = l_1 / (2n): only voters whose interval
    # starts at x_1 contain it.  Pi(x_1) = r_1 + a_1 (l_1 - r_1) >= n/2 is
    # 2n r_1 + l_1 (l_1 - r_1) >= n^2; every later a_k is 1, so past x_1
    # the winner is the median left endpoint
    n, l1, r1 = p.n, lefts[1], rights[1]
    if 2 * n * r1 + l1 * (l1 - r1) >= n * n:
        return 1
    return max(2, _first_reaching(lefts, (n + 1) // 2, p.m))


def _constant(m: int, winner=1) -> RuleFn:
    target = int(winner)
    if not 1 <= target <= m:
        raise VotingError(f"fixture parameter winner must be in 1..{m}, got {target}")
    return RuleFn(m, lambda p: target, name=f"constant-x{target}")


# Each counterexample rule's builder from m, with its TAG:key=value
# parameters as keyword arguments, so that a key the builder does not
# take is refused; each fails exactly one characterization axiom (or,
# for the profile-dependent weights, fixed-vector representability).
FIXTURES: dict[str, Callable[..., RuleFn]] = {
    "constant": _constant,
    "strict-threshold": lambda m: RuleFn(m, _strict_threshold_winner, "strict-threshold"),
    "log-parity": lambda m: RuleFn(m, _log_parity_winner, "log-parity"),
    "even-voter-doubled": lambda m: RuleFn(m, _even_doubled_winner, "even-voter-doubled"),
    "profile-dependent-alpha": lambda m: RuleFn(
        m, _profile_dependent_alpha_winner, "profile-dependent-alpha"
    ),
}

FIXTURE_TAGS = tuple(FIXTURES)


def fixture(tag: str, m: int, params: Optional[dict] = None) -> RuleFn:
    """Fixture `tag` at m; VotingError for an unknown tag, a parameter key
    the fixture does not take, or a malformed parameter value."""
    if tag not in FIXTURES:
        raise VotingError(
            f"unknown fixture {tag!r}; choose from {', '.join(FIXTURE_TAGS)}"
        )
    require_m_within_budget(m)
    with decoding(f"fixture {tag!r}"):
        return FIXTURES[tag](m, **(params or {}))


# ---------------------------------------------------------------------------
# falsification campaigns


@dataclass
class Campaign:
    """One axiom's sweep.  `by_status` counts the checked instances by
    result status, so a reader can tell real passes from vacuous ones.
    For continuity, `lambdas` counts the satisfied instances by the
    replication factor they needed (0 included); undetermined ones have
    none and are left out."""

    axiom: str
    by_status: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            (PASS, VACUOUS, SATISFIED, UNDETERMINED, VIOLATION), 0
        )
    )
    elapsed: float = 0.0
    violation: Optional[Violation] = None
    first_undetermined: Optional[dict] = None
    lambdas: Optional[collections.Counter] = None

    @property
    def checked(self) -> int:
        return sum(self.by_status.values())

    @property
    def undetermined(self) -> int:
        return self.by_status[UNDETERMINED]

    def to_json(self) -> dict:
        out = {
            "axiom": self.axiom,
            "instances_checked": self.checked,
            "by_status": dict(self.by_status),
            "undetermined": self.undetermined,
            "elapsed_seconds": round(self.elapsed, 3),
            "violation": self.violation.to_json() if self.violation else None,
            "first_undetermined": self.first_undetermined,
        }
        if self.lambdas is not None:
            out["lambda_histogram"] = {
                str(lam): count for lam, count in sorted(self.lambdas.items())
            }
        return out


def _identified_profiles(m: int, n_max: int) -> Iterator[Profile]:
    """`_profiles(m, n)` for n = 1..n_max, in turn and lazily, once every
    size is held to the budget."""
    _require_sizes_within_budget(m, n_max)
    return itertools.chain.from_iterable(
        map(_profiles, itertools.repeat(m), range(1, n_max + 1))
    )


def _disjoint_pairs(m: int, total_max: int) -> Iterator[tuple[Profile, Profile]]:
    """Every (p1, p2) with n1 + n2 <= total_max, p2's voters numbered
    after p1's.  The profile_count(m, n2) second profiles are built once
    per (n1, n2) and shared by every p1.  Either side has at most
    total_max - 1 voters, and every such size is held to the budget
    first."""
    _require_sizes_within_budget(m, total_max - 1)
    for n1 in range(1, total_max):
        for n2 in range(1, total_max - n1 + 1):
            seconds = tuple(_profiles(m, n2, first_id=n1 + 1))
            for p1 in _profiles(m, n1):
                yield from product((p1,), seconds)


def _renamings(m: int, n_max: int) -> Iterator[tuple[Profile, dict]]:
    """Every profile with every renaming of its ids 1..n, the n! renamings
    built once per size n.  The instance count of every size is held to
    the budget before the first instance."""
    budget = enumeration_budget()
    for n in range(1, n_max + 1):
        count = profile_count(m, n) * math.factorial(n)
        if count > budget:
            raise TooLarge(
                f"anonymity campaign of {count} instances exceeds budget {budget}"
            )
    for n in range(1, n_max + 1):
        ids = range(1, n + 1)
        mappings = [dict(zip(ids, perm)) for perm in itertools.permutations(ids)]
        for p in _profiles(m, n):
            yield from product((p,), mappings)


def _unanimity(f: RuleFn, bounds: SearchBounds) -> Iterator[CheckResult]:
    """One all-singleton sweep per alternative; it enumerates no
    profiles, so m, then the m * n_max(n_max + 1)/2 ballots of its
    profiles, are held to the budget here."""
    require_m_within_budget(f.m)
    budget = enumeration_budget()
    ballots = f.m * bounds.n_max * (bounds.n_max + 1) // 2
    if ballots > budget:
        raise TooLarge(
            f"unanimity campaign of {ballots} ballots exceeds budget {budget}"
        )
    return (check_unanimity(f, j, bounds.n_max) for j in range(1, f.m + 1))


def _voters(m: int, n_max: int, *choices: tuple) -> Iterator[tuple]:
    """Every (profile, voter, *choice) with the voters of each profile
    in str order, and every combination of `choices` per voter, once
    every size is held to the budget."""
    _require_sizes_within_budget(m, n_max)
    for n in range(1, n_max + 1):
        order = sorted(range(1, n + 1), key=str)
        for p in _profiles(m, n):
            yield from product((p,), order, *choices)


# Each axiom's exhaustive instance stream, one checker result per
# instance, in canonical order.  Each stream binds its checker when the
# campaign starts, not when this module is imported, so a checker
# patched over the module attribute beforehand sees every instance.
AXIOMS: dict[str, Callable[[RuleFn, SearchBounds], Iterator[CheckResult]]] = {
    "robustness": lambda f, b: map(
        partial(check_robustness, f), _identified_profiles(f.m, b.n_max)
    ),
    "reinforcement": lambda f, b: starmap(
        partial(check_reinforcement, f), _disjoint_pairs(f.m, b.pair_budget)
    ),
    "unanimity": _unanimity,
    "anonymity": lambda f, b: starmap(
        partial(check_anonymity, f), _renamings(f.m, b.n_max)
    ),
    "continuity": lambda f, b: starmap(
        partial(check_right_biased_continuity, f, lambda_max=b.lambda_max),
        _disjoint_pairs(f.m, b.pair_budget),
    ),
    "strategyproofness": lambda f, b: starmap(
        partial(check_strategyproofness, f), _voters(f.m, b.n_max)
    ),
    "strong-uncompromisingness": lambda f, b: starmap(
        partial(check_strong_uncompromisingness, f),
        _voters(f.m, b.n_max, interval_table(f.m)),
    ),
    "majority-criterion": lambda f, b: map(
        partial(check_majority_criterion, f), _identified_profiles(f.m, b.n_max)
    ),
    "strong-unanimity": lambda f, b: map(
        partial(check_strong_unanimity, f), _identified_profiles(f.m, b.n_max)
    ),
    "weak-efficiency": lambda f, b: map(
        partial(check_weak_efficiency, f), _identified_profiles(f.m, b.n_max)
    ),
    "shift-symmetry": lambda f, b: map(
        partial(check_shift_symmetry, f), _identified_profiles(f.m, b.n_max)
    ),
}

AXIOM_TAGS = tuple(AXIOMS)


def axiom_stream(axiom: str) -> Callable[[RuleFn, SearchBounds], Iterator[CheckResult]]:
    """The instance stream of `axiom`; raises UnsupportedAxiom for an
    unknown tag."""
    if axiom not in AXIOMS:
        raise UnsupportedAxiom(
            f"unknown axiom {axiom!r}; choose from {', '.join(AXIOM_TAGS)}"
        )
    return AXIOMS[axiom]


def falsify(f: RuleFn, axiom: str, bounds: SearchBounds) -> Campaign:
    """Scan an exhaustive instance stream for the first counterexample.

    Deterministic: identical bounds and rule give the same first
    violation (canonical instance order) or the same clean result.
    """
    stream = axiom_stream(axiom)
    campaign = Campaign(axiom=axiom)
    if axiom == "continuity":
        campaign.lambdas = collections.Counter()
    by_status, lambdas = campaign.by_status, campaign.lambdas
    start = time.monotonic()
    for result in stream(f, bounds):
        status = result.status
        by_status[status] += 1
        if status == PASS or status == VACUOUS:
            continue
        if status == SATISFIED:
            lambdas[result.detail["lambda"]] += 1
        elif status == VIOLATION:
            campaign.violation = result.violation
            break
        elif status == UNDETERMINED and campaign.first_undetermined is None:
            campaign.first_undetermined = result.detail
    campaign.elapsed = time.monotonic() - start
    return campaign


# ---------------------------------------------------------------------------
# proof-derived witnesses


def _blocs(m: int, *blocs: tuple[int, int, int]) -> Profile:
    """The profile in which each (count, left, right) bloc of voters
    reports [x_left, x_right], voters numbered 1, 2, ... in bloc order;
    the caller guarantees 1 <= left <= right <= m and at least one voter."""
    grid = interval_grid(m)
    ballots = itertools.chain.from_iterable(
        itertools.repeat(grid[left][right], count) for count, left, right in blocs
    )
    return Profile._of(m, dict(enumerate(ballots, 1)))


def incompatibility_witness(
    alpha: WeightVector, theta: ThresholdVector
) -> Optional[Violation]:
    """A robustness violation of the threshold rule of an incompatible
    vector pair, in the shape `check_robustness` reports; None when the
    pair is compatible.

    At the least violating index i, w1 voters report [x_i, x_{i+2}] and
    w2 voters an anchor, {x_m} when alpha_i >= theta_i and {x_i}
    otherwise, with w1 / (w1 + w2) = theta_i / alpha_i or
    (1 - theta_i) / (1 - alpha_i).  Pi(x_i) then meets theta_i * n
    exactly and x_i wins.  Deleting voter 1's left endpoint lowers
    Pi(x_i) by alpha_i > 0 (alpha_i = 0 is compatible at i), and the
    failed compatibility inequality at i makes the test at x_{i+1} fail
    too, so the winner jumps past x_{i+1}.  The step is confirmed with
    `robust_step` before it is returned.  A share whose denominator, the
    witness's voter count, exceeds WITNESS_MAX_DENOMINATOR is refused
    with TooLarge.
    """
    ok, i = check_compatible(alpha, theta)
    if ok:
        return None
    m, a, t = alpha.m, alpha.alpha[i - 1], theta.theta[i - 1]
    if a >= t:
        share, anchor = t / a, (m, m)
    else:
        share, anchor = (1 - t) / (1 - a), (i, i)
    if share.denominator > WITNESS_MAX_DENOMINATOR:
        raise TooLarge(
            f"witness fraction denominator {share.denominator} exceeds "
            f"the {WITNESS_MAX_DENOMINATOR} guard"
        )
    w1, n = share.numerator, share.denominator
    p = _blocs(m, (w1, i, i + 2), (n - w1, *anchor))
    f = RuleFn.from_ptr(PositionThresholdRule.make_unchecked(alpha, theta))
    before, after = f(p), f(delete_endpoint(p, 1, "left"))
    if robust_step(p.voters[1], "left", before, after):
        raise AssertionError(f"incompatible pair gave a robust step at index {i}")
    return robustness_violation(p.to_json(), 1, "left", before, after)


def _fraction_strictly_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-total w1/(w1+w2) strictly between lo and hi, for
    0 <= lo < hi <= 1; the least w1 with w1/total > lo is
    floor(lo * total) + 1.  Raises TooLarge when the total, the voter
    count of the witness built from it, would exceed
    WITNESS_MAX_DENOMINATOR."""
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    for total in range(2, WITNESS_MAX_DENOMINATOR + 1):
        w1 = a * total // b + 1
        if w1 * d < c * total:
            return Fraction(w1, total)
    raise TooLarge(
        f"no fraction strictly between {lo} and {hi} has a denominator "
        f"within the {WITNESS_MAX_DENOMINATOR} guard"
    )


def theorem2_uniqueness_witness(rule: PositionThresholdRule) -> Optional[Violation]:
    """For any threshold rule other than the all-1/2 one, a violation of
    the majority criterion or of strong unanimity; None for the all-1/2
    rule.

    The least threshold deviation yields a majority-criterion violation
    via a two-bloc singleton profile; failing that, the least weight
    deviation yields a strong-unanimity violation via a shared-alternative
    profile.  The witness is confirmed by that checker before it is
    returned.  A two-bloc total or a straddling bloc above
    WITNESS_MAX_DENOMINATOR voters is refused with TooLarge before its
    profile is built.
    """
    m = rule.m
    f = RuleFn.from_ptr(rule)
    theta = rule.theta.theta
    alpha = rule.alpha.alpha

    for i in range(1, m):  # theta_m is inert
        t = theta[i - 1]
        if t != ONE_HALF:
            frac = _fraction_strictly_between(*sorted((t, ONE_HALF)))
            w1 = frac.numerator
            p = _blocs(m, (w1, i, i), (frac.denominator - w1, m, m))
            return _confirmed(check_majority_criterion(f, p))

    for i in range(1, m):  # alpha_m is inert
        a = alpha[i - 1]
        if a != ONE_HALF:
            # with n = t + 1 voters, x_i must fail, t * a + 1 < n / 2, when the
            # lone voter is on {x_i}, and win, t * a >= n / 2, on {x_{i+1}}
            if a < ONE_HALF:
                t, lone = int(ONE_HALF / (ONE_HALF - a)) + 1, i
            else:
                t, lone = math.ceil(ONE_HALF / (a - ONE_HALF)), i + 1
            if t > WITNESS_MAX_DENOMINATOR:
                raise TooLarge(
                    f"strong-unanimity witness for alpha_{i} = {a} needs {t} "
                    f"straddling voters, above the {WITNESS_MAX_DENOMINATOR} guard"
                )
            p = _blocs(m, (t, i, i + 1), (1, lone, lone))
            return _confirmed(check_strong_unanimity(f, p))

    return None


def _confirmed(result: CheckResult) -> Violation:
    """The violation that a proof-derived profile must give its checker."""
    if result.status != VIOLATION:
        raise AssertionError(f"a proof-derived witness gave {result.status}")
    return result.violation


# ---------------------------------------------------------------------------
# fixed-vector inconsistency


def remark_scaled_triple() -> tuple[Profile, Profile, Profile]:
    """Three four-voter profiles over {x_1, x_2} on which the
    profile-dependent-alpha fixture elects (x_1, x_1, x_2), which no fixed
    weight/threshold pair reproduces."""
    return (
        _blocs(2, (2, 1, 1), (2, 2, 2)),
        _blocs(2, (4, 1, 2)),
        _blocs(2, (2, 1, 2), (1, 1, 1), (1, 2, 2)),
    )


def inconsistent_alternative(
    m: int, observations: Iterable[tuple[Profile, int]]
) -> Optional[int]:
    """The least k in 1..m-1 for which no (alpha_k, theta_k) in
    [0, 1] x (0, 1) passes every observed winner's test at x_k, or None.

    With Pi(x_k) / n = (R_k + alpha_k * (L_k - R_k)) / n, an observed
    winner w of p needs theta_k > Pi(x_k) / n at each k < w and
    theta_k <= Pi(x_k) / n at k = w.  Every lower bound is strict, so
    eliminating theta_k leaves one strict linear inequality in alpha_k
    per pair of a lower and an upper bound, intersected with [0, 1]
    exactly.  The alternatives decouple, so an answer k proves that no
    position-threshold rule, compatible or not, reproduces the
    observations.  At m = 2 None is exact as well.  A profile over
    another m, or an observed winner that is not an integer in 1..m, is
    refused with VotingError.
    """
    # per k, the lines (c0, c1) bounding theta_k from below (from
    # theta_k > 0 on) and from above (from theta_k < 1 on)
    lower = [{(0, 0)} for _ in range(m)]
    upper = [{(1, 0)} for _ in range(m)]
    for p, w in observations:
        if p.m != m:
            raise VotingError(f"m mismatch: {m} vs profile {p.m}")
        if isinstance(w, bool) or not isinstance(w, int) or not 1 <= w <= m:
            raise VotingError(f"observed winner must be an integer in 1..{m}, got {w!r}")
        lefts, rights = endpoint_histogram(p)
        left = right = 0
        for k in range(1, min(w, m - 1) + 1):
            left += lefts[k]
            right += rights[k]
            line = (Fraction(right, p.n), Fraction(left - right, p.n))
            (upper if k == w else lower)[k].add(line)
    for k in range(1, m):
        lo, hi = Fraction(-1), Fraction(2)  # strict bounds, outside [0, 1]
        for c0, c1 in lower[k]:
            for d0, d1 in upper[k]:
                # c0 + c1 * alpha < d0 + d1 * alpha
                slope, gap = c1 - d1, d0 - c0
                if slope > 0:
                    hi = min(hi, gap / slope)
                elif slope < 0:
                    lo = max(lo, gap / slope)
                elif gap <= 0:
                    return k
        if not (lo < hi and lo < 1 and hi > 0):  # no alpha_k in [0, 1]
            return k
    return None
