"""Profile generation, falsification campaigns, fixture rules, and the
proof-derived uniqueness witnesses for the endpoint-median rule.

All exhaustive sweeps run over anonymized profiles (every rule under
study except the id-sensitive fixture is anonymous); identified profiles
are synthesized with integer ids 1..n in canonical order where per-voter
semantics are needed.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .core import (
    AnonProfile,
    Interval,
    Profile,
    TooLarge,
    VoterId,
    VotingError,
    canonical_intervals,
)
from .axioms import (
    UNDETERMINED,
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
)
from .rules import (
    ONE_HALF,
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    cumulative_endpoints,
    threshold_tests,
    individual_position,
)

BUDGET_ENV = "INTERVAL_VOTE_BUDGET"
DEFAULT_BUDGET = 1_000_000
SAMPLE_DRAWS_PER_PAIR = 2000


class UnsupportedAxiom(VotingError):
    pass


@dataclass(frozen=True)
class SearchBounds:
    n_max: int = 3
    pair_budget: int = 5
    lambda_max: int = 1000


def enumeration_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    return int(raw) if raw else DEFAULT_BUDGET


def profile_count(m: int, n: int) -> int:
    q = m * (m + 1) // 2
    return math.comb(q + n - 1, n)


def enumerate_profiles(m: int, n: int, budget: Optional[int] = None) -> Iterator[AnonProfile]:
    """All multisets of n ballots over the canonical intervals, in
    lexicographic order of the underlying index tuples."""
    if budget is None:
        budget = enumeration_budget()
    count = profile_count(m, n)
    if count > budget:
        raise TooLarge(
            f"enumeration of {count} profiles exceeds budget {budget}"
        )
    q = m * (m + 1) // 2
    for combo in itertools.combinations_with_replacement(range(q), n):
        counts = [0] * q
        for idx in combo:
            counts[idx] += 1
        yield AnonProfile(m, tuple(counts))


def random_profile(m: int, n: int, seed: int) -> Profile:
    """Uniform i.i.d. intervals per voter, reproducible from the seed."""
    if n < 1:
        raise VotingError(f"need at least one voter, got n={n}")
    rng = random.Random(seed)
    options = canonical_intervals(m)
    return Profile(m, {v: rng.choice(options) for v in range(1, n + 1)})


def random_weight_vector(m: int, rng: random.Random, max_denominator: int = 12) -> WeightVector:
    vals = []
    for _ in range(m):
        d = rng.randint(1, max_denominator)
        vals.append(Fraction(rng.randint(0, d), d))
    return WeightVector(m, tuple(vals))


def random_threshold_vector(m: int, rng: random.Random, max_denominator: int = 12) -> ThresholdVector:
    vals = []
    for _ in range(m):
        d = rng.randint(2, max_denominator)
        vals.append(Fraction(rng.randint(1, d - 1), d))
    vals.sort(reverse=True)
    return ThresholdVector(m, tuple(vals))


def sample_vector_pairs(
    m: int,
    count: int,
    seed: int,
    compatible: bool,
    max_denominator: int = 12,
) -> list[tuple[WeightVector, ThresholdVector]]:
    """Seeded rejection sampling of (alpha, theta) pairs by compatibility.

    Raises TooLarge after SAMPLE_DRAWS_PER_PAIR * count draws: the share
    of compatible pairs falls about threefold per alternative (roughly
    1 in 700 at m = 10 and 1 in 14000 at m = 12).
    """
    from .rules import check_compatible

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
        alpha = random_weight_vector(m, rng, max_denominator)
        theta = random_threshold_vector(m, rng, max_denominator)
        ok, _ = check_compatible(alpha, theta)
        if ok == compatible:
            out.append((alpha, theta))
    return out


# ---------------------------------------------------------------------------
# fixture rules


def _median_of_endpoints(p: Profile, which: str) -> int:
    endpoints = [
        iv.left if which == "left" else iv.right for iv in p.voters.values()
    ]
    n = len(endpoints)
    count = 0
    for i in range(1, p.m + 1):
        count += sum(1 for e in endpoints if e == i)
        if 2 * count >= n:
            return i
    raise AssertionError("unreachable")


def _log_parity_winner(p: Profile) -> int:
    parity = math.ceil(math.log2(p.n)) if p.n > 1 else 0
    side = "left" if parity % 2 == 1 else "right"
    return _median_of_endpoints(p, side)


def _strict_threshold_winner(rule: PositionThresholdRule, p: Profile) -> int:
    """`rule` with every threshold test made strict (Pi > theta * n)."""
    tests = threshold_tests(rule.terms, *cumulative_endpoints(p, rule.m))
    for i, (lhs, rhs) in enumerate(tests, 1):
        if lhs > rhs:
            return i
    return rule.m


def _even_doubled_winner(p: Profile) -> int:
    """Endpoint-median with ballots of even integer voter ids counted twice."""
    weighted: list[tuple[Interval, int]] = []
    for voter, iv in p.voters.items():
        try:
            weight = 2 if int(voter) % 2 == 0 else 1
        except (TypeError, ValueError):
            weight = 1
        weighted.append((iv, weight))
    total = sum(w for _, w in weighted)
    half = WeightVector.constant(p.m, ONE_HALF)
    for i in range(1, p.m + 1):
        pos = sum(w * individual_position(half, iv, i) for iv, w in weighted)
        if pos >= Fraction(total, 2):
            return i
    raise AssertionError("unreachable")


def _profile_dependent_alpha_winner(p: Profile) -> int:
    """Endpoint-variant whose first weight shrinks with the number of
    voters excluding x_1; behaves like a different threshold rule per
    profile, which no fixed vector pair can reproduce."""
    L, R = cumulative_endpoints(p, p.m)
    # a_1 = 1/2 - excluded / (2n) = L[1] / (2n): only voters whose
    # interval starts at x_1 contain it
    terms = ((L[1], 2 * p.n, 1, 2),) + ((1, 1, 1, 2),) * (p.m - 2)
    for i, (lhs, rhs) in enumerate(threshold_tests(terms, L, R), 1):
        if lhs >= rhs:
            return i
    return p.m


FIXTURE_TAGS = (
    "constant",
    "strict-threshold",
    "log-parity",
    "even-voter-doubled",
    "profile-dependent-alpha",
)


def fixture(tag: str, m: int, params: Optional[dict] = None) -> RuleFn:
    """Counterexample rules, each failing exactly one characterization
    axiom (or, for the profile-dependent weights, fixed-vector
    representability)."""
    params = params or {}
    if tag == "constant":
        target = int(params.get("winner", 1))
        return RuleFn(m, lambda p: target, name=f"constant-x{target}")
    if tag == "strict-threshold":
        rule = PositionThresholdRule.make(
            WeightVector.constant(m, ONE_HALF),
            ThresholdVector.constant(m, ONE_HALF),
        )
        return RuleFn(
            m, lambda p: _strict_threshold_winner(rule, p), name="strict-threshold"
        )
    if tag == "log-parity":
        return RuleFn(m, _log_parity_winner, name="log-parity")
    if tag == "even-voter-doubled":
        return RuleFn(m, _even_doubled_winner, name="even-voter-doubled")
    if tag == "profile-dependent-alpha":
        return RuleFn(
            m, _profile_dependent_alpha_winner, name="profile-dependent-alpha"
        )
    raise VotingError(f"unknown fixture tag {tag!r}")


# ---------------------------------------------------------------------------
# falsification campaigns


@dataclass
class Campaign:
    axiom: str
    checked: int = 0
    undetermined: int = 0
    elapsed: float = 0.0
    violation: Optional[Violation] = None
    first_undetermined: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "instances_checked": self.checked,
            "undetermined": self.undetermined,
            "elapsed_seconds": round(self.elapsed, 3),
            "violation": self.violation.to_json() if self.violation else None,
            "first_undetermined": self.first_undetermined,
        }


def _identified_profiles(m: int, n_max: int) -> Iterator[Profile]:
    for n in range(1, n_max + 1):
        for anon in enumerate_profiles(m, n):
            yield anon.to_profile()


def _disjoint_pairs(m: int, total_max: int) -> Iterator[tuple[Profile, Profile]]:
    for n1 in range(1, total_max):
        for n2 in range(1, total_max - n1 + 1):
            for a1 in enumerate_profiles(m, n1):
                p1 = a1.to_profile()
                for a2 in enumerate_profiles(m, n2):
                    p2 = a2.to_profile(first_id=n1 + 1)
                    yield p1, p2


def _renamings(m: int, n_max: int) -> Iterator[tuple[Profile, dict]]:
    for p in _identified_profiles(m, n_max):
        ids = sorted(p.voters)
        for perm in itertools.permutations(ids):
            yield p, dict(zip(ids, perm))


def _voters(m: int, n_max: int) -> Iterator[tuple[Profile, VoterId]]:
    for p in _identified_profiles(m, n_max):
        for voter in sorted(p.voters, key=str):
            yield p, voter


def _interval_changes(m: int, n_max: int) -> Iterator[tuple[Profile, VoterId, Interval]]:
    intervals = canonical_intervals(m)
    for p, voter in _voters(m, n_max):
        for new_iv in intervals:
            yield p, voter, new_iv


# Each axiom's exhaustive instance stream, one checker result per
# instance, in canonical order.  The streams name their checker inside
# the generator, so it is looked up when the campaign runs, not bound
# when this module is imported.
AXIOMS: dict[str, Callable[[RuleFn, SearchBounds], Iterator[CheckResult]]] = {
    "robustness": lambda f, b: (
        check_robustness(f, p) for p in _identified_profiles(f.m, b.n_max)
    ),
    "reinforcement": lambda f, b: (
        check_reinforcement(f, p1, p2)
        for p1, p2 in _disjoint_pairs(f.m, b.pair_budget)
    ),
    "unanimity": lambda f, b: (
        check_unanimity(f, f.m, j, n_max=b.n_max) for j in range(1, f.m + 1)
    ),
    "anonymity": lambda f, b: (
        check_anonymity(f, p, mapping) for p, mapping in _renamings(f.m, b.n_max)
    ),
    "continuity": lambda f, b: (
        check_right_biased_continuity(f, p1, p2, lambda_max=b.lambda_max)
        for p1, p2 in _disjoint_pairs(f.m, b.pair_budget)
    ),
    "strategyproofness": lambda f, b: (
        check_strategyproofness(f, p, voter) for p, voter in _voters(f.m, b.n_max)
    ),
    "strong-uncompromisingness": lambda f, b: (
        check_strong_uncompromisingness(f, p, voter, new_iv)
        for p, voter, new_iv in _interval_changes(f.m, b.n_max)
    ),
    "majority-criterion": lambda f, b: (
        check_majority_criterion(f, p) for p in _identified_profiles(f.m, b.n_max)
    ),
    "strong-unanimity": lambda f, b: (
        check_strong_unanimity(f, p) for p in _identified_profiles(f.m, b.n_max)
    ),
    "weak-efficiency": lambda f, b: (
        check_weak_efficiency(f, p) for p in _identified_profiles(f.m, b.n_max)
    ),
    "shift-symmetry": lambda f, b: (
        check_shift_symmetry(f, p) for p in _identified_profiles(f.m, b.n_max)
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
    start = time.monotonic()
    for result in stream(f, bounds):
        campaign.checked += 1
        if result.status == VIOLATION:
            campaign.violation = result.violation
            break
        if result.status == UNDETERMINED:
            campaign.undetermined += 1
            if campaign.first_undetermined is None:
                campaign.first_undetermined = result.detail
    campaign.elapsed = time.monotonic() - start
    return campaign


# ---------------------------------------------------------------------------
# uniqueness witnesses for the endpoint-median characterization


def _fraction_strictly_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-total w1/(w1+w2) strictly between lo and hi."""
    for total in itertools.count(2):
        for w1 in range(1, total):
            frac = Fraction(w1, total)
            if lo < frac < hi:
                return frac
    raise AssertionError("unreachable")


def theorem2_uniqueness_witness(
    rule: PositionThresholdRule,
) -> Optional[tuple[Profile, str, Violation]]:
    """For any threshold rule other than the all-1/2 one, build a profile
    where it breaks the majority criterion or strong unanimity.

    Threshold deviations yield majority-criterion violations via a
    two-bloc singleton profile; weight deviations yield strong-unanimity
    violations via a shared-alternative profile.  Every witness is
    confirmed by the corresponding checker before being returned.
    """
    m = rule.m
    f = RuleFn.from_ptr(rule)
    theta = rule.theta.theta
    alpha = rule.alpha.alpha

    for i in range(1, m):  # theta_m is inert
        t = theta[i - 1]
        if t == ONE_HALF:
            continue
        if t < ONE_HALF:
            frac = _fraction_strictly_between(t, ONE_HALF)
        else:
            frac = _fraction_strictly_between(ONE_HALF, t)
        w1 = frac.numerator
        w2 = frac.denominator - frac.numerator
        voters = {k: Interval(i, i) for k in range(1, w1 + 1)}
        voters.update(
            {k: Interval(m, m) for k in range(w1 + 1, w1 + w2 + 1)}
        )
        p = Profile(m, voters)
        result = check_majority_criterion(f, p)
        if result.status == VIOLATION:
            return p, "majority-criterion", result.violation

    for i in range(1, m):  # alpha_m is inert
        a = alpha[i - 1]
        if a == ONE_HALF:
            continue
        if a < ONE_HALF:
            # the lone {x_i} voter adds a full point to Pi(x_i), so the
            # straddling bloc must lose more than one point against it
            delta = ONE_HALF - a
            t = int(Fraction(1) / delta) + 1  # smallest t with t*delta > 1
            lone = Interval(i, i)
        else:
            delta = a - ONE_HALF
            t = int(ONE_HALF / delta) + 1  # smallest t with t*delta > 1/2
            lone = Interval(i + 1, i + 1)
        voters = {k: Interval(i, i + 1) for k in range(1, t + 1)}
        voters[t + 1] = lone
        p = Profile(m, voters)
        result = check_strong_unanimity(f, p)
        if result.status == VIOLATION:
            return p, "strong-unanimity", result.violation

    return None


# ---------------------------------------------------------------------------
# fixed-vector inconsistency of the profile-dependent fixture


def remark_scaled_triple(m: int = 2) -> tuple[Profile, Profile, Profile]:
    """Three four-voter profiles over {x_1, x_2} that the
    profile-dependent-alpha fixture decides inconsistently with every
    fixed weight/threshold pair."""
    single1, single2, both = Interval(1, 1), Interval(2, 2), Interval(1, 2)
    pa = Profile(m, {1: single1, 2: single1, 3: single2, 4: single2})
    pb = Profile(m, {1: both, 2: both, 3: both, 4: both})
    pc = Profile(m, {1: both, 2: both, 3: single1, 4: single2})
    return pa, pb, pc


def fixed_rule_infeasible_for_triple(
    winners: tuple[int, int, int]
) -> bool:
    """Replay the inequality chain showing no fixed (beta, phi) threshold
    rule reproduces the triple's winners (x_1, x_1, x_2).

    From the singleton profile, winner x_1 forces phi_1 <= 1/2.  From the
    all-{x_1,x_2} profile, winner x_1 forces beta_1 >= phi_1.  From the
    mixed profile, winner x_2 needs 1 + 2*beta_1 < 4*phi_1, hence
    phi_1 > 1/2 after substituting beta_1 >= phi_1 -- contradiction.
    """
    if winners != (1, 1, 2):
        return False
    phi_upper = ONE_HALF  # from profile A: 2 >= 4*phi_1
    # from C with beta_1 >= phi_1: 4*phi_1 > 1 + 2*beta_1 >= 1 + 2*phi_1
    phi_lower_exclusive = ONE_HALF  # 2*phi_1 > 1
    return phi_lower_exclusive >= phi_upper  # feasible region is empty


def fit_fixed_rule_to_winners(
    m: int,
    observations: list[tuple[Profile, int]],
    max_denominator: int = 16,
) -> Optional[PositionThresholdRule]:
    """Brute-force search for a fixed-vector rule matching all observed
    winners; None when the grid is exhausted.  Only constant vectors are
    scanned, which suffices for two-alternative instances."""
    values = sorted(
        {
            Fraction(num, den)
            for den in range(1, max_denominator + 1)
            for num in range(0, den + 1)
        }
    )
    inner = [v for v in values if 0 < v < 1]
    for phi in inner:
        for beta in values:
            rule = PositionThresholdRule.make_unchecked(
                WeightVector.constant(m, beta),
                ThresholdVector.constant(m, phi),
            )
            if all(rule.winner(p) == w for p, w in observations):
                return rule
    return None
