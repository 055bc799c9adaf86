"""The endpoint-histogram winner kernel against definitions and oracles.

Every expectation here is computed without the kernel: from the
per-voter definition (`individual_position` summed in `Fraction`), the
singleton decomposition, the endpoint-median oracle or the phantom-median
rule.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intervalvote import axioms, rules, search
from intervalvote.axioms import RuleFn, check_anonymity
from intervalvote.core import (
    Interval,
    InvalidAlternative,
    Profile,
    VotingError,
    anonymize,
    canonical_intervals,
    combine,
    delete_endpoint,
    replicate,
    replications,
)
from intervalvote.rules import (
    ONE_HALF,
    SCAN_MAX_M,
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    collective_position,
    collective_positions,
    collective_position_decomposed,
    endpoint_histogram,
    endpoint_median_oracle,
    endpoint_median_rule,
    individual_position,
    phantom_median_winner,
    ptr_winner,
)

FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=12)
THETAS = FRACTIONS.filter(lambda t: 0 < t < 1)


def naive_position(alpha: WeightVector, p: Profile, k: int) -> Fraction:
    return sum(
        (individual_position(alpha, iv, k) for iv in p.voters.values()), Fraction(0)
    )


def naive_winner(alpha, theta, p, strict=False) -> int:
    """The first x_i (i < m) whose position meets (or, strictly, exceeds)
    theta_i * n; x_m otherwise."""
    for i in range(1, p.m):
        pos, bar = naive_position(alpha, p, i), theta.theta[i - 1] * p.n
        if pos > bar or (pos == bar and not strict):
            return i
    return p.m


@st.composite
def profiles(draw, m, singletons=False, n_max=10):
    options = canonical_intervals(m)
    if singletons:
        options = [iv for iv in options if iv.is_singleton()]
    n = draw(st.integers(1, n_max))
    return Profile(m, {v: draw(st.sampled_from(options)) for v in range(1, n + 1)})


@st.composite
def weights(draw, m):
    return WeightVector(m, tuple(draw(FRACTIONS) for _ in range(m)))


@st.composite
def thresholds(draw, m):
    values = sorted((draw(THETAS) for _ in range(m)), reverse=True)
    return ThresholdVector(m, tuple(values))


@st.composite
def cases(draw, ties=False):
    """(rule, profile); with `ties`, some alternative's position equals
    its scaled threshold exactly."""
    m = draw(st.integers(2, 6))
    alpha = draw(weights(m))
    p = draw(profiles(m))
    if ties:
        k = draw(st.integers(1, m - 1))
        share = naive_position(alpha, p, k) / p.n
        assume(0 < share < 1)
        theta = ThresholdVector.constant(m, share)
    else:
        theta = draw(thresholds(m))
    return PositionThresholdRule.make_unchecked(alpha, theta), p


# m above the scan: from a profile's third evaluation on, `ptr_winner`
# keeps running sums and bisects a compatible rule's tests on them.
# Vectors at this m are drawn in twelfths, a list at a time, which
# Hypothesis draws much faster.
WIDE_M = st.integers(SCAN_MAX_M + 1, 60)


def twelfths(draw, m, lo=0, hi=12) -> list[Fraction]:
    return [Fraction(j, 12) for j in draw(st.lists(st.integers(lo, hi), min_size=m, max_size=m))]


@st.composite
def compatible_rules(draw, m):
    """Compatible by construction: non-increasing thresholds, and each
    alpha_{k+1} a twelfth at or above the least value `check_compatible`
    allows after alpha_k, so alpha may descend where theta does."""
    theta = ThresholdVector(m, tuple(sorted(twelfths(draw, m, 1, 11), reverse=True)))
    alpha = [Fraction(draw(st.integers(0, 12)), 12)]
    for t, t2, u in zip(theta.theta, theta.theta[1:], twelfths(draw, m - 1)):
        a = alpha[-1]
        least = max(0, a + (t2 - t) * max(a / t, (1 - a) / (1 - t)))
        # u in [0, 1] places alpha_{k+1} between the least value and 1
        alpha.append(Fraction(math.ceil((least + u * (1 - least)) * 12), 12))
    rule = PositionThresholdRule.make_unchecked(WeightVector(m, tuple(alpha)), theta)
    assume(rule.compatible)
    return rule


@st.composite
def incompatible_rules(draw, m):
    rule = PositionThresholdRule.make_unchecked(
        WeightVector(m, tuple(twelfths(draw, m))),
        ThresholdVector(m, tuple(sorted(twelfths(draw, m, 1, 11), reverse=True))),
    )
    assume(not rule.compatible)
    return rule


@st.composite
def boundary_ties(draw, m):
    """(rule, profile): a compatible rule whose winner's test holds with
    equality.  With non-decreasing alpha every position is at least the
    one left of it, so theta = Pi(x_k) / n ties at the least k that
    reaches Pi(x_k), and that k wins."""
    alpha = WeightVector(m, tuple(sorted(twelfths(draw, m))))
    p = draw(profiles(m, n_max=20))
    share = naive_position(alpha, p, draw(st.integers(1, m - 1))) / p.n
    assume(0 < share < 1)
    return PositionThresholdRule.make(alpha, ThresholdVector.constant(m, share)), p


@st.composite
def wide_cases(draw, kinds=("compatible", "incompatible", "tie")):
    """(rule, profile) with m above the scan: a compatible, an
    incompatible or a boundary-tie rule, of the kinds named."""
    m = draw(WIDE_M)
    kind = draw(st.sampled_from(kinds))
    if kind == "tie":
        return draw(boundary_ties(m))
    rules_of = compatible_rules if kind == "compatible" else incompatible_rules
    return draw(rules_of(m)), draw(profiles(m, n_max=20))


def running(counts) -> tuple[list[int], list[int]]:
    """The running sums of endpoint counts, as the kernel keeps them."""
    return tuple(list(itertools.accumulate(side)) for side in counts)


class TestKernelAgainstDefinition:
    @settings(max_examples=200)
    @given(cases())
    def test_winner_matches_naive_sum(self, case):
        rule, p = case
        expected = naive_winner(rule.alpha, rule.theta, p)
        assert ptr_winner(rule, p) == expected
        assert ptr_winner(rule, anonymize(p)) == expected
        if rule.compatible:
            checked = PositionThresholdRule.make(rule.alpha, rule.theta)
            assert checked.winner(p) == checked.winner(anonymize(p)) == expected

    @settings(max_examples=200)
    @given(cases(ties=True))
    def test_exact_ties_count_as_met(self, case):
        rule, p = case
        expected = naive_winner(rule.alpha, rule.theta, p)
        assert ptr_winner(rule, p) == ptr_winner(rule, anonymize(p)) == expected
        # the tied alternative meets its threshold, so nothing right of it wins
        tied = [
            k
            for k in range(1, rule.m)
            if naive_position(rule.alpha, p, k) == rule.theta.theta[k - 1] * p.n
        ]
        assert tied and expected <= tied[0]

    @settings(max_examples=200)
    @given(st.data(), st.integers(2, 6))
    def test_positions_match_naive_sum_and_decomposition(self, data, m):
        alpha = data.draw(weights(m))
        p = data.draw(profiles(m))
        for k in range(1, m + 1):
            expected = naive_position(alpha, p, k)
            assert collective_position(alpha, p, k) == expected
            assert collective_position(alpha, anonymize(p), k) == expected
            assert collective_position_decomposed(alpha, anonymize(p), k) == expected

    @settings(max_examples=200)
    @given(st.data(), st.integers(2, 6))
    def test_endpoint_median_oracle(self, data, m):
        p = data.draw(profiles(m))
        rule = endpoint_median_rule(m)
        assert rule.winner(p) == rule.winner(anonymize(p)) == endpoint_median_oracle(p)

    @settings(max_examples=200)
    @given(st.data(), st.integers(2, 6))
    def test_phantom_median_on_singletons(self, data, m):
        p = data.draw(profiles(m, singletons=True))
        theta = data.draw(thresholds(m))
        rule = PositionThresholdRule.make_unchecked(data.draw(weights(m)), theta)
        expected = phantom_median_winner(theta, p)
        assert rule.winner(p) == rule.winner(anonymize(p)) == expected


class TestKernelAboveTheScan:
    """Above m = SCAN_MAX_M a compatible rule's first and second
    evaluations of a profile object scan and mark it, its third
    keeps the running sums of the profile's endpoint counts, and that one
    and every later one bisect the tests on them.  An incompatible rule
    always scans."""

    @settings(max_examples=150)
    @given(wide_cases())
    # a tie at x_1 between two voters at x_1 and x_17: the x_1 test
    # holds with equality, and so does every test up to x_16
    @example((endpoint_median_rule(17), Profile(17, {1: Interval(1, 1), 2: Interval(17, 17)})))
    # an incompatible rule whose x_2 test holds and whose x_9, x_13, x_15
    # and x_16 tests fail: a bisection would elect x_17
    @example(
        (
            PositionThresholdRule.make_unchecked(
                WeightVector(17, (0, 1) + (0,) * 14 + (1,)),
                ThresholdVector.constant(17, ONE_HALF),
            ),
            Profile(17, {1: Interval(1, 17)}),
        )
    )
    def test_fresh_and_kept_winners_match_naive_sum(self, case):
        rule, p = case
        expected = naive_winner(rule.alpha, rule.theta, p)
        sums = running(tally(p)) if rule.compatible else None
        for q in (fresh(p), anonymize(p)):
            assert q._sums is None
            assert ptr_winner(rule, q) == expected  # counts and scans
            assert q._sums is (False if rule.compatible else None)
            assert ptr_winner(rule, q) == expected  # scans again
            assert q._sums is (True if rule.compatible else None)
            assert ptr_winner(rule, q) == expected  # builds the sums
            assert q._sums == sums
            assert ptr_winner(rule, q) == expected  # reads the kept sums
            assert q._sums == sums

    @settings(max_examples=200)
    @given(st.data(), st.one_of(st.integers(2, 6), WIDE_M))
    def test_compatible_tests_that_hold_form_an_up_set(self, data, m):
        """The fact the bisection rests on, from the per-voter definition:
        once a compatible rule's test holds, every test right of it holds."""
        if data.draw(st.booleans()):
            rule, p = data.draw(boundary_ties(m))
        else:
            rule, p = data.draw(compatible_rules(m)), data.draw(profiles(m, n_max=20))
        held = [
            naive_position(rule.alpha, p, k) >= rule.theta.theta[k - 1] * p.n
            for k in range(1, m)
        ]
        assert held == sorted(held)


@st.composite
def coefficient_cases(draw):
    """(alpha, theta, n, L, R) with 0 <= R <= L <= n; about half of the
    draws put theta where Pi = R + alpha * (L - R) ties theta * n."""
    alpha = draw(FRACTIONS)
    n = draw(st.integers(1, 40))
    L = draw(st.integers(0, n))
    R = draw(st.integers(0, L))
    position = R + alpha * (L - R)
    if draw(st.booleans()) and 0 < position < n:
        return alpha, position / n, n, L, R
    return alpha, draw(THETAS), n, L, R


class TestCoefficientForm:
    @settings(max_examples=300)
    @given(coefficient_cases())
    # exact ties: Pi = 1 + (1/2)(3 - 1) = 2 = (1/2) * 4; Pi = 1 = (1/3) * 3
    # with A = 0
    @example((ONE_HALF, ONE_HALF, 4, 3, 1))
    @example((Fraction(0), Fraction(1, 3), 3, 2, 1))
    def test_coeffs_match_fraction_definition(self, case):
        alpha, theta, n, L, R = case
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(2, (alpha, Fraction(1))), ThresholdVector(2, (theta, theta))
        )
        ((A, B, C),) = rule.coeffs
        position = R + alpha * (L - R)
        assert (A * L + B * R >= C * n) == (position >= theta * n)
        assert (A * L + B * R >= C * n + 1) == (position > theta * n)


@pytest.mark.parametrize("anonymized", [False, True])
def test_each_evaluation_calls_ptr_winner_once(monkeypatch, anonymized):
    """Rule evaluations are counted as calls of the module-level
    `rules.ptr_winner`, so the method and the black-box wrapper must each
    go through it exactly once."""
    calls = []
    original = rules.ptr_winner

    def counting(rule, p):
        calls.append(p)
        return original(rule, p)

    monkeypatch.setattr(rules, "ptr_winner", counting)
    rule = endpoint_median_rule(4)
    p = Profile(4, {1: Interval(1, 2), 2: Interval(2, 4), 3: Interval(3, 3)})
    q = anonymize(p) if anonymized else p
    assert rule.winner(q) == 2
    assert calls == [q]
    assert RuleFn.from_ptr(rule)(q) == 2
    assert calls == [q, q]


class TestKernelErrors:
    def test_m_mismatch(self):
        p = Profile(3, {1: Interval(1, 2)})
        with pytest.raises(VotingError):
            endpoint_median_rule(4).winner(p)
        with pytest.raises(VotingError):
            endpoint_median_rule(4).winner(anonymize(p))

    def test_interval_beyond_m(self):
        p = Profile(4, {1: Interval(1, 4)})
        alpha = WeightVector.constant(3, ONE_HALF)
        with pytest.raises(VotingError, match="m mismatch"):
            collective_position(alpha, p, 1)
        with pytest.raises(VotingError, match="m mismatch"):
            collective_position(alpha, anonymize(p), 1)

    def test_every_evaluation_refuses_another_m(self):
        p = Profile(2, {1: Interval(1, 1), 2: Interval(2, 2)})
        singles = Profile(3, {1: Interval(3, 3)})
        for q in (p, anonymize(p)):
            with pytest.raises(VotingError, match="m mismatch"):
                collective_positions(WeightVector.constant(4, ONE_HALF), q)
        for q in (singles, anonymize(singles)):
            with pytest.raises(VotingError, match="m mismatch"):
                phantom_median_winner(ThresholdVector.constant(2, ONE_HALF), q)
        with pytest.raises(VotingError, match="m mismatch"):
            search.inconsistent_alternative(3, [(p, 1)])

    def test_alternative_out_of_range(self):
        p = Profile(3, {1: Interval(1, 2)})
        with pytest.raises(InvalidAlternative):
            collective_position(WeightVector.constant(3, ONE_HALF), p, 4)


def test_oracles_do_not_use_the_kernel(monkeypatch):
    m = 4
    p = Profile(
        m, {1: Interval(1, 2), 2: Interval(2, 4), 3: Interval(3, 3), 4: Interval(1, 4)}
    )
    singles = Profile(m, {1: Interval(1, 1), 2: Interval(3, 3), 3: Interval(4, 4)})
    alpha = WeightVector(m, (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)))
    theta = ThresholdVector.constant(m, Fraction(2, 5))

    def answers():
        return (
            endpoint_median_oracle(p),
            [collective_position_decomposed(alpha, p, k) for k in range(1, m + 1)],
            [collective_position_decomposed(alpha, anonymize(p), k) for k in range(1, m + 1)],
            phantom_median_winner(theta, singles),
            phantom_median_winner(theta, anonymize(singles)),
        )

    before = answers()

    def kernel_called(*args, **kwargs):
        raise AssertionError("an oracle called the kernel")

    for name in (
        "ptr_winner",
        "collective_position",
        "collective_positions",
        "endpoint_histogram",
    ):
        monkeypatch.setattr(rules, name, kernel_called)
    with pytest.raises(AssertionError):
        endpoint_median_rule(m).winner(p)  # the patch is live
    assert answers() == before


def log_parity_definition(p: Profile) -> int:
    """The ceil(n/2)-th smallest left endpoint when ceil(log2(n)) is odd,
    right endpoint when it is even, from a sorted list."""
    exponent = next(k for k in itertools.count() if 2**k >= p.n)
    side = "left" if exponent % 2 == 1 else "right"
    endpoints = sorted(getattr(iv, side) for iv in p.voters.values())
    return endpoints[(p.n + 1) // 2 - 1]


def split_profile(n: int) -> Profile:
    """(n - 1) // 2 voters on [x_1, x_2], the rest on [x_2, x_3]: the left
    and right medians differ, and for odd n so do the floor(n/2)-th and
    ceil(n/2)-th smallest endpoints."""
    low = (n - 1) // 2
    return Profile(
        3, {v: Interval(1, 2) if v <= low else Interval(2, 3) for v in range(1, n + 1)}
    )


ANY_PROFILE = st.integers(2, 6).flatmap(profiles)


class TestFixturesAgainstDefinition:
    @settings(max_examples=200)
    @given(ANY_PROFILE)
    def test_strict_threshold_winner(self, p):
        """The registered fixture is the all-1/2 rule with strict tests."""
        em = endpoint_median_rule(p.m)
        expected = naive_winner(em.alpha, em.theta, p, strict=True)
        assert search._strict_threshold_winner(p) == expected

    @settings(max_examples=200)
    @given(st.integers(2, 6).flatmap(lambda m: profiles(m, n_max=20)))
    # n = 2^k and 2^k +- 1, where ceil(log2(n)) changes parity
    @example(split_profile(1))
    @example(split_profile(2))
    @example(split_profile(3))
    @example(split_profile(4))
    @example(split_profile(5))
    @example(split_profile(7))
    @example(split_profile(8))
    @example(split_profile(9))
    @example(split_profile(16))
    @example(split_profile(17))
    def test_log_parity_winner(self, p):
        assert search._log_parity_winner(p) == log_parity_definition(p)

    @settings(max_examples=200)
    @given(ANY_PROFILE)
    # a tie at x_1 elects x_1: a_1 = 1/4, and Pi(x_1) = 1 = n/2
    @example(Profile(3, {1: Interval(1, 1), 2: Interval(3, 3)}))
    # the median left endpoint is x_1, but the x_1 test fails: x_2 wins
    @example(Profile(3, {1: Interval(1, 2), 2: Interval(2, 2)}))
    def test_profile_dependent_alpha_winner(self, p):
        m = p.m
        excluded = sum(1 for iv in p.voters.values() if iv.left > 1)
        a1 = ONE_HALF - Fraction(excluded, 2 * p.n)
        alpha = WeightVector(m, (a1,) + (Fraction(1),) * (m - 1))
        expected = naive_winner(alpha, ThresholdVector.constant(m, ONE_HALF), p)
        assert search._profile_dependent_alpha_winner(p) == expected


def even_doubled_definition(p: Profile) -> int:
    """All-1/2 positions summed in `Fraction`, with the ballot of every
    even integer voter id counted twice; string ids count once."""
    half = WeightVector.constant(p.m, ONE_HALF)
    weighted = [
        (iv, 2 if isinstance(voter, int) and voter % 2 == 0 else 1)
        for voter, iv in p.voters.items()
    ]
    total = sum(w for _, w in weighted)
    for i in range(1, p.m + 1):
        pos = sum(w * individual_position(half, iv, i) for iv, w in weighted)
        if pos >= Fraction(total, 2):
            return i
    raise AssertionError("unreachable")


VOTER_IDS = st.one_of(
    st.integers(-6, 12),
    st.integers(-6, 12).map(str),
    st.sampled_from(["a#2", "b", "3#1", "x4", "2.0"]),
)


@st.composite
def mixed_id_profiles(draw):
    m = draw(st.integers(2, 5))
    ids = draw(st.lists(VOTER_IDS, min_size=1, max_size=8, unique=True))
    options = canonical_intervals(m)
    return Profile(m, {v: draw(st.sampled_from(options)) for v in ids})


@settings(max_examples=300)
@given(mixed_id_profiles())
# exact ties at x_1: 4 counts twice, so L_1 + R_1 = 4 = the number of
# doubled ballots; with integer ids and a non-numeric id
@example(Profile(2, {4: Interval(1, 1), 1: Interval(2, 2), 3: Interval(2, 2)}))
@example(Profile(3, {2: Interval(1, 2), "a#2": Interval(2, 3), 5: Interval(3, 3)}))
# "4" counts once, so x_1 ties; doubled, it would move the winner to x_3
@example(Profile(3, {"4": Interval(3, 3), 1: Interval(1, 1)}))
def test_even_doubled_winner(p):
    assert search._even_doubled_winner(p) == even_doubled_definition(p)


@settings(max_examples=200)
@given(mixed_id_profiles(), st.integers(2, 4))
@example(Profile(3, {"4": Interval(3, 3), 1: Interval(1, 1)}), 2)
def test_even_doubled_winner_survives_replication(p, k):
    """Every copy of a voter counts as often as its original, so k copies
    of a profile elect its winner."""
    winner = search._even_doubled_winner(p)
    assert search._even_doubled_winner(replicate(p, k)) == winner


@st.composite
def derived_cases(draw):
    """(rule, profile) with a profile that a campaign derives from a drawn
    one, or that has mixed integer and string ids."""
    rule, p = draw(cases())
    m = rule.m
    how = draw(st.sampled_from(["with_interval", "combine", "replications", "mixed"]))
    if how == "with_interval":
        voter = draw(st.sampled_from(sorted(p.voters)))
        return rule, p.with_interval(voter, draw(st.sampled_from(canonical_intervals(m))))
    if how == "mixed":
        ids = draw(st.lists(VOTER_IDS, min_size=p.n, max_size=p.n, unique=True))
        return rule, Profile(m, dict(zip(ids, p.voters.values())))
    rest = draw(profiles(m, n_max=4))
    rest = Profile(m, {-v: iv for v, iv in rest.voters.items()})
    if how == "combine":
        return rule, combine(p, rest)
    steps = replications(p, rest)
    return rule, next(itertools.islice(steps, draw(st.integers(0, 2)), None))


@settings(max_examples=300)
@given(derived_cases())
def test_winner_on_derived_profiles_matches_naive_sum(case):
    rule, p = case
    expected = naive_winner(rule.alpha, rule.theta, p)
    assert ptr_winner(rule, p) == ptr_winner(rule, anonymize(p)) == expected


def fresh(p: Profile) -> Profile:
    """A validated copy of `p` that has never been evaluated."""
    return Profile(p.m, dict(p.voters))


def renamed_as_anonymity_builds_it(rule, p: Profile, seed: int) -> Profile:
    """The renamed profile `check_anonymity` evaluates under the renaming
    that `seed` shuffles, as the rule sees it when it is called."""
    seen = []

    def fn(q):
        seen.append(q)
        return ptr_winner(rule, q)

    ids = sorted(p.voters)
    shuffled = random.Random(seed).sample(ids, len(ids))
    check_anonymity(RuleFn(p.m, fn), p, dict(zip(ids, shuffled)))
    assert seen[0] is p
    return seen[1]


def derive(rule, p: Profile, step) -> Profile:
    how, voter, iv, side, seed = step
    if how == "with_interval":
        return p.with_interval(voter, iv)
    if how == "delete_endpoint":
        if p.interval(voter).is_singleton():  # nothing to delete
            return p.with_interval(voter, iv)
        return delete_endpoint(p, voter, side)
    return renamed_as_anonymity_builds_it(rule, p, seed)


@st.composite
def derivation_chains(draw, base):
    """(rule, profile, steps): a (rule, profile) drawn from `base`, and up
    to five one-voter derivations or anonymity renamings, each applied to
    the profile before it."""
    rule, p = draw(base)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["with_interval", "delete_endpoint", "renaming"]),
                st.sampled_from(sorted(p.voters)),
                st.sampled_from(canonical_intervals(rule.m)),
                st.sampled_from(["left", "right"]),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return rule, p, steps


def tally(p: Profile) -> tuple[list[int], list[int]]:
    """The endpoint counts by definition: for k = 0..m, the number of
    voters whose left (right) endpoint is x_k."""
    voters = p.voters.values()
    return (
        [sum(iv.left == k for iv in voters) for k in range(p.m + 1)],
        [sum(iv.right == k for iv in voters) for k in range(p.m + 1)],
    )


@given(st.data(), st.integers(2, 6))
def test_endpoint_histogram_is_the_tally(data, m):
    p = data.draw(profiles(m))
    assert endpoint_histogram(anonymize(p)) == endpoint_histogram(p) == tally(p)


class TestKeptEndpointCounts:
    """`ptr_winner` keeps a profile's endpoint counts after its first
    evaluation, and a one-voter derivation or an anonymity renaming of an
    evaluated profile starts from them.  That path must be exact."""

    def check_derivations(self, rule, p, steps):
        # evaluated three times, so that above SCAN_MAX_M a compatible
        # rule leaves the profile its running sums
        for _ in range(3):
            ptr_winner(rule, p)
        bisects = rule.m > SCAN_MAX_M and rule.compatible
        for step in steps:
            q = derive(rule, p, step)
            # the same derivation of a never evaluated copy of the parent
            cold = derive(rule, fresh(p), step)
            assert cold.voters == q.voters
            assert q._histogram is not None  # inherited: the cache-hit path
            # no running sums are inherited; a renaming that anonymity
            # evaluated holds at most the mark of that evaluation
            assert q._sums is None or q._sums is False
            expected = naive_winner(rule.alpha, rule.theta, q)
            assert ptr_winner(rule, q) == ptr_winner(rule, cold) == expected
            assert ptr_winner(rule, fresh(q)) == expected
            assert q._histogram == tally(q)
            assert cold._histogram == tally(q)
            # by the third evaluation q bisects on sums of its own counts
            assert ptr_winner(rule, q) == ptr_winner(rule, q) == expected
            assert q._sums == (running(tally(q)) if bisects else None)
            anon = anonymize(q)
            assert ptr_winner(rule, anon) == ptr_winner(rule, anon) == expected
            assert anon._histogram == tally(q)
            p = q

    @settings(max_examples=150)
    @given(derivation_chains(cases()))
    def test_derivations_of_evaluated_profiles_are_exact(self, chain):
        self.check_derivations(*chain)

    @settings(max_examples=100)
    @given(derivation_chains(wide_cases()))
    # moving a voter from x_17 to x_1 moves the endpoint median to x_1
    @example(
        (
            endpoint_median_rule(17),
            Profile(17, {1: Interval(1, 1), 2: Interval(17, 17), 3: Interval(17, 17)}),
            [("with_interval", 2, Interval(1, 1), "left", 0)],
        )
    )
    def test_derivations_above_the_scan_are_exact(self, chain):
        self.check_derivations(*chain)

    @settings(max_examples=50)
    @given(cases())
    def test_corrupted_counts_move_only_the_kernel(self, case):
        rule, p = case
        m = rule.m
        singles = Profile(m, {v: Interval(iv.left, iv.left) for v, iv in p.voters.items()})
        half = endpoint_median_rule(m)

        def oracles():
            return (
                endpoint_median_oracle(p),
                [collective_position_decomposed(rule.alpha, p, k) for k in range(1, m + 1)],
                phantom_median_winner(rule.theta, singles),
                endpoint_histogram(p),
                search._profile_dependent_alpha_winner(p),
            )

        before = oracles()
        for q, r in ((p, rule), (p, half), (singles, rule)):
            w = ptr_winner(r, fresh(q))
            # every endpoint at x_m fails each test below x_m; every
            # endpoint at x_1 meets the test at x_1, since theta_1 < 1
            end = 1 if w == m else m
            lefts, rights = [0] * (m + 1), [0] * (m + 1)
            lefts[end] = rights[end] = q.n
            q.__dict__["_histogram"] = lefts, rights
            assert ptr_winner(r, q) == end != w
        assert oracles() == before

    @settings(max_examples=50)
    @given(wide_cases(kinds=("compatible", "tie")))
    def test_corrupted_sums_move_only_the_kernel(self, case):
        """Above SCAN_MAX_M a compatible rule reads the kept running sums
        and not the counts; no oracle reads either."""
        rule, p = case
        m = rule.m
        singles = Profile(m, {v: Interval(iv.left, iv.left) for v, iv in p.voters.items()})
        half = endpoint_median_rule(m)

        def oracles():
            return (
                endpoint_median_oracle(p),
                [collective_position_decomposed(rule.alpha, p, k) for k in range(1, m + 1)],
                phantom_median_winner(rule.theta, singles),
                endpoint_histogram(p),
                search._profile_dependent_alpha_winner(p),
            )

        before = oracles()
        for q, r in ((p, rule), (p, half), (singles, rule)):
            w = ptr_winner(r, fresh(q))
            # as above: all endpoints at x_m fail every test below x_m,
            # all at x_1 meet the x_1 test; the counts stay q's own
            end = 1 if w == m else m
            lefts, rights = [0] * (m + 1), [0] * (m + 1)
            lefts[end] = rights[end] = q.n
            q.__dict__["_sums"] = running((lefts, rights))
            assert ptr_winner(r, q) == end != w
            assert q._histogram in (None, tally(q))
        assert oracles() == before


def traced(f, p) -> tuple[int, list]:
    """f(p), and the code of each Python function it ran, in call order."""
    frames = []

    def record(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code)

    sys.setprofile(record)
    try:
        winner = f(p)
    finally:
        sys.setprofile(None)
    return winner, frames


def test_identified_evaluation_counts_once_then_runs_one_python_frame():
    """A threshold rule's evaluation is the kernel's frame alone, since
    `RuleFn.from_ptr` binds `ptr_winner` itself; the profile's first
    evaluation adds one `endpoint_histogram` call below it, and every
    later one runs no Python-level helper.  Above m = SCAN_MAX_M the
    kernel builds the running sums in C at the third evaluation, and a
    one-voter derivation of an evaluated profile, which has its counts,
    runs the kernel's frame alone too."""
    kernel = [rules.ptr_winner.__code__]
    counting = kernel + [rules.endpoint_histogram.__code__]
    for m in (4, SCAN_MAX_M + 1, 50):
        f = RuleFn.from_ptr(endpoint_median_rule(m))
        p = Profile(m, {1: Interval(1, 2), 2: Interval(2, m), 3: Interval(3, 3)})
        # the first evaluation counts the endpoints, the later ones read them
        for expected in (counting, kernel, kernel, kernel):
            assert traced(f, p) == (2, expected)
        derived = p.with_interval(3, Interval(3, 4))
        assert traced(f, derived) == (2, kernel)


def test_black_box_evaluation_runs_the_validation_and_the_rule():
    def fn(p):
        return 1

    p = Profile(4, {1: Interval(1, 2)})
    assert traced(RuleFn(4, fn), p) == (1, [axioms._validated.__code__, fn.__code__])


def test_cached_terms_leave_rule_identity_unchanged():
    alpha = WeightVector(3, (Fraction(1, 3), Fraction(1, 2), Fraction(1)))
    theta = ThresholdVector(3, (Fraction(2, 3), Fraction(1, 2), Fraction(1, 2)))
    rule = PositionThresholdRule.make(alpha, theta)
    twin = PositionThresholdRule(3, theta, alpha)
    # (a*d, (b - a)*d, c*b) for alpha_k = a/b, theta_k = c/d
    assert rule.coeffs == ((3, 6, 6), (2, 2, 2))
    assert rule == twin and hash(rule) == hash(twin) and twin.compatible
    with pytest.raises(TypeError):  # the vectors decide compatibility
        PositionThresholdRule(3, theta, alpha, compatible=False)
    assert repr(rule) == (
        f"PositionThresholdRule(m=3, theta={theta!r}, alpha={alpha!r}, compatible=True)"
    )
    data = rule.to_json()
    assert data == {"m": 3, "theta": ["2/3", "1/2", "1/2"], "alpha": ["1/3", "1/2", "1"]}
    assert PositionThresholdRule.from_json(data) == rule
