"""The endpoint-histogram winner kernel against definitions and oracles.

Every expectation here is computed without the kernel: from the
per-voter definition (`individual_position` summed in `Fraction`), the
singleton decomposition, the endpoint-median oracle or the phantom-median
rule.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intervalvote import rules, search
from intervalvote.core import (
    Interval,
    InvalidAlternative,
    Profile,
    VotingError,
    anonymize,
    canonical_intervals,
)
from intervalvote.rules import (
    ONE_HALF,
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    collective_position,
    collective_position_decomposed,
    endpoint_median_oracle,
    endpoint_median_rule,
    individual_position,
    phantom_median_winner,
    ptr_winner,
)

FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=12)


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
    inner = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(
        lambda t: 0 < t < 1
    )
    values = sorted((draw(inner) for _ in range(m)), reverse=True)
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
        with pytest.raises(InvalidAlternative):
            collective_position(alpha, p, 1)
        with pytest.raises(InvalidAlternative):
            collective_position(alpha, anonymize(p), 1)

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
        "cumulative_endpoints",
        "threshold_tests",
    ):
        monkeypatch.setattr(rules, name, kernel_called)
    with pytest.raises(AssertionError):
        endpoint_median_rule(m).winner(p)  # the patch is live
    assert answers() == before


class TestFixturesAgainstDefinition:
    @settings(max_examples=200)
    @given(st.one_of(cases(), cases(ties=True)))
    def test_strict_threshold_winner(self, case):
        rule, p = case
        expected = naive_winner(rule.alpha, rule.theta, p, strict=True)
        assert search._strict_threshold_winner(rule, p) == expected

    @settings(max_examples=200)
    @given(st.data(), st.integers(2, 6))
    def test_profile_dependent_alpha_winner(self, data, m):
        p = data.draw(profiles(m))
        excluded = sum(1 for iv in p.voters.values() if not iv.contains(1))
        a1 = ONE_HALF - Fraction(excluded, 2 * p.n)
        alpha = WeightVector(m, (a1,) + (Fraction(1),) * (m - 1))
        expected = naive_winner(alpha, ThresholdVector.constant(m, ONE_HALF), p)
        assert search._profile_dependent_alpha_winner(p) == expected


def test_cached_terms_leave_rule_identity_unchanged():
    alpha = WeightVector(3, (Fraction(1, 3), Fraction(1, 2), Fraction(1)))
    theta = ThresholdVector(3, (Fraction(2, 3), Fraction(1, 2), Fraction(1, 2)))
    rule = PositionThresholdRule.make(alpha, theta)
    twin = PositionThresholdRule(3, theta, alpha)
    assert rule.terms == ((1, 3, 2, 3), (1, 2, 1, 2))
    assert rule == twin and hash(rule) == hash(twin)
    assert rule != PositionThresholdRule(3, theta, alpha, compatible=False)
    assert repr(rule) == (
        f"PositionThresholdRule(m=3, theta={theta!r}, alpha={alpha!r}, compatible=True)"
    )
    data = rule.to_json()
    assert data == {"m": 3, "theta": ["2/3", "1/2", "1/2"], "alpha": ["1/3", "1/2", "1"]}
    assert PositionThresholdRule.from_json(data) == rule
