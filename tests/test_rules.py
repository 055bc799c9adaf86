"""Position-threshold rules: winners, compatibility, decomposition."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalvote.core import (
    Interval,
    Profile,
    VotingError,
    anonymize,
    canonical_intervals,
)
from intervalvote.rules import (
    IncompatibleRule,
    NotSingletonDomain,
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    check_compatible,
    collective_position,
    collective_position_decomposed,
    decompose_interval,
    endpoint_median_oracle,
    endpoint_median_rule,
    individual_position,
    is_weakly_efficient_thresholds,
    phantom_median_winner,
    ptr_winner,
)
from intervalvote.axioms import RuleFn, check_robustness, replay_violation
import intervalvote.search as search
from intervalvote.search import incompatibility_witness

HALF = Fraction(1, 2)


def figure_profile() -> Profile:
    return Profile(
        4, {1: Interval(1, 2), 2: Interval(1, 3), 3: Interval(2, 4)}
    )


def rule_all_one(m: int) -> PositionThresholdRule:
    return PositionThresholdRule.make(
        WeightVector.constant(m, 1), ThresholdVector.constant(m, HALF)
    )


class TestVectors:
    def test_weight_bounds(self):
        for bad in (Fraction(-1, 2), Fraction(101, 100)):
            with pytest.raises(VotingError, match="weights must lie in"):
                WeightVector(2, (bad, Fraction(1)))
        assert WeightVector(2, (Fraction(0), Fraction(1))).alpha == (0, 1)

    def test_threshold_open_interval(self):
        with pytest.raises(VotingError):
            ThresholdVector(2, (Fraction(1), HALF))
        with pytest.raises(VotingError):
            ThresholdVector(2, (HALF, Fraction(0)))

    def test_threshold_monotone(self):
        with pytest.raises(VotingError):
            ThresholdVector(3, (Fraction(1, 3), HALF, HALF))
        with pytest.raises(VotingError, match="non-increasing"):
            ThresholdVector(3, (HALF, Fraction(2, 5), Fraction(41, 100)))
        ThresholdVector(3, (HALF, Fraction(1, 3), Fraction(1, 3)))

    def test_strings_accepted(self):
        v = WeightVector(2, ("1/2", "1"))
        assert v.alpha == (HALF, Fraction(1))


class TestIndividualPosition:
    def test_three_zones(self):
        alpha = WeightVector(4, (Fraction(1, 3),) * 4)
        iv = Interval(2, 3)
        assert individual_position(alpha, iv, 1) == 0
        assert individual_position(alpha, iv, 2) == Fraction(1, 3)
        assert individual_position(alpha, iv, 3) == 1
        assert individual_position(alpha, iv, 4) == 1

    def test_singleton_is_step(self):
        alpha = WeightVector(3, (HALF,) * 3)
        iv = Interval(2, 2)
        assert [individual_position(alpha, iv, k) for k in (1, 2, 3)] == [0, 1, 1]


class TestWorkedWinners:
    def test_all_one_weights(self):
        # left-endpoint count rule: Pi(x_1) = 2 >= 3/2, so x_1 wins
        p = figure_profile()
        rule = rule_all_one(4)
        assert collective_position(rule.alpha, p, 1) == 2
        assert rule.winner(p) == 1

    def test_all_half_weights(self):
        # Pi(x_1) = 1 < 3/2 but Pi(x_2) = 2 >= 3/2, so x_2 wins
        p = figure_profile()
        rule = endpoint_median_rule(4)
        assert collective_position(rule.alpha, p, 1) == 1
        assert collective_position(rule.alpha, p, 2) == 2
        assert rule.winner(p) == 2

    def test_anon_profile_agrees(self):
        p = figure_profile()
        rule = endpoint_median_rule(4)
        assert rule.winner(anonymize(p)) == rule.winner(p)

    def test_last_alternative_is_fallback(self):
        p = Profile(3, {1: Interval(3, 3), 2: Interval(3, 3)})
        assert endpoint_median_rule(3).winner(p) == 3

    def test_tie_counts_as_satisfied(self):
        p = Profile(2, {1: Interval(1, 1), 2: Interval(2, 2)})
        assert endpoint_median_rule(2).winner(p) == 1


def fraction_compatible(alpha, theta):
    """`check_compatible` as the slope formula in `Fraction`s: the
    reference for its integer comparisons."""
    a, t = alpha.alpha, theta.theta
    for i in range(alpha.m - 2):
        slope = max(a[i] / t[i], (1 - a[i]) / (1 - t[i]))
        if a[i + 1] - a[i] < (t[i + 1] - t[i]) * slope:
            return False, i + 1
    return True, None


class TestCompatibility:
    def test_constant_pairs_compatible(self):
        ok, idx = check_compatible(
            WeightVector.constant(4, HALF), ThresholdVector.constant(4, HALF)
        )
        assert ok and idx is None

    def test_known_incompatible(self):
        # flat thresholds make the slope bound zero, so any weight drop fails
        alpha = WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        theta = ThresholdVector.constant(3, HALF)
        ok, idx = check_compatible(alpha, theta)
        assert not ok and idx == 1

    def test_weight_drop_from_one(self):
        alpha = WeightVector(4, (Fraction(1), HALF, HALF, HALF))
        theta = ThresholdVector.constant(4, HALF)
        ok, idx = check_compatible(alpha, theta)
        assert not ok and idx == 1

    @given(st.data(), st.integers(3, 5))
    def test_non_decreasing_weights_always_compatible(self, data, m):
        vals = sorted(
            data.draw(
                st.lists(
                    st.fractions(min_value=0, max_value=1, max_denominator=12),
                    min_size=m,
                    max_size=m,
                )
            )
        )
        theta_vals = sorted(
            data.draw(
                st.lists(
                    st.fractions(
                        min_value=Fraction(1, 12),
                        max_value=Fraction(11, 12),
                        max_denominator=12,
                    ),
                    min_size=m,
                    max_size=m,
                )
            ),
            reverse=True,
        )
        ok, _ = check_compatible(
            WeightVector(m, tuple(vals)), ThresholdVector(m, tuple(theta_vals))
        )
        assert ok

    def test_threshold_drop_buys_slack(self):
        # the same weight drop is fine when the thresholds drop steeply too
        alpha = WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        theta = ThresholdVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        ok, _ = check_compatible(alpha, theta)
        assert ok

    def test_make_rejects_incompatible(self):
        alpha = WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        theta = ThresholdVector.constant(3, HALF)
        with pytest.raises(IncompatibleRule):
            PositionThresholdRule.make(alpha, theta)
        rule = PositionThresholdRule.make_unchecked(alpha, theta)
        assert not rule.compatible

    def test_json_round_trip(self):
        rule = endpoint_median_rule(3)
        again = PositionThresholdRule.from_json(rule.to_json())
        assert again == rule
        data = rule.to_json()
        assert data["theta"] == ["1/2", "1/2", "1/2"]

    def test_unchecked_json_round_trip(self):
        alpha = WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        rule = PositionThresholdRule.make_unchecked(alpha, ThresholdVector.constant(3, HALF))
        data = rule.to_json()
        assert data["unchecked"] is True
        again = PositionThresholdRule.from_json(data)
        assert again == rule and not again.compatible

    @pytest.mark.parametrize("m", range(3, 9))
    def test_integer_test_matches_the_fraction_formula(self, m):
        rng = random.Random(m)
        verdicts = set()
        for _ in range(2000):
            alpha = search.random_weight_vector(m, rng)
            theta = search.random_threshold_vector(m, rng)
            got = check_compatible(alpha, theta)
            assert got == fraction_compatible(alpha, theta), (alpha, theta)
            verdicts.add(got[0])
        assert verdicts == {True, False}

    def test_boundary_pair(self):
        # equal steps at slope 1: alpha_2 - alpha_1 = theta_2 - theta_1
        third = Fraction(1, 3)
        theta = ThresholdVector(3, (HALF, third, third))
        for a2, expected in ((third, (True, None)), (Fraction(33, 100), (False, 1))):
            alpha = WeightVector(3, (HALF, a2, third))
            assert check_compatible(alpha, theta) == expected
            assert fraction_compatible(alpha, theta) == expected

    def test_direct_construction_derives_compatibility(self):
        # built without either constructor, the rule still reports the
        # vectors' verdict, and its file loads back
        alpha = WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        rule = PositionThresholdRule(3, ThresholdVector.constant(3, HALF), alpha)
        assert not rule.compatible
        assert rule.to_json()["unchecked"] is True
        assert PositionThresholdRule.from_json(rule.to_json()) == rule


class TestWeakEfficiencyThresholds:
    def test_flat_is_efficient(self):
        assert is_weakly_efficient_thresholds(ThresholdVector.constant(4, HALF))

    def test_interior_drop_is_not(self):
        theta = ThresholdVector(
            4, (Fraction(3, 4), HALF, HALF, Fraction(1, 4))
        )
        assert not is_weakly_efficient_thresholds(theta)

    def test_last_coordinate_exempt(self):
        theta = ThresholdVector(
            4, (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
        )
        assert is_weakly_efficient_thresholds(theta)


class TestEndpointMedian:
    def test_oracle_on_figure_profile(self):
        assert endpoint_median_oracle(figure_profile()) == 2

    def test_majority_peak_wins(self):
        # endpoints {1,2,3,3,3,3}: cumulative count reaches 3 at x_3
        p = Profile(
            3, {1: Interval(1, 2), 2: Interval(3, 3), 3: Interval(3, 3)}
        )
        assert endpoint_median_rule(3).winner(p) == 3
        assert endpoint_median_oracle(p) == 3

    def test_shared_endpoint_wins(self):
        # Pi(x_1) = 3/2 < 2 = theta*n, so x_2 takes it
        p = Profile(
            2,
            {
                1: Interval(1, 2),
                2: Interval(1, 2),
                3: Interval(1, 2),
                4: Interval(2, 2),
            },
        )
        assert endpoint_median_rule(2).winner(p) == 2

    def test_oracle_single_voter(self):
        assert endpoint_median_oracle(Profile(4, {1: Interval(3, 3)})) == 3

    def test_oracle_disagreeing_halves(self):
        # endpoints {1,1,3,3}: cumulative count reaches 2 at x_1
        p = Profile(3, {1: Interval(1, 1), 2: Interval(3, 3)})
        assert endpoint_median_oracle(p) == 1

    @settings(max_examples=200)
    @given(st.data(), st.integers(2, 6), st.integers(1, 8))
    def test_oracle_matches_rule(self, data, m, n):
        options = canonical_intervals(m)
        p = Profile(
            m,
            {
                v: data.draw(st.sampled_from(options))
                for v in range(1, n + 1)
            },
        )
        assert endpoint_median_rule(m).winner(p) == endpoint_median_oracle(p)


class TestPhantomMedian:
    def test_requires_singletons(self):
        with pytest.raises(NotSingletonDomain):
            phantom_median_winner(
                ThresholdVector.constant(3, HALF),
                Profile(3, {1: Interval(1, 2)}),
            )

    def test_even_split_tie_goes_left(self):
        p = Profile(
            2,
            {1: Interval(1, 1), 2: Interval(1, 1), 3: Interval(2, 2), 4: Interval(2, 2)},
        )
        assert phantom_median_winner(ThresholdVector.constant(2, HALF), p) == 1

    def test_high_threshold_lone_peak(self):
        p = Profile(2, {1: Interval(2, 2)})
        theta = ThresholdVector.constant(2, Fraction(3, 4))
        assert phantom_median_winner(theta, p) == 2

    def test_matches_rule_on_singletons(self):
        theta = ThresholdVector(3, (Fraction(2, 3), Fraction(1, 3), Fraction(1, 3)))
        alpha = WeightVector(3, (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)))
        rule = PositionThresholdRule.make(alpha, theta)
        p = Profile(3, {1: Interval(1, 1), 2: Interval(2, 2), 3: Interval(3, 3)})
        assert phantom_median_winner(theta, p) == rule.winner(p) == 2


@st.composite
def weight_vectors(draw, m):
    return WeightVector(
        m,
        tuple(
            draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
            for _ in range(m)
        ),
    )


class TestDecomposition:
    def test_singleton_trivial(self):
        alpha = WeightVector.constant(3, HALF)
        [b] = decompose_interval(alpha, Interval(2, 2))
        assert (b.alternative, b.weight) == (2, 1)

    def test_known_split(self):
        # [x_1,x_3] under alpha=(1/2,1/4,1): 1/2 at x_1, -1/4 at x_2, 3/4 at x_3
        alpha = WeightVector(3, (HALF, Fraction(1, 4), Fraction(1)))
        ballots = decompose_interval(alpha, Interval(1, 3))
        assert [(b.alternative, b.weight) for b in ballots] == [
            (1, HALF),
            (2, Fraction(-1, 4)),
            (3, Fraction(3, 4)),
        ]

    def test_half_weights_split_to_endpoints(self):
        alpha = WeightVector.constant(3, HALF)
        ballots = decompose_interval(alpha, Interval(1, 3))
        assert [(b.alternative, b.weight) for b in ballots] == [
            (1, HALF),
            (3, HALF),
        ]

    def test_all_one_weights_collapse_to_left(self):
        alpha = WeightVector.constant(4, 1)
        ballots = decompose_interval(alpha, Interval(1, 4))
        assert [(b.alternative, b.weight) for b in ballots] == [(1, Fraction(1))]

    @given(st.data(), st.integers(2, 6))
    def test_weights_sum_to_one(self, data, m):
        alpha = data.draw(weight_vectors(m))
        iv = data.draw(st.sampled_from(canonical_intervals(m)))
        ballots = decompose_interval(alpha, iv)
        assert sum((b.weight for b in ballots), Fraction(0)) == 1

    @settings(max_examples=200)
    @given(st.data(), st.integers(2, 5), st.integers(1, 5))
    def test_decomposed_position_exact(self, data, m, n):
        alpha = data.draw(weight_vectors(m))
        options = canonical_intervals(m)
        p = Profile(
            m,
            {v: data.draw(st.sampled_from(options)) for v in range(1, n + 1)},
        )
        k = data.draw(st.integers(1, m))
        assert collective_position_decomposed(alpha, p, k) == collective_position(
            alpha, p, k
        )


def replays(alpha, theta, violation) -> bool:
    """Whether `violation`, through JSON, reproduces on the unchecked rule."""
    f = RuleFn.from_ptr(PositionThresholdRule.make_unchecked(alpha, theta))
    return replay_violation(f, json.loads(json.dumps(violation.to_json())))


def left_deletion_witness(m, *intervals):
    """The witness deleting voter 1's left endpoint, with voters 1, 2, ...
    reporting `intervals` in order."""
    voters = [{"id": v, "interval": list(iv)} for v, iv in enumerate(intervals, 1)]
    return {"profile": {"m": m, "voters": voters}, "voter": 1, "side": "left"}


class TestIncompatibilityWitness:
    def test_compatible_gives_none(self):
        assert (
            incompatibility_witness(
                WeightVector.constant(3, HALF), ThresholdVector.constant(3, HALF)
            )
            is None
        )

    def test_witness_confirmed_by_checker(self):
        alpha = WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        theta = ThresholdVector.constant(3, HALF)
        found = incompatibility_witness(alpha, theta)
        assert found.witness == left_deletion_witness(3, (1, 3), (1, 3), (3, 3))
        rule = PositionThresholdRule.make_unchecked(alpha, theta)
        profile = Profile.from_json(found.witness["profile"])
        # the violation check_robustness itself reports, observed included
        assert found in check_robustness(RuleFn.from_ptr(rule), profile).violations
        assert replays(alpha, theta, found)

    def test_witness_sharp_weight_drop(self):
        # alpha = (1, 0, ...) with flat thresholds: {x_m} anchors the profile
        alpha = WeightVector(3, (Fraction(1), Fraction(0), Fraction(0)))
        theta = ThresholdVector.constant(3, HALF)
        found = incompatibility_witness(alpha, theta)
        assert found.witness == left_deletion_witness(3, (1, 3), (3, 3))
        assert replays(alpha, theta, found)

    def test_zero_weights_decreasing_thresholds_compatible(self):
        # flat-zero weights never violate the slope bound: the right side
        # is negative whenever the thresholds decrease
        alpha = WeightVector.constant(4, 0)
        theta = ThresholdVector(
            4, (Fraction(4, 5), Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))
        )
        ok, _ = check_compatible(alpha, theta)
        assert ok

    def test_witness_case2_with_decreasing_thresholds(self):
        # weight drop too steep for the threshold drop, with
        # alpha_1 < theta_1 anchoring the profile on {x_1}
        alpha = WeightVector(4, (HALF, Fraction(0), Fraction(0), Fraction(0)))
        theta = ThresholdVector(4, (Fraction(3, 5), HALF, HALF, HALF))
        ok, idx = check_compatible(alpha, theta)
        assert not ok and idx == 1
        found = incompatibility_witness(alpha, theta)
        assert found.witness == left_deletion_witness(4, *[(1, 3)] * 4, (1, 1))
        assert replays(alpha, theta, found)

    def test_witness_case_alpha_below_theta(self):
        alpha = WeightVector(4, (Fraction(1, 4), Fraction(0), Fraction(0), Fraction(0)))
        theta = ThresholdVector.constant(4, HALF)
        ok, idx = check_compatible(alpha, theta)
        assert not ok and idx == 1
        found = incompatibility_witness(alpha, theta)
        assert found.witness == left_deletion_witness(4, (1, 3), (1, 3), (1, 1))
        assert replays(alpha, theta, found)

    def test_every_small_incompatible_pair_replays(self):
        # alpha = (a1, a2, a2), theta = (t1, t2, t2) with denominators <= 6;
        # only index 1 is tested at m = 3
        weights = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q + 1)})
        thresholds = [w for w in weights if 0 < w < 1]
        pairs = below = 0
        for a1, a2, t1, t2 in product(weights, weights, thresholds, thresholds):
            if t2 > t1:
                continue
            alpha = WeightVector(3, (a1, a2, a2))
            theta = ThresholdVector(3, (t1, t2, t2))
            found = incompatibility_witness(alpha, theta)
            if found is None:
                continue
            assert replays(alpha, theta, found), (alpha, theta)
            pairs += 1
            below += a1 < t1
        assert (pairs, below) == (2683, 555)

    def test_one_endpoint_deletion(self, monkeypatch):
        # w1 = 4000 voters on [x_1, x_3] and 2003 on {x_3}: the witness is
        # the first deletion, not the end of a walk over all 4000
        calls = []
        delete = search.delete_endpoint
        monkeypatch.setattr(
            search, "delete_endpoint", lambda *args: calls.append(args) or delete(*args)
        )
        alpha = WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        found = incompatibility_witness(
            alpha, ThresholdVector.constant(3, Fraction(1000, 2001))
        )
        assert len(calls) == 1
        assert len(found.witness["profile"]["voters"]) == 6003
        assert found.observed == {"before": 1, "after": 3}
