"""Enumeration, sampling, falsification campaigns, witness generators."""

import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalvote.core import Interval, Profile, VotingError, anonymize
from intervalvote.rules import (
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    check_compatible,
    endpoint_median_rule,
)
from intervalvote.axioms import (
    RuleFn,
    check_majority_criterion,
    check_strong_unanimity,
    replay_violation,
)
from intervalvote.search import (
    AXIOM_TAGS,
    FIXTURE_TAGS,
    SearchBounds,
    TooLarge,
    UnsupportedAxiom,
    enumerate_profiles,
    falsify,
    fit_fixed_rule_to_winners,
    fixed_rule_infeasible_for_triple,
    fixture,
    profile_count,
    random_profile,
    remark_scaled_triple,
    sample_vector_pairs,
    theorem2_uniqueness_witness,
)

HALF = Fraction(1, 2)


class TestEnumeration:
    def test_profile_count_formula(self):
        # multisets of size n over q = m(m+1)/2 intervals
        assert profile_count(2, 2) == math.comb(4, 2)
        assert profile_count(4, 3) == math.comb(12, 3)

    @given(st.integers(2, 4), st.integers(1, 3))
    def test_enumeration_matches_count(self, m, n):
        profiles = list(enumerate_profiles(m, n))
        assert len(profiles) == profile_count(m, n)
        assert len(set(p.counts for p in profiles)) == len(profiles)
        assert all(p.n == n for p in profiles)

    def test_budget_enforced(self):
        with pytest.raises(TooLarge):
            list(enumerate_profiles(8, 20, budget=100))

    def test_random_profile_seeded(self):
        a = random_profile(5, 10, seed=42)
        b = random_profile(5, 10, seed=42)
        c = random_profile(5, 10, seed=43)
        assert a == b
        assert a != c

    def test_random_profile_shape(self):
        p = random_profile(3, 7, seed=0)
        assert p.m == 3 and p.n == 7

    def test_random_profile_roughly_uniform(self):
        # frequency of each of the q=3 intervals within 5 sigma of n/3
        counts = {}
        trials = 3000
        for seed in range(trials // 10):
            p = random_profile(2, 10, seed=seed)
            for iv in p.voters.values():
                counts[iv] = counts.get(iv, 0) + 1
        expected = trials / 3
        sigma = (trials * (1 / 3) * (2 / 3)) ** 0.5
        for iv, c in counts.items():
            assert abs(c - expected) <= 5 * sigma, (iv, c)


class TestVectorSampling:
    def test_compatible_sample(self):
        pairs = sample_vector_pairs(4, 20, seed=1, compatible=True)
        assert len(pairs) == 20
        for alpha, theta in pairs:
            ok, _ = check_compatible(alpha, theta)
            assert ok
            assert all(f.denominator <= 12 for f in alpha.alpha + theta.theta)

    def test_incompatible_sample(self):
        pairs = sample_vector_pairs(4, 20, seed=2, compatible=False)
        for alpha, theta in pairs:
            ok, idx = check_compatible(alpha, theta)
            assert not ok and idx is not None

    def test_seed_determinism(self):
        a = sample_vector_pairs(3, 5, seed=9, compatible=True)
        b = sample_vector_pairs(3, 5, seed=9, compatible=True)
        assert a == b

    def test_draw_budget(self):
        # compatible pairs are rarer than 1 in 10^4 from m = 12 on
        start = time.monotonic()
        with pytest.raises(TooLarge):
            sample_vector_pairs(14, 1, seed=0, compatible=True)
        assert time.monotonic() - start < 10
        assert len(sample_vector_pairs(14, 3, seed=0, compatible=False)) == 3

    def test_no_incompatible_pair_at_two_alternatives(self):
        # every pair is compatible at m = 2; rejection sampling used to spin
        with pytest.raises(VotingError):
            sample_vector_pairs(2, 1, 0, compatible=False)


class TestFalsify:
    def test_unknown_axiom(self):
        with pytest.raises(UnsupportedAxiom, match="choose from robustness"):
            falsify(fixture("constant", 2), "transitivity", SearchBounds())

    def test_endpoint_median_clean_sweep(self):
        f = RuleFn.from_ptr(endpoint_median_rule(3))
        bounds = SearchBounds(n_max=3, pair_budget=4, lambda_max=100)
        for axiom in AXIOM_TAGS:
            if axiom == "weak-efficiency":
                continue  # holds too, checked in its own test
            campaign = falsify(f, axiom, bounds)
            assert campaign.violation is None, axiom
            assert campaign.undetermined == 0, axiom

    def test_weak_efficiency_clean_for_flat_thresholds(self):
        f = RuleFn.from_ptr(endpoint_median_rule(3))
        campaign = falsify(f, "weak-efficiency", SearchBounds(n_max=4))
        assert campaign.violation is None

    def test_deterministic_first_violation(self):
        f = fixture("constant", 3, {"winner": 2})
        a = falsify(f, "unanimity", SearchBounds(n_max=3))
        b = falsify(f, "unanimity", SearchBounds(n_max=3))
        assert a.violation is not None
        assert a.violation.to_json() == b.violation.to_json()

    def test_violation_replays(self):
        f = fixture("log-parity", 3)
        campaign = falsify(f, "reinforcement", SearchBounds(n_max=3, pair_budget=4))
        assert campaign.violation is not None
        assert replay_violation(f, campaign.violation.to_json())


def _skewed_weights(m=3):
    # alpha = (3/4, 1/4, 1/4) fails the compatibility test at index 1
    return RuleFn.from_ptr(
        PositionThresholdRule.make_unchecked(
            WeightVector(m, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))),
            ThresholdVector.constant(m, HALF),
        )
    )


def _low_first_weight(m=3):
    # compatible, with alpha_1 < 1/2 <= alpha_2 and alpha_{m-1} = 1
    return RuleFn.from_ptr(
        PositionThresholdRule.make(
            WeightVector(m, (Fraction(1, 4), Fraction(1), Fraction(1))),
            ThresholdVector.constant(m, HALF),
        )
    )


# a rule known to violate each axiom except continuity, whose checker
# never reports a violation
VIOLATORS = {
    "robustness": _skewed_weights,
    "strategyproofness": _skewed_weights,
    "strong-uncompromisingness": _skewed_weights,
    "unanimity": lambda: fixture("constant", 3),
    "majority-criterion": lambda: fixture("constant", 3),
    "weak-efficiency": lambda: fixture("constant", 3),
    "reinforcement": lambda: fixture("log-parity", 3),
    "anonymity": lambda: fixture("even-voter-doubled", 3),
    "shift-symmetry": _low_first_weight,
    "strong-unanimity": _low_first_weight,
}


class TestAxiomRegistry:
    BOUNDS = SearchBounds(n_max=3, pair_budget=3, lambda_max=10)

    def test_violators_cover_the_registry(self):
        assert set(VIOLATORS) == set(AXIOM_TAGS) - {"continuity"}

    @pytest.mark.parametrize("axiom", sorted(VIOLATORS))
    def test_violation_round_trips(self, axiom):
        f = VIOLATORS[axiom]()
        campaign = falsify(f, axiom, self.BOUNDS)
        assert campaign.violation is not None
        witness = json.loads(json.dumps(campaign.violation.to_json()))
        assert witness["axiom"] == axiom
        assert replay_violation(f, witness)
        assert not replay_violation(RuleFn.from_ptr(endpoint_median_rule(3)), witness)

    def test_continuity_never_reports_a_violation(self):
        undetermined = 0
        for f in [fixture(tag, 3) for tag in FIXTURE_TAGS] + [_skewed_weights()]:
            campaign = falsify(f, "continuity", self.BOUNDS)
            assert campaign.violation is None, f.name
            undetermined += campaign.undetermined
        assert undetermined > 0  # the strict-threshold fixture is caught


class TestFixtures:
    def test_all_tags_construct(self):
        for tag in FIXTURE_TAGS:
            f = fixture(tag, 3)
            assert 1 <= f(Profile(3, {1: Interval(2, 2)})) <= 3

    def test_unknown_tag(self):
        with pytest.raises(Exception):
            fixture("nonexistent", 3)

    def test_scorecard_designated_failures(self):
        """Each counterexample rule fails exactly its designated axiom
        among the five characterization axioms (undetermined counts as a
        failure for the continuity fixture)."""
        designated = {
            "constant": "unanimity",
            "strict-threshold": "continuity",
            "log-parity": "reinforcement",
            "even-voter-doubled": "anonymity",
            "profile-dependent-alpha": "reinforcement",
        }
        axioms = ("robustness", "reinforcement", "unanimity", "anonymity", "continuity")
        bounds = SearchBounds(n_max=4, pair_budget=4, lambda_max=60)
        for tag, bad in designated.items():
            f = fixture(tag, 3)
            for axiom in axioms:
                campaign = falsify(f, axiom, bounds)
                failed = campaign.violation is not None or campaign.undetermined > 0
                assert failed == (axiom == bad), (tag, axiom)

    def test_profile_dependent_matches_definition(self):
        # one of four voters excludes x_1: alpha_1 becomes 3/8, so the
        # two straddling voters contribute 3/4 < the 2 required
        f = fixture("profile-dependent-alpha", 2)
        p = Profile(
            2,
            {1: Interval(1, 2), 2: Interval(1, 2), 3: Interval(1, 1), 4: Interval(2, 2)},
        )
        assert f(p) == 2


class TestTheorem2Witness:
    def test_endpoint_median_has_none(self):
        for m in (2, 3, 4):
            assert theorem2_uniqueness_witness(endpoint_median_rule(m)) is None

    def test_theta_deviation_yields_majority_witness(self):
        rule = PositionThresholdRule.make_unchecked(
            WeightVector.constant(3, HALF),
            ThresholdVector(3, (HALF, Fraction(1, 3), Fraction(1, 3))),
        )
        result = theorem2_uniqueness_witness(rule)
        assert result is not None
        profile, axiom, violation = result
        assert axiom == "majority-criterion"
        assert check_majority_criterion(RuleFn.from_ptr(rule), profile).status == "violation"

    def test_majority_witness_bloc_sizes(self):
        # theta_1 = 1/3: smallest split strictly between 1/3 and 1/2 is
        # 2 of 5, so 2 voters on {x_1} face a 3-voter majority on {x_3}
        rule = PositionThresholdRule.make_unchecked(
            WeightVector.constant(3, HALF),
            ThresholdVector.constant(3, Fraction(1, 3)),
        )
        profile, axiom, _ = theorem2_uniqueness_witness(rule)
        assert axiom == "majority-criterion"
        ballots = sorted(
            (iv.left, iv.right) for iv in profile.voters.values()
        )
        assert ballots == [(1, 1), (1, 1), (3, 3), (3, 3), (3, 3)]

    def test_strong_unanimity_witness_bloc_size(self):
        # alpha_1 = 1/4: smallest t with t/4 > 1 is 5, so 5 straddling
        # voters plus the lone {x_1} voter
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(3, (Fraction(1, 4), HALF, HALF)),
            ThresholdVector.constant(3, HALF),
        )
        profile, axiom, _ = theorem2_uniqueness_witness(rule)
        assert axiom == "strong-unanimity"
        ballots = sorted(
            (iv.left, iv.right) for iv in profile.voters.values()
        )
        assert ballots == [(1, 1)] + [(1, 2)] * 5

    def test_alpha_deviation_yields_strong_unanimity_witness(self):
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(3, (Fraction(3, 4), HALF, HALF)),
            ThresholdVector.constant(3, HALF),
        )
        result = theorem2_uniqueness_witness(rule)
        assert result is not None
        profile, axiom, violation = result
        assert axiom == "strong-unanimity"
        assert check_strong_unanimity(RuleFn.from_ptr(rule), profile).status == "violation"

    def test_witness_replays(self):
        rule = PositionThresholdRule.make_unchecked(
            WeightVector.constant(4, HALF),
            ThresholdVector.constant(4, Fraction(2, 3)),
        )
        result = theorem2_uniqueness_witness(rule)
        assert result is not None
        _, _, violation = result
        assert replay_violation(RuleFn.from_ptr(rule), violation.to_json())


class TestFixedRuleInfeasibility:
    def test_triple_winners(self):
        pa, pb, pc = remark_scaled_triple()
        f = fixture("profile-dependent-alpha", 2)
        assert (f(pa), f(pb), f(pc)) == (1, 1, 2)

    def test_inequality_chain(self):
        assert fixed_rule_infeasible_for_triple((1, 1, 2))
        assert not fixed_rule_infeasible_for_triple((1, 1, 1))

    def test_no_grid_rule_fits(self):
        pa, pb, pc = remark_scaled_triple()
        f = fixture("profile-dependent-alpha", 2)
        observations = [(pa, f(pa)), (pb, f(pb)), (pc, f(pc))]
        assert fit_fixed_rule_to_winners(2, observations) is None

    def test_grid_search_can_fit_consistent_winners(self):
        pa, pb, pc = remark_scaled_triple()
        g = RuleFn.from_ptr(endpoint_median_rule(2))
        observations = [(pa, g(pa)), (pb, g(pb)), (pc, g(pc))]
        assert fit_fixed_rule_to_winners(2, observations) is not None
