"""Acceptance suite: one test per headline claim, one status line each.

Every test prints "[criterion-N] PASS ..." on success; a failing
assertion leaves the criterion marked as failed in the pytest summary.
All comparisons are exact rational comparisons, zero tolerance.
"""

import random
from fractions import Fraction

import pytest

from intervalvote.core import Interval, Profile, canonical_intervals
from intervalvote.rules import (
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    collective_position,
    collective_position_decomposed,
    endpoint_median_oracle,
    endpoint_median_rule,
    phantom_median_winner,
    ptr_winner,
)
from intervalvote.axioms import (
    PASS,
    SATISFIED,
    RuleFn,
    check_majority_criterion,
    check_robustness,
    check_strategyproofness,
    check_strong_unanimity,
    check_strong_uncompromisingness,
    replay_violation,
)
from intervalvote.search import (
    SearchBounds,
    enumerate_profiles,
    falsify,
    fixture,
    incompatibility_witness,
    inconsistent_alternative,
    random_profile,
    remark_scaled_triple,
    sample_vector_pairs,
    theorem2_uniqueness_witness,
)

HALF = Fraction(1, 2)


def report(n, message):
    print(f"[criterion-{n}] PASS: {message}", flush=True)


def assert_has_evidence(campaign, *context):
    """A clean campaign must rest on at least one non-vacuous instance."""
    assert campaign.by_status[PASS] + campaign.by_status[SATISFIED] > 0, context


def identified_profiles(m, n_max):
    for n in range(1, n_max + 1):
        for anon in enumerate_profiles(m, n):
            yield anon.to_profile()


def test_criterion_1_worked_winner_example():
    """Three-voter m=4 profile under the two reference weight vectors."""
    p = Profile(4, {1: Interval(1, 2), 2: Interval(1, 3), 3: Interval(2, 4)})
    f1 = PositionThresholdRule.make(
        WeightVector.constant(4, 1), ThresholdVector.constant(4, HALF)
    )
    f2 = endpoint_median_rule(4)
    assert collective_position(f1.alpha, p, 1) == Fraction(2)
    assert f1.winner(p) == 1
    assert collective_position(f2.alpha, p, 1) == Fraction(1)
    assert collective_position(f2.alpha, p, 2) == Fraction(2)
    assert f2.winner(p) == 2
    report(1, "reference profile elects x_1 / x_2 with exact positions 2 and 1,2")


def test_criterion_2_compatible_pairs_are_robust():
    """200 sampled compatible vector pairs, exhaustive robustness m=4 n<=3."""
    pairs = sample_vector_pairs(4, 200, seed=11, compatible=True)
    profiles = list(identified_profiles(4, 3))
    assert len(profiles) == 285
    checked = 0
    for alpha, theta in pairs:
        f = RuleFn.from_ptr(PositionThresholdRule.make(alpha, theta))
        for p in profiles:
            assert check_robustness(f, p).status == PASS, (alpha, theta, p)
            checked += 1
    report(2, f"200 compatible pairs, {checked} robustness sweeps, 0 violations")


def test_criterion_3_incompatible_pairs_yield_witnesses():
    """50 sampled incompatible pairs each produce a confirmed violation."""
    pairs = sample_vector_pairs(4, 50, seed=7, compatible=False)
    for alpha, theta in pairs:
        found = incompatibility_witness(alpha, theta)
        assert found.axiom == "robustness"
        f = RuleFn.from_ptr(PositionThresholdRule.make_unchecked(alpha, theta))
        assert replay_violation(f, found.to_json()), (alpha, theta)
    report(3, "50 incompatible pairs, 50 confirmed robustness violations")


def test_criterion_4_characterization_axioms_hold():
    """f_EM plus 5 sampled compatible rules pass all five axioms at m=3."""
    rules = [RuleFn.from_ptr(endpoint_median_rule(3), name="endpoint-median")]
    for i, (alpha, theta) in enumerate(
        sample_vector_pairs(3, 5, seed=23, compatible=True)
    ):
        rules.append(
            RuleFn.from_ptr(PositionThresholdRule.make(alpha, theta), name=f"ptr-{i}")
        )
    bounds = SearchBounds(n_max=4, pair_budget=5, lambda_max=1000)
    axioms = ("robustness", "reinforcement", "unanimity", "anonymity", "continuity")
    for f in rules:
        for axiom in axioms:
            campaign = falsify(f, axiom, bounds)
            assert campaign.violation is None, (f.name, axiom)
            assert campaign.undetermined == 0, (f.name, axiom)
            assert_has_evidence(campaign, f.name, axiom)
    report(4, "6 rules x 5 axioms, zero violations and zero undetermined")


def test_criterion_5_robust_rules_are_strategyproof():
    """Exhaustive m=3 n<=3 manipulation and uncompromisingness sweep."""
    f = RuleFn.from_ptr(endpoint_median_rule(3))
    intervals = canonical_intervals(3)
    manip_checked = unc_checked = 0
    for p in identified_profiles(3, 3):
        for voter in sorted(p.voters):
            assert check_strategyproofness(f, p, voter).status == PASS, (p, voter)
            manip_checked += 1
            for new_iv in intervals:
                result = check_strong_uncompromisingness(f, p, voter, new_iv)
                assert result.status != "violation", (p, voter, new_iv)
                unc_checked += 1
    report(
        5,
        f"{manip_checked} manipulation and {unc_checked} uncompromisingness "
        "instances, zero violations",
    )


def test_criterion_6_majority_and_strong_unanimity():
    """f_EM passes both axioms exhaustively for m<=4, n<=4."""
    checked = 0
    for m in (2, 3, 4):
        f = RuleFn.from_ptr(endpoint_median_rule(m))
        for p in identified_profiles(m, 4):
            assert check_majority_criterion(f, p).status != "violation", p
            assert check_strong_unanimity(f, p).status != "violation", p
            checked += 1
    report(6, f"{checked} profiles, zero majority/strong-unanimity violations")


def _theta_deviation(m, i, d):
    """Single-coordinate threshold deviation kept non-increasing by
    propagating the deviated value toward the affected end."""
    theta = [HALF] * m
    if d > HALF:
        for j in range(i):
            theta[j] = d
    else:
        for j in range(i - 1, m):
            theta[j] = d
    return ThresholdVector(m, tuple(theta))


def test_criterion_7_uniqueness_witness_grid():
    """Every deviation from the all-1/2 vectors yields a confirmed witness."""
    produced = 0
    for m in (3, 4):
        for i in range(1, m):
            for d in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
                rule = PositionThresholdRule.make_unchecked(
                    WeightVector.constant(m, HALF), _theta_deviation(m, i, d)
                )
                violation = theorem2_uniqueness_witness(rule)
                assert violation.axiom == "majority-criterion", (m, i, d, "theta")
                assert replay_violation(RuleFn.from_ptr(rule), violation.to_json())
                produced += 1
            for d in (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)):
                alpha = [HALF] * m
                alpha[i - 1] = d
                rule = PositionThresholdRule.make_unchecked(
                    WeightVector(m, tuple(alpha)), ThresholdVector.constant(m, HALF)
                )
                violation = theorem2_uniqueness_witness(rule)
                assert violation.axiom == "strong-unanimity", (m, i, d, "alpha")
                assert replay_violation(RuleFn.from_ptr(rule), violation.to_json())
                produced += 1
    report(7, f"{produced}/{produced} grid deviations produced confirmed witnesses")


def test_criterion_8_independence_scorecard():
    """Each counterexample rule fails exactly its designated axiom; no
    fixed vector pair reproduces the profile-dependent rule's winners on
    its scaled-down three-profile instance, nor at m = 3 on every profile
    with at most four voters."""
    designated = {
        "constant": "unanimity",
        "strict-threshold": "continuity",
        "log-parity": "reinforcement",
        "even-voter-doubled": "anonymity",
    }
    axioms = ("robustness", "reinforcement", "unanimity", "anonymity", "continuity")
    bounds = SearchBounds(n_max=4, pair_budget=5, lambda_max=60)
    for tag, bad in designated.items():
        f = fixture(tag, 3)
        for axiom in axioms:
            campaign = falsify(f, axiom, bounds)
            failed = campaign.violation is not None or campaign.undetermined > 0
            assert failed == (axiom == bad), (tag, axiom)
            if not failed:
                assert_has_evidence(campaign, tag, axiom)

    g = fixture("profile-dependent-alpha", 3)
    for axiom in ("robustness", "anonymity", "unanimity", "continuity"):
        campaign = falsify(g, axiom, bounds)
        assert campaign.violation is None and campaign.undetermined == 0, axiom
        assert_has_evidence(campaign, "profile-dependent-alpha", axiom)

    triple = remark_scaled_triple()
    g2 = fixture("profile-dependent-alpha", 2)
    winners = tuple(map(g2, triple))
    assert winners == (1, 1, 2)
    assert inconsistent_alternative(2, zip(triple, winners)) == 1
    profiles = list(identified_profiles(3, 4))
    assert inconsistent_alternative(3, [(p, g(p)) for p in profiles]) == 1
    report(
        8,
        "4 fixtures fail only their designated axiom; no fixed vector pair "
        "reproduces the profile-dependent rule at x_1 (the triple at m=2, "
        f"{len(profiles)} profiles at m=3)",
    )


def test_criterion_9_oracle_equivalence():
    """Endpoint-median winners match the independent multiset oracle."""
    checked = 0
    for m in (2, 3, 4):
        rule = endpoint_median_rule(m)
        for p in identified_profiles(m, 4):
            assert rule.winner(p) == endpoint_median_oracle(p), p
            checked += 1
    rng = random.Random(90210)
    for _ in range(10000):
        m = rng.randint(2, 8)
        n = rng.randint(1, 20)
        p = random_profile(m, n, seed=rng.randrange(2**31))
        assert endpoint_median_rule(m).winner(p) == endpoint_median_oracle(p), p
        checked += 1
    report(9, f"{checked} profiles (exhaustive + 10000 random), zero disagreements")


def test_criterion_10_decomposition_invariance():
    """Weighted-singleton decomposition reproduces collective positions
    exactly; on singleton ballots every rule reduces to the peak-count
    rule defined by its thresholds."""
    rng = random.Random(31337)
    for _ in range(10000):
        m = rng.randint(2, 6)
        alpha = WeightVector(
            m,
            tuple(
                Fraction(rng.randint(0, 12), 12) for _ in range(m)
            ),
        )
        p = random_profile(m, rng.randint(1, 8), seed=rng.randrange(2**31))
        k = rng.randint(1, m)
        assert collective_position_decomposed(alpha, p, k) == collective_position(
            alpha, p, k
        ), (alpha, p, k)

    import itertools

    checked = 0
    rules = []
    for m in (2, 3, 4):
        rules.append(endpoint_median_rule(m))
        for alpha, theta in sample_vector_pairs(m, 3, seed=77, compatible=True):
            rules.append(PositionThresholdRule.make(alpha, theta))
    for rule in rules:
        m = rule.m
        for n in range(1, 5):
            for peaks in itertools.combinations_with_replacement(range(1, m + 1), n):
                p = Profile(
                    m, {v: Interval(j, j) for v, j in enumerate(peaks, start=1)}
                )
                assert ptr_winner(rule, p) == phantom_median_winner(rule.theta, p)
                checked += 1
    report(
        10,
        f"10000 decomposition triples exact; {checked} singleton profiles "
        "match the peak-count rule",
    )
