"""Enumeration, sampling, falsification campaigns, witness generators."""

import collections
import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intervalvote.core import (
    AnonProfile,
    Interval,
    Profile,
    VotingError,
    anonymize,
    canonical_intervals,
    interval_table,
)
from intervalvote.rules import (
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    check_compatible,
    endpoint_median_rule,
)
import intervalvote.rules as rules
from intervalvote.axioms import (
    PASS,
    PASSED,
    VACUOUS,
    VACUOUS_PASS,
    VIOLATION,
    RuleFn,
    check_anonymity,
    check_majority_criterion,
    check_strong_unanimity,
    replay_violation,
)
import intervalvote.search as search
from intervalvote.search import (
    AXIOM_TAGS,
    AXIOMS,
    FIXTURE_TAGS,
    WITNESS_MAX_DENOMINATOR,
    SearchBounds,
    TooLarge,
    UnsupportedAxiom,
    _disjoint_pairs,
    _fraction_strictly_between,
    _identified_profiles,
    enumerate_profiles,
    falsify,
    fixture,
    inconsistent_alternative,
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

    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "100")
        with pytest.raises(TooLarge):
            list(enumerate_profiles(8, 20))

    @staticmethod
    def _reference_counts(m, n):
        """Count vectors built one index combination at a time, and the
        profiles they expand to below: the reference order and voter ids
        for the enumerators."""
        q = m * (m + 1) // 2
        for combo in itertools.combinations_with_replacement(range(q), n):
            counts = [0] * q
            for idx in combo:
                counts[idx] += 1
            yield tuple(counts)

    def _reference_profiles(self, m, n, shift=0):
        for counts in self._reference_counts(m, n):
            p = AnonProfile(m, counts).to_profile()
            yield Profile(m, {v + shift: iv for v, iv in p.voters.items()})

    @staticmethod
    def _ordered(p):
        return list(p.voters.items())  # ids and their order, not just the mapping

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_enumeration_order_is_pinned(self, m):
        for n in (1, 2, 3):
            got = [p.counts for p in enumerate_profiles(m, n)]
            assert got == list(self._reference_counts(m, n))
        expected = [
            self._ordered(p) for n in (1, 2, 3) for p in self._reference_profiles(m, n)
        ]
        assert [self._ordered(p) for p in _identified_profiles(m, 3)] == expected
        expected = [
            (self._ordered(p1), self._ordered(p2))
            for n1 in range(1, 4)
            for n2 in range(1, 5 - n1)
            for p1 in self._reference_profiles(m, n1)
            for p2 in self._reference_profiles(m, n2, shift=n1)
        ]
        got = [(self._ordered(p1), self._ordered(p2)) for p1, p2 in _disjoint_pairs(m, 4)]
        assert got == expected

    @pytest.mark.parametrize(
        "m, total_max", [(3, b) for b in range(1, 5)] + [(4, b) for b in range(1, 4)]
    )
    def test_shared_pair_stream_matches_nested_regeneration(self, m, total_max):
        nested = (
            (p1, p2)
            for n1 in range(1, total_max)
            for n2 in range(1, total_max - n1 + 1)
            for p1 in search._profiles(m, n1)
            for p2 in search._profiles(m, n2, first_id=n1 + 1)
        )
        got = [(self._ordered(p1), self._ordered(p2)) for p1, p2 in _disjoint_pairs(m, total_max)]
        assert got == [(self._ordered(p1), self._ordered(p2)) for p1, p2 in nested]

    @pytest.mark.parametrize("m, n_max", [(3, 4), (4, 3)])
    def test_shared_renamings_match_per_profile_renamings(self, m, n_max):
        naive = [
            (self._ordered(p), dict(zip(sorted(p.voters), perm)))
            for p in _identified_profiles(m, n_max)
            for perm in itertools.permutations(sorted(p.voters))
        ]
        # every mapping is compared after the whole stream is out and has
        # been checked, so one that its producer or the checker changes
        # after it was yielded shows
        got = list(search._renamings(m, n_max))
        f = fixture("constant", m)
        for p, mapping in got:
            check_anonymity(f, p, mapping)
        assert [(self._ordered(p), mapping) for p, mapping in got] == naive

    @pytest.mark.parametrize("m, n_max", [(3, 4), (4, 3), (2, 11)])
    def test_shared_voter_order_matches_per_profile_order(self, m, n_max):
        # from n = 10 on, the str order puts voter 10 before voter 2
        naive = [
            (self._ordered(p), voter)
            for p in _identified_profiles(m, n_max)
            for voter in sorted(p.voters, key=str)
        ]
        assert [(self._ordered(p), v) for p, v in search._voters(m, n_max)] == naive
        changes = search._voters(m, n_max, interval_table(m))
        assert [(self._ordered(p), v, iv) for p, v, iv in changes] == [
            (ordered, v, iv) for ordered, v in naive for iv in interval_table(m)
        ]

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

    @pytest.mark.parametrize("axiom", ["reinforcement", "continuity"])
    def test_status_counts(self, axiom):
        f = RuleFn.from_ptr(endpoint_median_rule(3))
        bounds = SearchBounds(n_max=3, pair_budget=4, lambda_max=100)
        report = falsify(f, axiom, bounds).to_json()
        tally = collections.Counter(r.status for r in AXIOMS[axiom](f, bounds))
        statuses = ("pass", "vacuous", "satisfied", "undetermined", "violation")
        assert report["by_status"] == {status: tally[status] for status in statuses}
        assert sum(report["by_status"].values()) == report["instances_checked"]

    @pytest.mark.parametrize("make", [
        lambda: RuleFn.from_ptr(endpoint_median_rule(3)),
        lambda: fixture("strict-threshold", 3),
        lambda: fixture("log-parity", 3),
    ])
    def test_continuity_lambda_histogram(self, make):
        f = make()
        bounds = SearchBounds(n_max=3, pair_budget=4, lambda_max=10)
        report = falsify(f, "continuity", bounds).to_json()
        needed = collections.Counter(
            str(r.detail["lambda"])
            for r in AXIOMS["continuity"](f, bounds)
            if r.status == "satisfied"
        )
        assert report["lambda_histogram"] == dict(needed)
        assert sum(report["lambda_histogram"].values()) == report["by_status"]["satisfied"]
        assert report["lambda_histogram"]["0"] > 0
        assert "lambda_histogram" not in falsify(f, "reinforcement", bounds).to_json()

    def test_strategyproofness_has_no_m_cap(self):
        campaign = falsify(
            RuleFn.from_ptr(endpoint_median_rule(6)), "strategyproofness",
            SearchBounds(n_max=2),
        )
        assert campaign.violation is None and campaign.checked == 483
        skewed = RuleFn.from_ptr(
            PositionThresholdRule.make_unchecked(
                WeightVector(6, (Fraction(3, 4),) + (Fraction(1, 4),) * 5),
                ThresholdVector.constant(6, HALF),
            )
        )
        campaign = falsify(skewed, "strategyproofness", SearchBounds(n_max=3))
        assert campaign.violation is not None
        witness = json.loads(json.dumps(campaign.violation.to_json()))
        assert replay_violation(skewed, witness)
        assert not replay_violation(RuleFn.from_ptr(endpoint_median_rule(6)), witness)


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


# the serialized first violation of each VIOLATORS campaign at the
# registry bounds, byte for byte: witness fields, their order and values
FIRST_VIOLATIONS = {
    "anonymity": '{"axiom": "anonymity", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [1, 1]}, {"id": 2, "interval": [2, 2]}]}, "permutation": [[1, 2], [2, 1]]}, "observed": 1, "required": 2}',
    "majority-criterion": '{"axiom": "majority-criterion", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [2, 2]}]}}, "observed": 1, "required": 2}',
    "reinforcement": '{"axiom": "reinforcement", "witness": {"profile1": {"m": 3, "voters": [{"id": 1, "interval": [1, 2]}]}, "profile2": {"m": 3, "voters": [{"id": 2, "interval": [1, 2]}]}}, "observed": 1, "required": 2}',
    "robustness": '{"axiom": "robustness", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [1, 3]}]}, "voter": 1, "side": "left"}, "observed": {"before": 1, "after": 3}, "required": "winner unchanged, or moved one step off the deleted endpoint"}',
    "shift-symmetry": '{"axiom": "shift-symmetry", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [1, 2]}]}}, "observed": 2, "required": 3}',
    "strategyproofness": '{"axiom": "strategyproofness", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [1, 3]}, {"id": 2, "interval": [2, 2]}, {"id": 3, "interval": [3, 3]}]}, "voter": 2, "preference": [[2], [1], [3]], "report": [1, 1]}, "observed": {"honest": 3, "manipulated": 1}, "required": "honest outcome weakly preferred"}',
    "strong-unanimity": '{"axiom": "strong-unanimity", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [1, 3]}, {"id": 2, "interval": [3, 3]}]}}, "observed": 2, "required": "winner in [3, 3]"}',
    "strong-uncompromisingness": '{"axiom": "strong-uncompromisingness", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [2, 3]}]}, "voter": 1, "new_interval": [1, 3], "condition": "winner-at-right-endpoint"}, "observed": 1, "required": 3}',
    "unanimity": '{"axiom": "unanimity", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [2, 2]}]}}, "observed": 1, "required": 2}',
    "weak-efficiency": '{"axiom": "weak-efficiency", "witness": {"profile": {"m": 3, "voters": [{"id": 1, "interval": [2, 2]}]}}, "observed": 1, "required": "winner reported by at least one voter"}',
}


class TestAxiomRegistry:
    BOUNDS = SearchBounds(n_max=3, pair_budget=3, lambda_max=10)

    def test_first_violations_are_pinned(self):
        assert set(FIRST_VIOLATIONS) == set(VIOLATORS)
        for axiom, make in VIOLATORS.items():
            campaign = falsify(make(), axiom, self.BOUNDS)
            assert json.dumps(campaign.violation.to_json()) == FIRST_VIOLATIONS[axiom]

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


def reference_instances(axiom, m, bounds):
    """The checker arguments, after the rule, of every instance of
    `axiom`'s campaign, by nested loops over test-local profiles given
    as their (voter, interval) items."""

    def profiles(n, first_id=1):
        for ballots in itertools.combinations_with_replacement(canonical_intervals(m), n):
            yield list(enumerate(ballots, first_id))

    singles = [q for n in range(1, bounds.n_max + 1) for q in profiles(n)]
    total = bounds.pair_budget
    pairs = [
        (q1, q2)
        for n1 in range(1, total)
        for n2 in range(1, total - n1 + 1)
        for q1 in profiles(n1)
        for q2 in profiles(n2, first_id=n1 + 1)
    ]

    def voters(q):
        return sorted((v for v, _ in q), key=str)

    return {
        "robustness": [(q,) for q in singles],
        "reinforcement": pairs,
        "unanimity": [(j, bounds.n_max) for j in range(1, m + 1)],
        "anonymity": [
            (q, dict(zip(voters(q), perm)))
            for q in singles
            for perm in itertools.permutations(voters(q))
        ],
        "continuity": pairs,
        "strategyproofness": [(q, v) for q in singles for v in voters(q)],
        "strong-uncompromisingness": [
            (q, v, iv) for q in singles for v in voters(q) for iv in canonical_intervals(m)
        ],
        "majority-criterion": [(q,) for q in singles],
        "strong-unanimity": [(q,) for q in singles],
        "weak-efficiency": [(q,) for q in singles],
        "shift-symmetry": [(q,) for q in singles],
    }[axiom]


class TestInstanceStreams:
    @pytest.mark.parametrize(
        "m, n_max, pair_budget", [(2, 3, 4), (3, 1, 2), (3, 3, 4), (4, 2, 3), (4, 3, 4)]
    )
    def test_checker_arguments_match_nested_loops(self, monkeypatch, m, n_max, pair_budget):
        """Every campaign hands its checker, patched over `search`'s
        attribute before the campaign starts, the rule and then the
        reference's arguments, in the reference's order."""
        bounds = SearchBounds(n_max=n_max, pair_budget=pair_budget, lambda_max=7)
        seen = []

        def recording(name):
            def checker(f, *args, **kwargs):
                args = tuple(list(a.voters.items()) if isinstance(a, Profile) else a for a in args)
                seen.append((name, f, args, kwargs))
                return PASSED

            return checker

        for name in vars(search):
            if name.startswith("check_") and name != "check_compatible":
                monkeypatch.setattr(search, name, recording(name))
        f = fixture("constant", m)
        for axiom in AXIOM_TAGS:
            seen.clear()
            campaign = falsify(f, axiom, bounds)
            expected = reference_instances(axiom, m, bounds)
            assert campaign.checked == len(seen) == len(expected), axiom
            checker = "check_" + {"continuity": "right_biased_continuity"}.get(axiom, axiom)
            assert {(name, g) for name, g, _, _ in seen} == {(checker.replace("-", "_"), f)}
            kwargs = {"lambda_max": 7} if axiom == "continuity" else {}
            assert [(args, kw) for _, _, args, kw in seen] == [
                (args, kwargs) for args in expected
            ], axiom


class TestSharedResults:
    """Payload-free pass and vacuous results are shared module constants;
    no campaign or replay may change them."""

    BOUNDS = SearchBounds(n_max=2, pair_budget=3, lambda_max=10)

    def test_campaigns_and_replays_leave_them_intact(self):
        shared = {id(PASSED), id(VACUOUS_PASS)}
        candidates = [RuleFn.from_ptr(endpoint_median_rule(3))]
        candidates += [fixture(tag, 3) for tag in FIXTURE_TAGS]
        replayed = 0
        for f in candidates:
            for axiom in AXIOM_TAGS:
                first = None
                for result in AXIOMS[axiom](f, self.BOUNDS):
                    if result.status in (PASS, VACUOUS):
                        assert id(result) in shared, (f.name, axiom)
                    elif result.status == VIOLATION and first is None:
                        first = result.violation
                if first is not None:  # the campaign's violation
                    witness = json.loads(json.dumps(first.to_json()))
                    assert replay_violation(f, witness), (f.name, axiom)
                    replayed += 1
        assert replayed > 0
        assert (PASSED.status, dict(PASSED.detail)) == (PASS, {})
        assert (VACUOUS_PASS.status, dict(VACUOUS_PASS.detail)) == (VACUOUS, {})
        assert PASSED.detail is VACUOUS_PASS.detail

    def test_detail_is_read_only(self):
        with pytest.raises(TypeError):
            PASSED.detail["condition"] = "winner-strictly-inside"


# Winner-kernel and checker calls of one small campaign per axiom at
# m = 3 (n_max 2, pair budget 3, lambda_max 10): (ptr_winner calls,
# checker calls), and the ptr_winner calls of replaying the violation
# each campaign reports.  A change in any is a change in what the
# benchmark reference pins, and must be made on purpose.
COVERAGE_BOUNDS = SearchBounds(n_max=2, pair_budget=3, lambda_max=10)
COVERAGE = {
    "endpoint-median": {
        "robustness": (75, 27),
        "reinforcement": (686, 288),
        "unanimity": (6, 3),
        "anonymity": (96, 48),
        "continuity": (746, 288),
        "strategyproofness": (288, 48),
        "strong-uncompromisingness": (374, 288),
        "majority-criterion": (6, 27),
        "strong-unanimity": (22, 27),
        "weak-efficiency": (27, 27),
        "shift-symmetry": (18, 27),
    },
    "skewed-weights": {
        "robustness": (7, 3),
        "reinforcement": (678, 288),
        "unanimity": (6, 3),
        "anonymity": (96, 48),
        "continuity": (830, 288),
        "strategyproofness": (288, 48),
        "strong-uncompromisingness": (34, 27),
        "majority-criterion": (6, 27),
        "strong-unanimity": (22, 27),
        "weak-efficiency": (27, 27),
        "shift-symmetry": (4, 2),
    },
}
# Of the ptr_winner calls in COVERAGE, those on a profile that already
# holds its endpoint counts: it was evaluated before (the anonymity and
# pair campaigns meet the same profile objects again), or it was derived
# from an evaluated profile by one voter's change (robustness,
# strategyproofness, strong uncompromisingness) or by the anonymity
# renaming.  A derivation that drops the counts, or a renamed profile
# evaluated before its original, lowers these.
KNOWN_COUNTS = {
    "endpoint-median": {
        "robustness": 48,
        "reinforcement": 510,
        "unanimity": 0,
        "anonymity": 69,
        "continuity": 510,
        "strategyproofness": 261,
        "strong-uncompromisingness": 347,
        "majority-criterion": 0,
        "strong-unanimity": 0,
        "weak-efficiency": 0,
        "shift-symmetry": 0,
    },
    "skewed-weights": {
        "robustness": 4,
        "reinforcement": 510,
        "unanimity": 0,
        "anonymity": 69,
        "continuity": 510,
        "strategyproofness": 261,
        "strong-uncompromisingness": 29,
        "majority-criterion": 0,
        "strong-unanimity": 0,
        "weak-efficiency": 0,
        "shift-symmetry": 0,
    },
}
REPLAY_COVERAGE = {
    "endpoint-median": {},
    "skewed-weights": {"robustness": 3, "strong-uncompromisingness": 2, "shift-symmetry": 2},
}


# The five fixtures x the five characterization axioms at the same
# bounds: (ptr_winner calls, checker calls, the campaign's nonzero
# `by_status` counts).  No fixture evaluates through the kernel.
CHARACTERIZATION_AXIOMS = ("robustness", "reinforcement", "unanimity", "anonymity", "continuity")
FIXTURE_COVERAGE = {
    "constant": {
        "robustness": (0, 27, {"pass": 27}),
        "reinforcement": (0, 288, {"pass": 288}),
        "unanimity": (0, 2, {"pass": 1, "violation": 1}),
        "anonymity": (0, 48, {"pass": 48}),
        "continuity": (0, 288, {"satisfied": 288}),
    },
    "strict-threshold": {
        "robustness": (0, 27, {"pass": 27}),
        "reinforcement": (0, 288, {"pass": 110, "vacuous": 178}),
        "unanimity": (0, 3, {"pass": 3}),
        "anonymity": (0, 48, {"pass": 48}),
        "continuity": (0, 288, {"satisfied": 232, "undetermined": 56}),
    },
    "log-parity": {
        "robustness": (0, 27, {"pass": 27}),
        "reinforcement": (0, 8, {"pass": 1, "vacuous": 6, "violation": 1}),
        "unanimity": (0, 3, {"pass": 3}),
        "anonymity": (0, 48, {"pass": 48}),
        "continuity": (0, 288, {"satisfied": 288}),
    },
    "even-voter-doubled": {
        "robustness": (0, 27, {"pass": 27}),
        "reinforcement": (0, 288, {"pass": 104, "vacuous": 184}),
        "unanimity": (0, 3, {"pass": 3}),
        "anonymity": (0, 14, {"pass": 13, "violation": 1}),
        "continuity": (0, 288, {"satisfied": 288}),
    },
    "profile-dependent-alpha": {
        "robustness": (0, 27, {"pass": 27}),
        "reinforcement": (0, 61, {"pass": 26, "vacuous": 34, "violation": 1}),
        "unanimity": (0, 3, {"pass": 3}),
        "anonymity": (0, 48, {"pass": 48}),
        "continuity": (0, 288, {"satisfied": 288}),
    },
}


# The fixture calls of the same campaigns, counted by wrapping each
# fixture's function: one per profile object the campaign evaluates,
# since a black-box rule keeps each profile's winner.  The pair
# campaigns evaluate each first and second profile once and each
# combination once; anonymity evaluates each profile once and each
# renaming once.  Calling the function again on a profile it has seen,
# or reusing a winner across distinct profile objects, changes these.
FIXTURE_EVALUATIONS = {
    "constant": {
        "robustness": 75, "reinforcement": 354, "unanimity": 3, "anonymity": 75,
        "continuity": 66,
    },
    "strict-threshold": {
        "robustness": 75, "reinforcement": 176, "unanimity": 6, "anonymity": 75,
        "continuity": 764,
    },
    "log-parity": {
        "robustness": 75, "reinforcement": 10, "unanimity": 6, "anonymity": 75,
        "continuity": 337,
    },
    "even-voter-doubled": {
        "robustness": 75, "reinforcement": 170, "unanimity": 6, "anonymity": 24,
        "continuity": 295,
    },
    "profile-dependent-alpha": {
        "robustness": 75, "reinforcement": 62, "unanimity": 6, "anonymity": 75,
        "continuity": 235,
    },
}


def _count_calls(monkeypatch) -> collections.Counter:
    """Count `ptr_winner` calls, those of them on a profile that already
    holds its endpoint counts ("known"), `rules.endpoint_histogram` calls
    and the checker calls of `search`'s axiom streams in the returned
    counter."""
    calls = collections.Counter()
    kernel = rules.ptr_winner

    def counting_kernel(rule, p):
        calls["ptr_winner"] += 1
        calls["known"] += p._histogram is not None
        return kernel(rule, p)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(rules, "ptr_winner", counting_kernel)
    histogram = counting("endpoint_histogram", rules.endpoint_histogram)
    monkeypatch.setattr(rules, "endpoint_histogram", histogram)
    checkers = [n for n in vars(search) if n.startswith("check_") and n != "check_compatible"]
    for checker in checkers:
        monkeypatch.setattr(search, checker, counting("checker", getattr(search, checker)))
    return calls


class TestCoverageGuard:
    @pytest.mark.parametrize(
        "name, make",
        [
            ("endpoint-median", lambda: RuleFn.from_ptr(endpoint_median_rule(3))),
            ("skewed-weights", _skewed_weights),
        ],
    )
    def test_call_counts_are_pinned(self, monkeypatch, name, make):
        calls = _count_calls(monkeypatch)
        f = make()
        seen, known, counted, replayed = {}, {}, {}, {}
        for axiom in AXIOM_TAGS:
            calls.clear()
            campaign = falsify(f, axiom, COVERAGE_BOUNDS)
            seen[axiom] = (calls["ptr_winner"], calls["checker"])
            known[axiom] = calls["known"]
            counted[axiom] = calls["endpoint_histogram"]
            if campaign.violation is not None:
                calls.clear()
                assert replay_violation(f, json.loads(json.dumps(campaign.violation.to_json())))
                replayed[axiom] = calls["ptr_winner"]
        assert seen == COVERAGE[name]
        assert known == KNOWN_COUNTS[name]
        # the kernel counts a profile's endpoints exactly when it finds
        # none kept, e.g. 75 - 48 = 27 times for endpoint-median robustness
        assert counted == {
            a: COVERAGE[name][a][0] - KNOWN_COUNTS[name][a] for a in AXIOM_TAGS
        }
        assert replayed == REPLAY_COVERAGE[name]

    def test_fixture_counts_are_pinned(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        seen = {}
        for tag in FIXTURE_TAGS:
            f = fixture(tag, 3)
            seen[tag] = {}
            for axiom in CHARACTERIZATION_AXIOMS:
                calls.clear()
                campaign = falsify(f, axiom, COVERAGE_BOUNDS)
                by_status = {k: v for k, v in campaign.by_status.items() if v}
                seen[tag][axiom] = (calls["ptr_winner"], calls["checker"], by_status)
        assert seen == FIXTURE_COVERAGE

    def test_fixture_evaluations_are_pinned(self):
        seen = {}
        for tag in FIXTURE_TAGS:
            seen[tag] = {}
            for axiom in CHARACTERIZATION_AXIOMS:
                f = fixture(tag, 3)
                m, fn = f.args
                calls = []
                counted = RuleFn(m, lambda p, fn=fn, calls=calls: calls.append(p) or fn(p))
                falsify(counted, axiom, COVERAGE_BOUNDS)
                seen[tag][axiom] = len(calls)
        assert seen == FIXTURE_EVALUATIONS


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

    def test_log_parity_exponent_is_exact(self):
        # float ceil(log2(n)) gives 49 for n = 2^49 + 1; no profile of
        # that size is built
        assert search._ceil_log2(1) == 0
        for k in range(1, 81):
            assert search._ceil_log2(2**k - 1) == (k if k > 1 else 0)
            assert search._ceil_log2(2**k) == k
            assert search._ceil_log2(2**k + 1) == k + 1

    def test_profile_dependent_matches_definition(self):
        # one of four voters excludes x_1: alpha_1 becomes 3/8, so the
        # two straddling voters contribute 3/4 < the 2 required
        f = fixture("profile-dependent-alpha", 2)
        p = Profile(
            2,
            {1: Interval(1, 2), 2: Interval(1, 2), 3: Interval(1, 1), 4: Interval(2, 2)},
        )
        assert f(p) == 2


def _no_profile(*args, **kwargs):
    raise AssertionError("a witness profile was built")


_no_profile._of = _no_profile  # witness profiles are built with Profile._of


class TestTheorem2Witness:
    @given(st.integers(2, 40).flatmap(
        lambda d: st.tuples(st.integers(1, d - 1), st.just(d))
    ))
    def test_fraction_between_matches_definition(self, ratio):
        t = Fraction(*ratio)
        assume(t != HALF)
        lo, hi = sorted((t, HALF))
        first = next(
            Fraction(w1, total)
            for total in itertools.count(2)
            for w1 in range(1, total)
            if lo < Fraction(w1, total) < hi
        )
        assert _fraction_strictly_between(lo, hi) == first

    def test_threshold_total_refused_before_any_profile(self, monkeypatch):
        # the smallest split strictly between 1/2 and 500000/999999 is
        # 500001/1000001, one voter above the guard
        monkeypatch.setattr(search, "Profile", _no_profile)
        rule = PositionThresholdRule.make_unchecked(
            WeightVector.constant(2, HALF),
            ThresholdVector(2, (Fraction(500000, 999999), Fraction(1, 3))),
        )
        with pytest.raises(TooLarge, match=f"within the {WITNESS_MAX_DENOMINATOR} guard"):
            theorem2_uniqueness_witness(rule)

    def test_weight_bloc_refused_before_any_profile(self, monkeypatch):
        # alpha_1 = 1/2 - 1/(2 * 10**6): the smallest t with
        # t / (2 * 10**6) > 1/2 is 10**6 + 1, one straddling voter above
        # the guard
        monkeypatch.setattr(search, "Profile", _no_profile)
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(2, (HALF - Fraction(1, 2 * 10**6), HALF)),
            ThresholdVector.constant(2, HALF),
        )
        with pytest.raises(TooLarge, match=f"needs {WITNESS_MAX_DENOMINATOR + 1} straddling"):
            theorem2_uniqueness_witness(rule)

    def test_endpoint_median_has_none(self):
        for m in (2, 3, 4):
            assert theorem2_uniqueness_witness(endpoint_median_rule(m)) is None

    def test_theta_deviation_yields_majority_witness(self):
        rule = PositionThresholdRule.make_unchecked(
            WeightVector.constant(3, HALF),
            ThresholdVector(3, (HALF, Fraction(1, 3), Fraction(1, 3))),
        )
        violation = theorem2_uniqueness_witness(rule)
        assert violation.axiom == "majority-criterion"
        profile = Profile.from_json(violation.witness["profile"])
        assert check_majority_criterion(RuleFn.from_ptr(rule), profile).status == "violation"

    def test_majority_witness_bloc_sizes(self):
        # theta_1 = 1/3: smallest split strictly between 1/3 and 1/2 is
        # 2 of 5, so 2 voters on {x_1} face a 3-voter majority on {x_3}
        rule = PositionThresholdRule.make_unchecked(
            WeightVector.constant(3, HALF),
            ThresholdVector.constant(3, Fraction(1, 3)),
        )
        violation = theorem2_uniqueness_witness(rule)
        assert violation.axiom == "majority-criterion"
        ballots = sorted(
            tuple(v["interval"]) for v in violation.witness["profile"]["voters"]
        )
        assert ballots == [(1, 1), (1, 1), (3, 3), (3, 3), (3, 3)]

    def test_strong_unanimity_witness_bloc_size(self):
        # alpha_1 = 1/4: the smallest t with t/4 > 1/2 is 3, so 3
        # straddling voters plus the lone {x_1} voter: Pi(x_1) = 7/4 < 2
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(3, (Fraction(1, 4), HALF, HALF)),
            ThresholdVector.constant(3, HALF),
        )
        violation = theorem2_uniqueness_witness(rule)
        assert violation.axiom == "strong-unanimity"
        ballots = sorted(
            tuple(v["interval"]) for v in violation.witness["profile"]["voters"]
        )
        assert ballots == [(1, 1)] + [(1, 2)] * 3

    def test_strong_unanimity_witness_bloc_size_above_one_half(self):
        # alpha_1 = 3/4: the smallest t with t/4 >= 1/2 is 2, so 2
        # straddling voters plus the lone {x_2} voter: Pi(x_1) = 3/2 meets
        # n/2 = 3/2 and x_1 wins
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(3, (Fraction(3, 4), HALF, HALF)),
            ThresholdVector.constant(3, HALF),
        )
        violation = theorem2_uniqueness_witness(rule)
        assert violation.axiom == "strong-unanimity"
        assert violation.witness["profile"]["voters"] == [
            {"id": 1, "interval": [1, 2]},
            {"id": 2, "interval": [1, 2]},
            {"id": 3, "interval": [2, 2]},
        ]

    def test_alpha_deviation_yields_strong_unanimity_witness(self):
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(3, (Fraction(3, 4), HALF, HALF)),
            ThresholdVector.constant(3, HALF),
        )
        violation = theorem2_uniqueness_witness(rule)
        assert violation.axiom == "strong-unanimity"
        profile = Profile.from_json(violation.witness["profile"])
        assert check_strong_unanimity(RuleFn.from_ptr(rule), profile).status == "violation"

    def test_witness_replays(self):
        rule = PositionThresholdRule.make_unchecked(
            WeightVector.constant(4, HALF),
            ThresholdVector.constant(4, Fraction(2, 3)),
        )
        violation = theorem2_uniqueness_witness(rule)
        assert replay_violation(RuleFn.from_ptr(rule), violation.to_json())


class TestFixedRuleInfeasibility:
    def test_triple_winners(self):
        pa, pb, pc = remark_scaled_triple()
        f = fixture("profile-dependent-alpha", 2)
        assert (f(pa), f(pb), f(pc)) == (1, 1, 2)

    def test_triple(self):
        # (x_1, x_1) on pa, pb bound theta_1 <= 1/2 and theta_1 <= alpha_1;
        # x_2 on pc needs theta_1 > 1/4 + alpha_1 / 2: alpha_1 < 1/2 < alpha_1
        triple = remark_scaled_triple()
        assert inconsistent_alternative(2, zip(triple, (1, 1, 2))) == 1
        assert inconsistent_alternative(2, zip(triple, (1, 1, 1))) is None

    def test_endpoint_median_winners_on_triple(self):
        g = RuleFn.from_ptr(endpoint_median_rule(2))
        observations = [(p, g(p)) for p in remark_scaled_triple()]
        assert inconsistent_alternative(2, observations) is None

    @pytest.mark.parametrize(
        "observations",
        [
            # theta_1 < 1: a lone {x_1} voter electing x_2 needs theta_1 > 1
            [((Interval(1, 1),), 2)],
            # alpha_1 <= 1: theta_1 > 1/2 and theta_1 <= alpha_1 / 3
            [
                ((Interval(1, 1), Interval(2, 2)), 2),
                ((Interval(1, 2), Interval(2, 2), Interval(2, 2)), 1),
            ],
            # alpha_1 >= 0: theta_1 > 1/2 + alpha_1 / 2 and
            # theta_1 <= 1/2 + alpha_1 / 4
            [
                ((Interval(1, 1), Interval(1, 2)), 2),
                ((Interval(1, 1), Interval(1, 1), Interval(1, 2), Interval(2, 2)), 1),
            ],
        ],
    )
    def test_outside_the_box(self, observations):
        profiles = [
            (Profile(2, dict(enumerate(ballots, 1))), w) for ballots, w in observations
        ]
        assert inconsistent_alternative(2, profiles) == 1

    @pytest.mark.parametrize("w", [0, -1, 4, 7, 1.5, True])
    def test_observed_winner_outside_the_alternatives(self, w):
        # w = 0 would add no constraint, w > m would act as w = m, and a
        # float or a bool is no alternative
        p = Profile(3, {1: Interval(1, 2), 2: Interval(3, 3)})
        with pytest.raises(VotingError, match=r"observed winner must be an integer in 1\.\.3"):
            inconsistent_alternative(3, [(p, 2), (p, w)])

    def test_least_inconsistent_alternative(self):
        # the triple moved onto {x_2, x_3}: every test at x_1 fails, which
        # any theta_1 above 0 allows, and x_2 is inconsistent as x_1 was
        single2, single3, both = Interval(2, 2), Interval(3, 3), Interval(2, 3)
        triple = (
            Profile(3, {1: single2, 2: single2, 3: single3, 4: single3}),
            Profile(3, {1: both, 2: both, 3: both, 4: both}),
            Profile(3, {1: both, 2: both, 3: single2, 4: single3}),
        )
        assert inconsistent_alternative(3, zip(triple, (2, 2, 3))) == 2
        assert inconsistent_alternative(3, zip(triple, (2, 2, 2))) is None

    @pytest.mark.parametrize("m", [2, 3])
    def test_sampled_rules_fit_their_own_winners(self, m):
        pairs = sample_vector_pairs(m, 5, seed=41, compatible=True)
        if m > 2:  # every pair is compatible at m = 2
            pairs += sample_vector_pairs(m, 5, seed=42, compatible=False)
        profiles = list(_identified_profiles(m, 3))
        for alpha, theta in pairs:
            rule = PositionThresholdRule.make_unchecked(alpha, theta)
            observations = [(p, rule.winner(p)) for p in profiles]
            assert inconsistent_alternative(m, observations) is None, (alpha, theta)

    @pytest.mark.parametrize(
        "tag, k",
        [
            ("constant", 1),
            # the limit of an open region of threshold rules, so no finite
            # set of profiles separates it from them
            ("strict-threshold", None),
            ("log-parity", 1),
            ("even-voter-doubled", 1),
            ("profile-dependent-alpha", 1),
        ],
    )
    def test_fixtures_at_m3(self, tag, k):
        f = fixture(tag, 3)
        observations = [(p, f(p)) for p in _identified_profiles(3, 4)]
        assert inconsistent_alternative(3, observations) == k
