"""Axiom checkers on hand-built instances and known counterexample rules."""

import collections
import itertools
from fractions import Fraction
from functools import partial

import pytest

from intervalvote.core import (
    Interval,
    InvalidAlternative,
    MismatchedAlternatives,
    NoSuchVoter,
    NotDisjoint,
    Profile,
    VotingError,
    canonical_intervals,
    combine,
    delete_endpoint,
    interval_table,
    replicate,
    replications,
)
from intervalvote.rules import (
    PositionThresholdRule,
    ThresholdVector,
    WeightVector,
    endpoint_median_rule,
)
from intervalvote.axioms import (
    PASS,
    PASSED,
    CheckResult,
    SATISFIED,
    UNDETERMINED,
    VACUOUS,
    VIOLATION,
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
    replay_violation,
)
from intervalvote.search import (
    FIXTURE_TAGS,
    SearchBounds,
    _disjoint_pairs,
    _identified_profiles,
    falsify,
    fixture,
)
from wsp_oracle import enumerate_wsp_with_plateau

HALF = Fraction(1, 2)


def em(m):
    return RuleFn.from_ptr(endpoint_median_rule(m))


def recorded(f):
    """`f` plus the list of profiles it is called on, in call order."""
    calls = []

    def fn(p):
        calls.append(p)
        return f(p)

    return RuleFn(f.m, fn, name=f.name), calls


class TestRuleFn:
    def test_winner_range_enforced(self):
        bad = RuleFn(3, lambda p: 7)
        with pytest.raises(VotingError):
            bad(Profile(3, {1: Interval(1, 1)}))

    @pytest.mark.parametrize("w", [True, 1.0, 2.0])
    def test_winner_must_be_an_int(self, w):
        # a bool or a float would reach verdicts and serialized witnesses
        with pytest.raises(VotingError, match=f"rule returned invalid winner {w}$"):
            RuleFn(3, lambda p: w)(Profile(3, {1: Interval(1, 2)}))

    def test_m_mismatch(self):
        with pytest.raises(VotingError):
            em(3)(Profile(4, {1: Interval(1, 1)}))


class TestRememberedWinner:
    """A black-box rule's function runs at most once per profile object:
    the profile keeps the winner it validated, for that function only."""

    @staticmethod
    def counted(fn):
        calls = []
        return (lambda p: calls.append(p) or fn(p)), calls

    def test_one_call_per_profile_object(self):
        fn, calls = self.counted(lambda p: 2)
        p = Profile(3, {1: Interval(1, 2)})
        # two rules over one function share its winner
        assert [RuleFn(3, fn)(p), RuleFn(3, fn, "again")(p)] == [2, 2]
        assert list(map(id, calls)) == [id(p)]
        # an equal profile is another object, and is evaluated afresh
        same = Profile(3, {1: Interval(1, 2)})
        assert same == p and RuleFn(3, fn)(same) == 2
        assert list(map(id, calls)) == [id(p), id(same)]

    def test_each_function_gets_its_own_winner(self):
        p = Profile(3, {1: Interval(1, 2)})
        first, second = RuleFn(3, lambda q: 1), RuleFn(3, lambda q: 3)
        assert [first(p), second(p), first(p), second(p)] == [1, 3, 1, 3]

    def test_m_is_checked_before_the_kept_winner(self):
        fn = lambda p: 1
        p = Profile(3, {1: Interval(1, 2)})
        assert RuleFn(3, fn)(p) == 1
        with pytest.raises(VotingError, match="m mismatch: rule 4 vs profile 3"):
            RuleFn(4, fn)(p)

    @pytest.mark.parametrize("w", [7, True, 1.0])
    def test_an_invalid_winner_is_refused_on_every_call(self, w):
        fn, calls = self.counted(lambda p: w)
        f = RuleFn(3, fn)
        p = Profile(3, {1: Interval(1, 2)})
        for _ in range(2):
            with pytest.raises(VotingError, match=f"rule returned invalid winner {w}$"):
                f(p)
        assert calls == [p, p]
        assert p._winner is None

    def test_no_derived_profile_inherits_the_winner(self):
        p = Profile(3, {1: Interval(1, 2), 2: Interval(2, 3)})
        other = Profile(3, {3: Interval(1, 1)})
        f, calls = recorded(fixture("even-voter-doubled", 3))
        f(p)
        assert p._winner is not None
        derived = [
            p._with_interval(1, Interval(1, 1)),
            p.with_interval(2, Interval(3, 3)),
            delete_endpoint(p, 1, "left"),
            p._renamed({2: p.voters[1], 1: p.voters[2]}),
            combine(p, other),
            replicate(p, 2),
            next(replications(p, other)),
        ]
        for q in derived:
            assert q._winner is None and "_winner" not in vars(q), q
        # the checkers evaluate the shifted and the renamed profile of an
        # evaluated one afresh, and the renamed one has another winner
        apart = Profile(3, {1: Interval(1, 1), 2: Interval(3, 3)})
        single = Profile(3, {1: Interval(1, 1)})
        assert [f(apart), f(single)] == [3, 1]
        calls.clear()
        assert check_shift_symmetry(f, single).status == PASS
        assert check_anonymity(f, apart, {1: 2, 2: 1}).status == VIOLATION
        assert [q.voters for q in calls] == [
            {1: Interval(2, 2)}, {2: Interval(1, 1), 1: Interval(3, 3)}
        ]


class TestRobustness:
    def test_clean_on_endpoint_median(self):
        p = Profile(4, {1: Interval(1, 2), 2: Interval(1, 3), 3: Interval(2, 4)})
        assert check_robustness(em(4), p).status == PASS

    def test_violation_detected_and_replayed(self):
        # rule jumping on any left-endpoint deletion of voter 1
        def jumpy(p):
            return 3 if p.interval(1).left > 1 else 1

        f = RuleFn(3, jumpy, name="jumpy")
        p = Profile(3, {1: Interval(1, 3)})
        result = check_robustness(f, p)
        assert result.status == VIOLATION
        assert len(result.violations) == 1
        v = result.violation
        assert v.witness["side"] == "left"
        assert replay_violation(f, v.to_json())
        assert not replay_violation(em(3), v.to_json())

    def test_one_step_exception_allowed(self):
        # winner sits on the deleted endpoint and moves one step inward
        p = Profile(2, {1: Interval(1, 2), 2: Interval(1, 2)})
        f = em(2)
        assert f(p) == 1
        assert check_robustness(f, p).status == PASS

    def test_verdict_is_the_disjunction_for_every_step(self):
        # one voter, m <= 4: a rule electing `before` on the profile and
        # `after` once `side`'s endpoint is deleted (the other deletion
        # keeps `before`) is flagged exactly when the disjunction fails
        for m in (2, 3, 4):
            for iv in canonical_intervals(m):
                if iv.is_singleton():
                    continue
                p = Profile(m, {1: iv})
                for side, before, after in itertools.product(
                    ("left", "right"), range(1, m + 1), range(1, m + 1)
                ):
                    deleted = delete_endpoint(p, 1, side).interval(1)
                    f = RuleFn(
                        m, lambda q: after if q.interval(1) == deleted else before
                    )
                    holds = (
                        before == after
                        or (side == "left" and before == iv.left and after == iv.left + 1)
                        or (side == "right" and before == iv.right and after == iv.right - 1)
                    )
                    result = check_robustness(f, p)
                    if holds:
                        assert result.status == PASS
                    else:
                        assert result.status == VIOLATION
                        assert len(result.violations) == 1
                        assert result.violation.witness["side"] == side
                        assert result.violation.observed == {
                            "before": before,
                            "after": after,
                        }


class TestReinforcement:
    def test_vacuous_when_winners_differ(self):
        p1 = Profile(2, {1: Interval(1, 1)})
        p2 = Profile(2, {2: Interval(2, 2)})
        assert check_reinforcement(em(2), p1, p2).status == VACUOUS

    def test_pass_on_endpoint_median(self):
        p1 = Profile(3, {1: Interval(2, 2)})
        p2 = Profile(3, {2: Interval(1, 3), 3: Interval(2, 3)})
        f = em(3)
        assert f(p1) == f(p2) == 2
        assert check_reinforcement(f, p1, p2).status == PASS

    def test_log_parity_fixture_fails(self):
        # two singleton profiles electing x_2 combine into an x_1 winner
        f = fixture("log-parity", 2)
        p1 = Profile(2, {1: Interval(1, 2)})
        p2 = Profile(2, {2: Interval(1, 2)})
        result = check_reinforcement(f, p1, p2)
        assert result.status == VIOLATION
        assert replay_violation(f, result.violation.to_json())


class TestUnanimity:
    def test_endpoint_median_passes(self):
        for j in (1, 2, 3):
            assert check_unanimity(em(3), j, 5).status == PASS

    def test_constant_fixture_fails(self):
        result = check_unanimity(fixture("constant", 3), 2, 5)
        assert result.status == VIOLATION
        assert result.violation.required == 2

    def test_calls_the_rule_on_each_electorate_size(self):
        f, calls = recorded(em(3))
        assert check_unanimity(f, 2, 4).status == PASS
        assert calls == [
            Profile(3, {v: Interval(2, 2) for v in range(1, n + 1)}) for n in range(1, 5)
        ]

    @pytest.mark.parametrize("j", [-1, 0, 4])
    def test_alternative_outside_1_to_m(self, j):
        # -1 would otherwise index the grid from its end, at x_3
        with pytest.raises(InvalidAlternative, match=rf"^alternative {j} is not in 1\.\.3$"):
            check_unanimity(em(3), j, 2)


class TestStrongUnanimity:
    def test_vacuous_on_empty_intersection(self):
        p = Profile(3, {1: Interval(1, 1), 2: Interval(3, 3)})
        assert check_strong_unanimity(em(3), p).status == VACUOUS

    def test_winner_inside_intersection(self):
        p = Profile(4, {1: Interval(1, 3), 2: Interval(2, 4)})
        result = check_strong_unanimity(em(4), p)
        assert result.status == PASS


class TestMajorityCriterion:
    def test_strict_majority_needed(self):
        p = Profile(3, {1: Interval(1, 1), 2: Interval(3, 3)})
        assert check_majority_criterion(em(3), p).status == VACUOUS

    def test_low_threshold_overrides_majority(self):
        # theta_1 = 1/4 lets a lone {x_1} voter beat a 2-voter majority
        rule = PositionThresholdRule.make(
            WeightVector.constant(3, HALF),
            ThresholdVector.constant(3, Fraction(1, 4)),
        )
        p = Profile(
            3, {1: Interval(1, 1), 2: Interval(3, 3), 3: Interval(3, 3)}
        )
        result = check_majority_criterion(RuleFn.from_ptr(rule), p)
        assert result.status == VIOLATION
        assert result.violation.observed == 1
        assert result.violation.required == 3

    def test_pass_and_violation(self):
        p = Profile(3, {1: Interval(3, 3), 2: Interval(3, 3), 3: Interval(1, 1)})
        assert check_majority_criterion(em(3), p).status == PASS
        result = check_majority_criterion(fixture("constant", 3), p)
        assert result.status == VIOLATION
        assert result.violation.required == 3


class TestWeakEfficiency:
    def test_endpoint_median_passes(self):
        p = Profile(4, {1: Interval(1, 2), 2: Interval(3, 4)})
        assert check_weak_efficiency(em(4), p).status == PASS

    def test_unsupported_winner_flagged(self):
        # a steep threshold drop elects x_2 though nobody reports it
        rule = PositionThresholdRule.make(
            WeightVector.constant(3, HALF),
            ThresholdVector(3, (Fraction(2, 3), Fraction(1, 3), Fraction(1, 3))),
        )
        p = Profile(3, {1: Interval(1, 1), 2: Interval(3, 3)})
        result = check_weak_efficiency(RuleFn.from_ptr(rule), p)
        assert result.status == VIOLATION
        assert result.violation.observed == 2


class TestAnonymity:
    def test_rename_is_neutral_for_ptr(self):
        p = Profile(2, {1: Interval(1, 1), 2: Interval(2, 2)})
        assert check_anonymity(em(2), p, {1: 2, 2: 1}).status == PASS

    def test_id_sensitive_fixture_fails(self):
        f = fixture("even-voter-doubled", 2)
        p = Profile(2, {1: Interval(1, 1), 2: Interval(2, 2)})
        result = check_anonymity(f, p, {1: 2, 2: 1})
        assert result.status == VIOLATION
        assert replay_violation(f, result.violation.to_json())

    def test_non_bijection_rejected(self):
        p = Profile(2, {1: Interval(1, 1), 2: Interval(2, 2)})
        with pytest.raises(VotingError):
            check_anonymity(em(2), p, {1: 2})


class TestContinuity:
    """Full `detail` and the profile sizes the rule is called on, in
    order: p1, p2, then p1 replicated lambda = 1, 2, ... times plus p2."""

    def test_case_i_tie_needs_no_replication(self):
        p1 = Profile(2, {1: Interval(1, 1)})
        p2 = Profile(2, {2: Interval(1, 2)})
        f, calls = recorded(em(2))
        result = check_right_biased_continuity(f, p1, p2, lambda_max=10)
        assert result.status == SATISFIED
        assert result.detail == {"case": "i", "lambda": 0}
        assert [q.n for q in calls] == [1, 1]

    def test_case_i_replication_flips(self):
        p1 = Profile(2, {1: Interval(2, 2)})
        p2 = Profile(2, {2: Interval(1, 1)})
        f, calls = recorded(em(2))
        result = check_right_biased_continuity(f, p1, p2, lambda_max=10)
        assert result.status == SATISFIED
        assert result.detail == {"case": "i", "lambda": 2}
        assert [q.n for q in calls] == [1, 1, 2, 3]

    def test_case_i_factor_two(self):
        # one copy of p1 ties at x_1; the second copy tips it to x_2
        p1 = Profile(2, {"a": Interval(2, 2)})
        p2 = Profile(2, {"b": Interval(1, 1)})
        result = check_right_biased_continuity(em(2), p1, p2, lambda_max=10)
        assert result.status == SATISFIED
        assert result.detail == {"case": "i", "lambda": 2}

    def test_copy_ids_stay_off_the_second_profile(self):
        # p2's id looks like a copy of p1's voter; the pair is still
        # decided at lambda = 2
        p1 = Profile(2, {"a": Interval(2, 2)})
        p2 = Profile(2, {"a#2": Interval(1, 1)})
        f, calls = recorded(em(2))
        result = check_right_biased_continuity(f, p1, p2, lambda_max=10)
        assert result.detail == {"case": "i", "lambda": 2}
        assert [q.n for q in calls] == [1, 1, 2, 3]

    def test_case_ii_sandwich_without_replication(self):
        # f(p2) = x_2 already lies between f(p1) = x_1 and p1's x_3
        p1 = Profile(3, {1: Interval(1, 3)})
        p2 = Profile(3, {2: Interval(2, 2)})
        f, calls = recorded(em(3))
        result = check_right_biased_continuity(f, p1, p2, lambda_max=10)
        assert result.status == SATISFIED
        assert result.detail == {"case": "ii", "lambda": 0, "bound": 2}
        assert [q.n for q in calls] == [1, 1]

    def test_case_ii_sandwich(self):
        p1 = Profile(3, {1: Interval(1, 2)})
        p2 = Profile(3, {2: Interval(3, 3)})
        f, calls = recorded(em(3))
        result = check_right_biased_continuity(f, p1, p2, lambda_max=10)
        assert result.status == SATISFIED
        assert result.detail == {"case": "ii", "lambda": 1, "bound": 2}
        assert [q.n for q in calls] == [1, 1, 2]

    def test_strict_threshold_fixture_undetermined(self):
        # Pi > theta*n tie-breaking defeats case (i) for every factor
        f = fixture("strict-threshold", 2)
        p1 = Profile(2, {1: Interval(1, 1), 2: Interval(2, 2)})
        p2 = Profile(2, {3: Interval(1, 1)})
        assert f(p1) == 2 and f(p2) == 1
        f, calls = recorded(f)
        result = check_right_biased_continuity(f, p1, p2, lambda_max=50)
        assert result.status == UNDETERMINED
        assert result.detail == {
            "case": "i",
            "lambda_max": 50,
            "profile1": p1.to_json(),
            "profile2": p2.to_json(),
        }
        assert [q.n for q in calls] == [2, 1] + [2 * lam + 1 for lam in range(1, 51)]

    def test_case_ii_exhausted_is_undetermined(self):
        # x_1 on p1 alone, x_3 as soon as p2's voter is present
        p1 = Profile(3, {1: Interval(1, 1)})
        p2 = Profile(3, {2: Interval(3, 3)})
        f, calls = recorded(RuleFn(3, lambda q: 3 if 2 in q.voters else 1))
        result = check_right_biased_continuity(f, p1, p2, lambda_max=3)
        assert result.status == UNDETERMINED
        assert result.detail == {
            "case": "ii",
            "lambda_max": 3,
            "profile1": p1.to_json(),
            "profile2": p2.to_json(),
        }
        assert [q.n for q in calls] == [1, 1, 2, 3, 4]

    def test_disjointness_required(self):
        p = Profile(2, {1: Interval(1, 1)})
        with pytest.raises(VotingError):
            check_right_biased_continuity(em(2), p, p, lambda_max=10)

    @staticmethod
    def assert_steps_match_oracle(p1, p2, lambda_max=4):
        """Every replicated profile the loop hands the rule has the ids
        and order of combine(replicate(p1, lambda), p2), and keeps them
        after later steps.  f(p1) = x_m and x_1 elsewhere, so case (i)
        never closes and every lambda up to lambda_max is tried."""
        seen = []

        def fn(q):
            seen.append((q, list(q.voters.items())))
            return p1.m if q is p1 else 1

        result = check_right_biased_continuity(RuleFn(p1.m, fn), p1, p2, lambda_max)
        assert result.status == UNDETERMINED
        steps = seen[2:]
        assert len(steps) == lambda_max
        for lam, (q, items) in enumerate(steps, 1):
            oracle = combine(replicate(p1, lam, avoid_ids=p2.voters), p2)
            assert items == list(oracle.voters.items())
            assert list(q.voters.items()) == items
            assert q.n == len(items)

    def test_replication_steps_on_every_small_pair(self):
        for p1, p2 in _disjoint_pairs(3, 3):
            self.assert_steps_match_oracle(p1, p2)

    @pytest.mark.parametrize("ids1, ids2", [
        (["a", "b"], ["c"]),
        ([-3, 0, 4], [-1, 7]),
        ([1, "a"], [2]),
        ([1, 2], ["x"]),
        ([-2, 5], ["y", 3]),
    ])
    def test_replication_steps_on_other_ids(self, ids1, ids2):
        ivs = canonical_intervals(3)
        p1 = Profile(3, {v: ivs[i] for i, v in enumerate(ids1)})
        p2 = Profile(3, {v: ivs[-1 - i] for i, v in enumerate(ids2)})
        self.assert_steps_match_oracle(p1, p2)


class TestStrategyproofness:
    def test_endpoint_median_clean(self):
        p = Profile(3, {1: Interval(1, 2), 2: Interval(3, 3)})
        assert check_strategyproofness(em(3), p, 1).status == PASS

    def test_manipulable_rule_caught(self):
        # incompatible weights: voter 2 drags the winner from x_3 to x_1
        # by reporting {x_1}, which the peak-at-x_2 preference likes
        rule = PositionThresholdRule.make_unchecked(
            WeightVector(3, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))),
            ThresholdVector.constant(3, HALF),
        )
        f = RuleFn.from_ptr(rule)
        p = Profile(
            3, {1: Interval(1, 3), 2: Interval(2, 2), 3: Interval(3, 3)}
        )
        result = check_strategyproofness(f, p, 2)
        assert result.status == VIOLATION
        violations = result.violations
        assert result.violation == violations[0]
        observed = {(v.observed["honest"], v.observed["manipulated"]) for v in violations}
        assert (3, 1) in observed
        assert all(replay_violation(f, v.to_json()) for v in violations)


class TestWitnessSerialization:
    """A checker that finds several violations in one instance serializes
    the profile once, and every witness shares that serialization."""

    @pytest.fixture
    def serialized(self, monkeypatch):
        calls = []
        to_json = Profile.to_json

        def counting(p):
            calls.append(p)
            return to_json(p)

        monkeypatch.setattr(Profile, "to_json", counting)
        return calls

    def assert_one_shared_profile(self, result, serialized):
        assert result.status == VIOLATION and len(result.violations) > 1
        assert len(serialized) == 1
        shared = result.violation.witness["profile"]
        assert all(v.witness["profile"] is shared for v in result.violations)

    def test_robustness(self, serialized):
        # x_1 on the profile, x_3 after any deletion: four violations
        p = Profile(3, {1: Interval(1, 3), 2: Interval(1, 3)})
        f = RuleFn(3, lambda q: 1 if q is p else 3)
        result = check_robustness(f, p)
        self.assert_one_shared_profile(result, serialized)
        assert len(result.violations) == 4
        serialized.clear()
        assert check_robustness(em(3), p).status == PASS
        assert serialized == []

    def test_strategyproofness(self, serialized):
        f = early_descent(3)
        p = Profile(3, {1: Interval(1, 3), 2: Interval(2, 2), 3: Interval(3, 3)})
        self.assert_one_shared_profile(check_strategyproofness(f, p, 2), serialized)
        serialized.clear()
        assert check_strategyproofness(f, p, 1).status == PASS
        assert serialized == []


def early_descent(m):
    """Unchecked: alpha_1 = 3/4 above the later weights 1/4 fails the
    compatibility test at index 1."""
    return RuleFn.from_ptr(
        PositionThresholdRule.make_unchecked(
            WeightVector(m, (Fraction(3, 4),) + (Fraction(1, 4),) * (m - 1)),
            ThresholdVector.constant(m, HALF),
        )
    )


def enumerating_strategyproofness(f, p, voter):
    """The checker by enumeration: every report that changes the
    winner, against every weakly single-peaked order with the voter's
    plateau, one witness per (report, preference)."""
    truth = p.interval(voter)
    honest = f(p)
    violations = []
    orders = enumerate_wsp_with_plateau(p.m, truth)
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
    if not violations:
        return CheckResult(PASS)
    return CheckResult(VIOLATION, tuple(violations))


class TestStrategyproofnessAgainstEnumeration:
    @pytest.mark.parametrize("m, n_max", [(3, 3), (4, 2)])
    @pytest.mark.parametrize("rule", [em, early_descent])
    def test_same_verdict_and_witnesses(self, m, n_max, rule):
        f = rule(m)
        manipulable = 0
        for n in range(1, n_max + 1):
            for ballots in itertools.combinations_with_replacement(
                canonical_intervals(m), n
            ):
                p = Profile(m, dict(enumerate(ballots, 1)))
                for voter in p.voters:
                    new = check_strategyproofness(f, p, voter)
                    old = enumerating_strategyproofness(f, p, voter)
                    assert new.status == old.status, (p, voter)
                    assert new.violation == old.violation, (p, voter)
                    # one witness per report: the first the enumeration lists
                    first = {}
                    for v in old.violations:
                        first.setdefault(tuple(v.witness["report"]), v)
                    assert new.violations == tuple(first.values()), (p, voter)
                    manipulable += new.status == VIOLATION
        # two voters at m = 4 are too few for either rule to be manipulated
        assert (manipulable > 0) == (rule is early_descent and m == 3)


class TestStrongUncompromisingness:
    def test_vacuous_outside_conditions(self):
        p = Profile(3, {1: Interval(2, 2), 2: Interval(2, 2)})
        # winner 2; moving the interval across the winner fits no clause
        result = check_strong_uncompromisingness(em(3), p, 1, Interval(1, 1))
        assert result.status == VACUOUS

    def test_pass_cases(self):
        p = Profile(3, {1: Interval(1, 3), 2: Interval(2, 2)})
        f = em(3)
        w = f(p)
        assert w == 2
        # winner strictly inside voter 1's interval stays put
        # a pass is the shared payload-free result; the clause is named
        # only in a violation's witness
        assert check_strong_uncompromisingness(f, p, 1, Interval(1, 2)) is PASSED

    def test_violation_on_jumpy_rule(self):
        def jumpy(p):
            return 1 if p.interval(1) == Interval(1, 3) else 3

        f = RuleFn(3, jumpy)
        p = Profile(3, {1: Interval(1, 3)})
        result = check_strong_uncompromisingness(f, p, 1, Interval(1, 3))
        assert result.status == PASS  # unchanged report keeps the winner
        result = check_strong_uncompromisingness(f, p, 1, Interval(1, 2))
        assert result.status == VIOLATION
        assert replay_violation(f, result.violation.to_json())


class TestSymmetries:
    def test_shift_vacuous_at_boundary(self):
        p = Profile(3, {1: Interval(2, 3)})
        assert check_shift_symmetry(em(3), p).status == VACUOUS

    def test_shift_pass(self):
        p = Profile(4, {1: Interval(1, 2), 2: Interval(2, 3)})
        assert check_shift_symmetry(em(4), p).status == PASS


class TestReplay:
    def test_unknown_axiom(self):
        with pytest.raises(VotingError):
            replay_violation(em(2), {"axiom": "mystery", "witness": {}})

    def test_unknown_axiom_with_a_profile(self):
        profile = {"m": 2, "voters": [{"id": 1, "interval": [1, 2]}]}
        violation = {"axiom": "mystery", "witness": {"profile": profile}}
        with pytest.raises(VotingError, match="cannot replay unknown axiom 'mystery'"):
            replay_violation(em(2), violation)

    def test_robustness_replay_makes_the_checker_calls(self):
        # decoding the witness's voter and side evaluates the rule no more
        f = RuleFn(3, lambda p: 3 if p.interval(1).left > 1 else 1, name="jumpy")
        p = Profile(3, {1: Interval(1, 3)})
        witness = check_robustness(f, p).violation.to_json()
        checker, checked = recorded(f)
        check_robustness(checker, p)
        replayer, replayed = recorded(f)
        assert replay_violation(replayer, witness)
        assert replayed == checked


# ---------------------------------------------------------------------------
# the checkers that scan their premise in one pass and derive profiles
# without re-validating them, against their definitions


def support(p):
    return {a for iv in p.voters.values() for a in iv.alternatives()}


def outcome(status, *violations, **detail):
    return status, list(violations), detail


def found(result):
    return (
        result.status,
        [v.to_json() for v in result.violations],
        dict(result.detail),
    )


def violation_json(axiom, observed, required, **witness):
    return {
        "axiom": axiom, "witness": witness, "observed": observed, "required": required
    }


def robustness_by_definition(f, p):
    before = f(p)
    out = []
    for voter in sorted(p.voters, key=str):
        iv = p.interval(voter)
        if iv.is_singleton():
            continue
        for side in ("left", "right"):
            after = f(delete_endpoint(p, voter, side))
            deleted = iv.left if side == "left" else iv.right
            inward = iv.left + 1 if side == "left" else iv.right - 1
            if after != before and not (before == deleted and after == inward):
                out.append(violation_json(
                    "robustness",
                    {"before": before, "after": after},
                    "winner unchanged, or moved one step off the deleted endpoint",
                    profile=p.to_json(), voter=voter, side=side,
                ))
    return outcome(VIOLATION if out else PASS, *out)


def strong_unanimity_by_definition(f, p):
    shared = set.intersection(*(set(iv.alternatives()) for iv in p.voters.values()))
    if not shared:
        return outcome(VACUOUS)
    w = f(p)
    if w in shared:
        return outcome(PASS)
    required = f"winner in [{min(shared)}, {max(shared)}]"
    return outcome(
        VIOLATION, violation_json("strong-unanimity", w, required, profile=p.to_json())
    )


def majority_criterion_by_definition(f, p):
    for j in range(1, p.m + 1):
        backers = [v for v, iv in p.voters.items() if iv == Interval(j, j)]
        if 2 * len(backers) > len(p.voters):
            w = f(p)
            if w == j:
                return outcome(PASS)
            return outcome(
                VIOLATION, violation_json("majority-criterion", w, j, profile=p.to_json())
            )
    return outcome(VACUOUS)


def weak_efficiency_by_definition(f, p):
    w = f(p)
    if w in support(p):
        return outcome(PASS)
    return outcome(VIOLATION, violation_json(
        "weak-efficiency", w, "winner reported by at least one voter", profile=p.to_json()
    ))


def shift_symmetry_by_definition(f, p):
    if p.m in support(p):
        return outcome(VACUOUS)
    shifted = Profile(
        p.m, {v: Interval(iv.left + 1, iv.right + 1) for v, iv in p.voters.items()}
    )
    w, ws = f(p), f(shifted)
    if ws == w + 1:
        return outcome(PASS)
    return outcome(
        VIOLATION, violation_json("shift-symmetry", ws, w + 1, profile=p.to_json())
    )


def reinforcement_by_definition(f, p1, p2):
    w1, w2 = f(p1), f(p2)
    if w1 != w2:
        return outcome(VACUOUS)
    w = f(Profile(p1.m, {**p1.voters, **p2.voters}))
    if w == w1:
        return outcome(PASS)
    return outcome(VIOLATION, violation_json(
        "reinforcement", w, w1, profile1=p1.to_json(), profile2=p2.to_json()
    ))


def anonymity_by_definition(f, p, permutation):
    renamed = Profile(p.m, {permutation.get(v, v): iv for v, iv in p.voters.items()})
    w1, w2 = f(p), f(renamed)
    if w1 == w2:
        return outcome(PASS)
    return outcome(VIOLATION, violation_json(
        "anonymity", w2, w1, profile=p.to_json(),
        permutation=sorted(([k, v] for k, v in permutation.items()), key=str),
    ))


def continuity_by_definition(f, p1, p2, lambda_max):
    w1, w2 = f(p1), f(p2)
    case = "i" if w2 <= w1 else "ii"
    hi = w1 if case == "i" else max(support(p1))
    for lam in range(lambda_max + 1):
        if lam == 0:
            w = w2
        else:
            w = f(combine(replicate(p1, lam, avoid_ids=p2.voters), p2))
        if w1 <= w <= hi:
            if case == "i":
                return outcome(SATISFIED, case=case, **{"lambda": lam})
            return outcome(SATISFIED, case=case, bound=w, **{"lambda": lam})
    return outcome(
        UNDETERMINED,
        case=case,
        lambda_max=lambda_max,
        profile1=p1.to_json(),
        profile2=p2.to_json(),
    )


def strategyproofness_by_definition(f, p, voter):
    """One witness per manipulating report: the first the enumeration
    lists for it."""
    first = {}
    for v in enumerating_strategyproofness(f, p, voter).violations:
        first.setdefault(tuple(v.witness["report"]), v.to_json())
    return outcome(VIOLATION if first else PASS, *first.values())


# (clause, where the old interval lies relative to the winner w, where
# the new one must lie for the winner to be pinned)
UNCOMPROMISING_CLAUSES = (
    ("interval-left-of-winner", lambda l, r, w: r < w, lambda l, r, w: r <= w),
    ("interval-right-of-winner", lambda l, r, w: w < l, lambda l, r, w: w <= l),
    ("winner-strictly-inside", lambda l, r, w: l < w < r, lambda l, r, w: l <= w <= r),
    ("winner-at-left-endpoint", lambda l, r, w: l == w < r, lambda l, r, w: l == w <= r),
    ("winner-at-right-endpoint", lambda l, r, w: l < w == r, lambda l, r, w: l <= w == r),
)


def strong_uncompromisingness_by_definition(f, p, voter, new):
    old = p.interval(voter)
    w = f(p)
    for clause, before, after in UNCOMPROMISING_CLAUSES:
        if before(old.left, old.right, w) and after(new.left, new.right, w):
            break
    else:
        return outcome(VACUOUS)
    moved = f(p.with_interval(voter, new))
    if moved == w:
        return outcome(PASS)
    return outcome(VIOLATION, violation_json(
        "strong-uncompromisingness", moved, w,
        profile=p.to_json(), voter=voter, new_interval=[new.left, new.right],
        condition=clause,
    ))


def skewed(m):
    """Compatible: non-decreasing weights from 1/4, thresholds 1/2."""
    steps = [Fraction(1, 4) + Fraction(3, 4) * k / (m - 1) for k in range(m)]
    alpha, theta = WeightVector(m, tuple(steps)), ThresholdVector.constant(m, HALF)
    return RuleFn.from_ptr(PositionThresholdRule.make(alpha, theta))


REFERENCE_RULES = {
    "em": em,
    "skewed": skewed,
    "early-descent": early_descent,
    **{tag: partial(fixture, tag) for tag in FIXTURE_TAGS},
}


def small_profiles(m, n_max):
    for n in range(1, n_max + 1):
        for ballots in itertools.combinations_with_replacement(canonical_intervals(m), n):
            yield Profile(m, dict(enumerate(ballots, 1)))


def checks_and_references(f, m, n_max):
    """(inputs, checker call, reference call) over every instance of
    every rewritten checker on the profiles with at most n_max voters."""
    one = {
        check_robustness: robustness_by_definition,
        check_strong_unanimity: strong_unanimity_by_definition,
        check_majority_criterion: majority_criterion_by_definition,
        check_weak_efficiency: weak_efficiency_by_definition,
        check_shift_symmetry: shift_symmetry_by_definition,
    }
    for p in small_profiles(m, n_max):
        for check, reference in one.items():
            yield (p,), partial(check, f, p), partial(reference, f, p)
        for voter in p.voters:
            yield (
                (p,),
                partial(check_strategyproofness, f, p, voter),
                partial(strategyproofness_by_definition, f, p, voter),
            )
            for new in canonical_intervals(m):
                yield (
                    (p,),
                    partial(check_strong_uncompromisingness, f, p, voter, new),
                    partial(strong_uncompromisingness_by_definition, f, p, voter, new),
                )
        ids = sorted(p.voters)
        for perm in itertools.permutations(ids):
            mapping = dict(zip(ids, perm))
            yield (
                (p,),
                partial(check_anonymity, f, p, mapping),
                partial(anonymity_by_definition, f, p, mapping),
            )
    for p1, p2 in _disjoint_pairs(m, n_max):
        yield (
            (p1, p2),
            partial(check_reinforcement, f, p1, p2),
            partial(reinforcement_by_definition, f, p1, p2),
        )
        yield (
            (p1, p2),
            partial(check_right_biased_continuity, f, p1, p2, lambda_max=4),
            partial(continuity_by_definition, f, p1, p2, lambda_max=4),
        )


class TestRewrittenCheckersAgainstDefinition:
    @pytest.mark.parametrize("m, n_max", [(3, 3), (4, 2)])
    def test_same_status_witnesses_and_detail(self, m, n_max):
        statuses = collections.defaultdict(set)
        for make in REFERENCE_RULES.values():
            f = make(m)
            for inputs, check, reference in checks_and_references(f, m, n_max):
                got = found(check())
                assert got == reference(), (f.name, inputs)
                statuses[check.func.__name__].add(got[0])
        # every checker meets a failing instance as well as a clean one;
        # at m = 4 two voters are too few to manipulate any of the rules
        assert all(len(seen) > 1 for seen in statuses.values()) or m == 4, statuses

    @pytest.mark.parametrize("m, n_max", [(3, 3), (4, 2)])
    def test_inputs_untouched_and_every_derived_profile_owns_its_dict(self, m, n_max):
        """A rule that keeps every profile it is given: no check changes
        its input profiles, and each profile it derives has a dict of its
        own that later derivations leave as it was."""
        kept = []
        rule = em(m)

        def keeping(p):
            kept.append((p, dict(p.voters)))
            return rule(p)

        f = RuleFn(m, keeping)
        for inputs, check, _ in checks_and_references(f, m, n_max):
            before = [dict(p.voters) for p in inputs]
            kept.clear()
            check()
            assert [dict(p.voters) for p in inputs] == before, inputs
            derived = [q for q, _ in kept if not any(q is p for p in inputs)]
            dicts = {id(q.voters) for q in derived}
            assert len(dicts) == len(derived), inputs
            assert not dicts & {id(p.voters) for p in inputs}, inputs
            assert all(q.voters == voters for q, voters in kept), inputs


class TestFastPathsOnProfilesNotBuiltFromTheTable:
    """Robustness and strategyproofness match derived intervals by table
    identity; on a profile read from JSON, whose intervals are not the
    table's objects, they give the same results after the same rule
    calls on the same profiles."""

    @pytest.mark.parametrize("m, n_max", [(3, 3), (4, 2)])
    def test_same_results_and_rule_calls(self, m, n_max):
        table = interval_table(m)
        for make in REFERENCE_RULES.values():
            f, calls = recorded(make(m))
            for p in _identified_profiles(m, n_max):
                q = Profile.from_json(p.to_json())
                assert not any(iv is t for iv in q.voters.values() for t in table)
                checks = [partial(check_robustness, f)] + [
                    partial(check_strategyproofness, f, voter=v) for v in sorted(p.voters)
                ]
                for check in checks:
                    runs = []
                    for profile in (p, q):
                        calls.clear()
                        runs.append((found(check(profile)), [list(c.voters.items()) for c in calls]))
                    assert runs[0] == runs[1], (f.name, p)


class TestContinuitySharesItsSatisfiedResults:
    def test_detail_is_read_only(self):
        p1, p2 = Profile(3, {1: Interval(1, 1)}), Profile(3, {2: Interval(3, 3)})
        result = check_right_biased_continuity(em(3), p1, p2, lambda_max=5)
        assert result.status == SATISFIED
        with pytest.raises(TypeError):
            result.detail["lambda"] = 7
        assert check_right_biased_continuity(em(3), p1, p2, lambda_max=5) is result

    @pytest.mark.parametrize("tag", ["em", "skewed", "log-parity", "even-voter-doubled"])
    def test_lambda_histogram_is_the_count_of_each_lambda(self, tag):
        f = REFERENCE_RULES[tag](3)
        bounds = SearchBounds(pair_budget=3, lambda_max=6)
        expected = collections.Counter()
        for p1, p2 in _disjoint_pairs(3, bounds.pair_budget):
            status, _, detail = continuity_by_definition(f, p1, p2, bounds.lambda_max)
            if status == SATISFIED:
                expected[str(detail["lambda"])] += 1
        for _ in range(2):  # a second campaign reuses the shared results
            histogram = falsify(f, "continuity", bounds).to_json()["lambda_histogram"]
            assert histogram == dict(sorted(expected.items(), key=lambda kv: int(kv[0])))


class TestPublicCheckersValidateTheirArguments:
    p = Profile(3, {1: Interval(1, 1), 2: Interval(3, 3)})

    def test_unknown_voter(self):
        with pytest.raises(NoSuchVoter, match="^no voter 7$"):
            check_strategyproofness(em(3), self.p, 7)
        with pytest.raises(NoSuchVoter, match="^no voter 7$"):
            check_strong_uncompromisingness(em(3), self.p, 7, Interval(1, 2))
        with pytest.raises(NoSuchVoter, match="^no voter '1'$"):
            check_strategyproofness(em(3), self.p, "1")

    @pytest.mark.parametrize(
        "run",
        [lambda p1, p2: check_right_biased_continuity(em(p1.m), p1, p2, 3), combine],
        ids=["continuity", "combine"],
    )
    def test_pairs_over_other_alternatives_or_with_shared_ids(self, run):
        p = Profile(3, {1: Interval(1, 1), "a": Interval(2, 3)})
        with pytest.raises(NotDisjoint, match=r"^shared voter ids: \['1', 'a'\]$"):
            run(p, Profile(3, {"a": Interval(3, 3), 1: Interval(1, 2), 5: Interval(2, 2)}))
        with pytest.raises(MismatchedAlternatives, match="^m mismatch: 3 vs 4$"):
            run(p, Profile(4, {2: Interval(4, 4)}))

    @pytest.mark.parametrize(
        "check, bounds",
        [
            (lambda: check_unanimity(em(3), 1, 0), {"n_max": 0}),
            (
                lambda: check_right_biased_continuity(
                    em(3), Profile(3, {1: Interval(1, 1)}), Profile(3, {2: Interval(3, 3)}), -1
                ),
                {"lambda_max": -1},
            ),
        ],
    )
    def test_bounds_that_check_nothing(self, check, bounds):
        """A bound under which the checker would check no electorate, or
        leave every pair that lambda = 0 does not decide undetermined, is
        refused as `SearchBounds` refuses it."""
        with pytest.raises(VotingError) as refused:
            SearchBounds(**bounds)
        with pytest.raises(VotingError, match=f"^{refused.value}$"):
            check()

    def test_new_interval_beyond_m_even_where_no_clause_applies(self):
        # winner x_2 lies right of voter 1's {x_1}; [1, 9] would keep its
        # right end right of the winner, so no clause applies
        with pytest.raises(InvalidAlternative, match=r"^interval \(1, 9\) exceeds m=3$"):
            check_strong_uncompromisingness(em(3), self.p, 1, Interval(1, 9))
        with pytest.raises(InvalidAlternative, match=r"^interval \(4, 4\) exceeds m=3$"):
            check_strong_uncompromisingness(em(3), self.p, 2, Interval(4, 4))
