"""Domain primitives: intervals, profiles, anonymization, rationals."""

import gc
import importlib
import itertools
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intervalvote.core import (
    _copies,
    AnonProfile,
    CannotShrink,
    Interval,
    InvalidAlternative,
    InvalidAlternativeCount,
    MismatchedAlternatives,
    NoSuchVoter,
    NotDisjoint,
    Profile,
    VotingError,
    anonymize,
    canonical_index,
    canonical_intervals,
    combine,
    decoding,
    delete_endpoint,
    interval_grid,
    interval_table,
    parse_rational,
    render_rational,
    replicate,
    replications,
    robust_step,
    TooLarge,
)
from intervalvote.axioms import RuleFn, check_anonymity, check_shift_symmetry
from intervalvote.rules import endpoint_median_rule
from intervalvote.search import (
    SearchBounds,
    _disjoint_pairs,
    _identified_profiles,
    _profiles,
    _renamings,
    _voters,
    falsify,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=10**6
)


@st.composite
def profiles(draw, m_max=5, n_max=6):
    m = draw(st.integers(2, m_max))
    options = canonical_intervals(m)
    n = draw(st.integers(1, n_max))
    voters = {v: draw(st.sampled_from(options)) for v in range(1, n + 1)}
    return Profile(m, voters)


class TestRationals:
    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(render_rational(x)) == x

    def test_parse_forms(self):
        assert parse_rational("3/6") == Fraction(1, 2)
        assert parse_rational("2") == 2
        assert parse_rational(" -1/2 ") == Fraction(-1, 2)
        assert parse_rational(Fraction(5, 7)) == Fraction(5, 7)

    def test_render_lowest_terms(self):
        assert render_rational(Fraction(4, 8)) == "1/2"
        assert render_rational(Fraction(6, 3)) == "2"

    def test_zero_denominator_rejected(self):
        with pytest.raises(VotingError):
            parse_rational("1/0")
        with pytest.raises(VotingError):
            parse_rational("1/-2")

    @pytest.mark.parametrize("value", [True, False, 0.5])
    def test_json_bool_and_float_rejected(self, value):
        with pytest.raises(VotingError):
            parse_rational(value)


def slow_parse_rational(s) -> Fraction:
    """`parse_rational` as it was written before its str fast path."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    num, slash, den = str(s).strip().partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        raise VotingError(f"not an integer or 'p/q' rational: {s!r}") from None
    if q <= 0:
        raise VotingError(f"denominator must be positive: {s!r}")
    return Fraction(p, q)


def outcome(fn, value):
    try:
        return "value", fn(value)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestParseRationalFastPath:
    @pytest.mark.parametrize(
        "value",
        [
            "1/2", " 1/2 ", "1 /2", "+1/2", "-1/2", "1/-2", "1/0", "/2", "1/", "",
            "1.5", "\u0661/\u0662", "\t3\n", "1/2/3", " ", "x", "7",
            3, -4, 0, True, False, Fraction(5, 7), 0.5, None, [1, 2],
        ],
    )
    def test_agrees_with_the_slow_path(self, value):
        assert outcome(parse_rational, value) == outcome(slow_parse_rational, value)

    @given(st.text(alphabet=" /+-0123456789\u0661\u00a0", max_size=8))
    def test_agrees_on_short_strings(self, text):
        assert outcome(parse_rational, text) == outcome(slow_parse_rational, text)


class TestDecoding:
    def test_input_errors_become_voting_errors(self):
        for raised, message in [
            (KeyError("voters"), "malformed profile: missing field 'voters'"),
            (TypeError("bad type"), "malformed profile: bad type"),
            (ValueError("bad value"), "malformed profile: bad value"),
        ]:
            with pytest.raises(VotingError) as info:
                with decoding("profile"):
                    raise raised
            assert type(info.value) is VotingError
            assert str(info.value) == message
            assert info.value.__cause__ is raised

    @pytest.mark.parametrize(
        "raised", [VotingError("x"), TooLarge("y"), NoSuchVoter("z"), AttributeError("a"), ZeroDivisionError()]
    )
    def test_others_pass_unchanged(self, raised):
        with pytest.raises(type(raised)) as info:
            with decoding("rule"):
                raise raised
        assert info.value is raised

    def test_no_error_no_change(self):
        with decoding("rule") as entered:
            value = 1
        assert entered is None and value == 1


class TestInterval:
    def test_bad_bounds(self):
        with pytest.raises(InvalidAlternative):
            Interval(3, 2)
        with pytest.raises(InvalidAlternative):
            Interval(0, 1)
        with pytest.raises(InvalidAlternative):
            Interval(1, 4).validate(3)

    def test_queries(self):
        iv = Interval(2, 4)
        assert (iv.left, iv.right) == (2, 4)
        assert not iv.is_singleton()
        assert list(iv.alternatives()) == [2, 3, 4]
        assert Interval(3, 3).is_singleton()


class TestCanonicalOrder:
    def test_count(self):
        # q = m(m+1)/2
        assert len(canonical_intervals(2)) == 3
        assert len(canonical_intervals(4)) == 10
        assert len(canonical_intervals(8)) == 36

    def test_m_guard(self):
        with pytest.raises(InvalidAlternativeCount):
            canonical_intervals(1)

    def test_sorted_by_left_then_right(self):
        ivs = canonical_intervals(3)
        assert ivs == [
            Interval(1, 1), Interval(1, 2), Interval(1, 3),
            Interval(2, 2), Interval(2, 3), Interval(3, 3),
        ]

    @pytest.mark.parametrize("m", range(2, 9))
    def test_grid_holds_the_table_objects(self, m):
        table = interval_table(m)
        grid = interval_grid(m)
        for l in range(1, m + 1):
            for r in range(l, m + 1):
                iv = table[canonical_index(m, Interval(l, r))]
                assert grid[l][r] is iv
        assert sum(iv is not None for row in grid for iv in row) == len(table)

    @given(st.integers(2, 8))
    def test_index_is_bijective(self, m):
        ivs = canonical_intervals(m)
        assert [canonical_index(m, iv) for iv in ivs] == list(range(len(ivs)))


class TestProfile:
    def test_json_round_trip(self):
        p = Profile(3, {1: Interval(1, 2), "a": Interval(3, 3)})
        assert Profile.from_json(p.to_json()) == p

    def test_duplicate_id_rejected(self):
        data = {
            "m": 2,
            "voters": [
                {"id": 1, "interval": [1, 1]},
                {"id": 1, "interval": [2, 2]},
            ],
        }
        with pytest.raises(VotingError):
            Profile.from_json(data)

    @pytest.mark.parametrize("vid", [True, 1.0, None, (1,)])
    def test_id_neither_int_nor_string_rejected(self, vid):
        # copies of a profile are kept apart by id type: 5.0 == 5
        with pytest.raises(VotingError, match="voter id must be an int or a string"):
            Profile(2, {vid: Interval(1, 1)})
        if not isinstance(vid, tuple):
            data = {"m": 2, "voters": [{"id": vid, "interval": [1, 1]}]}
            with pytest.raises(VotingError, match="voter id must be an int or a string"):
                Profile.from_json(data)

    def test_missing_voter(self):
        p = Profile(2, {1: Interval(1, 1)})
        with pytest.raises(NoSuchVoter):
            p.interval(2)
        with pytest.raises(NoSuchVoter):
            p.with_interval(2, Interval(1, 1))

    def test_out_of_range_interval_rejected(self):
        p = Profile(2, {1: Interval(1, 1)})
        with pytest.raises(InvalidAlternative):
            Profile(2, {1: Interval(1, 3)})
        with pytest.raises(InvalidAlternative):
            p.with_interval(1, Interval(2, 3))

    def test_empty_rejected(self):
        with pytest.raises(VotingError):
            Profile(3, {})


class TestAnonymize:
    @given(profiles())
    def test_counts_sum_to_n(self, p):
        assert anonymize(p).n == p.n

    @given(profiles(), st.randoms())
    def test_permutation_invariance(self, p, rng):
        ids = list(p.voters)
        shuffled = list(ids)
        rng.shuffle(shuffled)
        q = Profile(p.m, {b: p.voters[a] for a, b in zip(ids, shuffled)})
        assert anonymize(q) == anonymize(p)

    @given(profiles(), profiles())
    def test_additivity(self, p1, p2):
        if p1.m != p2.m:
            return
        relabeled = Profile(
            p2.m, {f"b{v}": iv for v, iv in p2.voters.items()}
        )
        both = combine(p1, relabeled)
        summed = [a + b for a, b in zip(anonymize(p1).counts, anonymize(relabeled).counts)]
        assert anonymize(both) == AnonProfile(p1.m, tuple(summed))

    def test_to_profile_round_trip(self):
        anon = AnonProfile(2, (2, 1, 0))
        p = anon.to_profile()
        assert anon.n == p.n == 3
        assert anonymize(p) == anon

    @pytest.mark.parametrize(
        "counts", [(1.5, 0, 0), (1.0, 0, 0), (True, 0, 0), (1, False, 1), (Fraction(1), 0, 0)]
    )
    def test_non_integer_counts_rejected(self, counts):
        # n = 1.5 would reach the exact winner tests as a float
        with pytest.raises(VotingError, match="counts must be integers"):
            AnonProfile(2, counts)

    @pytest.mark.parametrize("m, counts", [(1, (2,)), (0, ()), (-3, (1,) * 3)])
    def test_too_few_alternatives(self, m, counts):
        with pytest.raises(InvalidAlternativeCount):
            AnonProfile(m, counts)


class TestDeleteEndpoint:
    def test_shrinks_one_side(self):
        p = Profile(4, {1: Interval(2, 4)})
        assert delete_endpoint(p, 1, "left").interval(1) == Interval(3, 4)
        assert delete_endpoint(p, 1, "right").interval(1) == Interval(2, 3)

    def test_singleton_rejected(self):
        p = Profile(4, {1: Interval(2, 2)})
        with pytest.raises(CannotShrink):
            delete_endpoint(p, 1, "left")

    def test_bad_side(self):
        p = Profile(4, {1: Interval(2, 4)})
        with pytest.raises(VotingError):
            delete_endpoint(p, 1, "middle")

    def test_robust_step_is_the_robustness_disjunction(self):
        # every interval, side and winner pair for m <= 4, against the
        # disjunction as the paper states it
        for m in (2, 3, 4):
            for iv in canonical_intervals(m):
                for side, before, after in itertools.product(
                    ("left", "right"), range(1, m + 1), range(1, m + 1)
                ):
                    expected = (
                        before == after
                        or (side == "left" and before == iv.left and after == iv.left + 1)
                        or (side == "right" and before == iv.right and after == iv.right - 1)
                    )
                    assert robust_step(iv, side, before, after) == expected


class TestCombineReplicate:
    def test_combine_disjointness(self):
        p = Profile(2, {1: Interval(1, 1)})
        with pytest.raises(NotDisjoint):
            combine(p, p)
        with pytest.raises(MismatchedAlternatives):
            combine(p, Profile(3, {2: Interval(1, 1)}))

    @given(profiles(), st.integers(1, 4))
    def test_replicate_preserves_multiset(self, p, k):
        big = replicate(p, k)
        assert big.n == k * p.n
        assert anonymize(big).counts == tuple(
            k * c for c in anonymize(p).counts
        )

    def test_replicate_preserves_integer_parity(self):
        p = Profile(2, {1: Interval(1, 1), 2: Interval(2, 2)})
        big = replicate(p, 3)
        # copies of an even-id voter keep even ids, same for odd
        evens = [v for v in big.voters if v % 2 == 0]
        assert len(evens) == 3
        assert all(big.voters[v] == Interval(2, 2) for v in evens)

    def test_replicate_avoids_reserved_ids(self):
        p = Profile(2, {1: Interval(1, 1)})
        big = replicate(p, 5, avoid_ids=[2, 99])
        assert not set(big.voters) & {2, 99}

    def test_replications_refuse_what_combine_refuses(self):
        p = Profile(2, {"a": Interval(1, 1)})
        # the separator is a longer run of "#" than any id holds, so no
        # copy meets "a#2" and both constructions give the same profile
        rest = Profile(2, {"a#2": Interval(2, 2)})
        steps = replications(p, rest)
        assert list(next(steps).voters) == ["a##1", "a#2"]
        assert next(steps) == combine(replicate(p, 2, avoid_ids=rest.voters), rest)
        with pytest.raises(MismatchedAlternatives):
            next(replications(p, Profile(3, {"b": Interval(1, 1)})))

    @given(
        st.lists(st.one_of(st.integers(-9, 9), st.text("a#1", max_size=4)), min_size=1, unique=True),
        st.lists(st.one_of(st.integers(-30, 30), st.text("a#12", max_size=5)), max_size=6),
        st.integers(1, 4),
    )
    # an avoided id shaped like a copy's, and an int and a string that
    # print alike
    @example(["a"], ["a#2"], 2)
    @example([1, "1"], [], 2)
    def test_copies_reuse_no_id(self, ids, avoid, k):
        p = Profile(2, {v: Interval(1, 1 + i % 2) for i, v in enumerate(ids)})
        big = replicate(p, k, avoid_ids=avoid)
        assert big.n == k * p.n
        assert not big.voters.keys() & (set(ids) | set(avoid))
        assert anonymize(big).counts == tuple(k * c for c in anonymize(p).counts)


def slow_copies(p, avoid_ids):
    """`core._copies` as it was written before its list comprehensions."""
    ids = [*p.voters, *avoid_ids]
    bound = max((abs(v) for v in ids if isinstance(v, int)), default=0)
    stride = 2 * (bound + 1)
    sep = "#"
    while any(sep in v for v in ids if isinstance(v, str)):
        sep += "#"
    for k in itertools.count(1):
        offset = k * stride
        yield {
            v + offset if isinstance(v, int) else f"{v}{sep}{k}": iv
            for v, iv in p.voters.items()
        }


class TestCopiesAgainstTheSlowPath:
    @pytest.mark.parametrize(
        "ids, avoid",
        [
            ([1, 2, 3], []),
            ([-7, 2], [-30, 5]),
            (["a", "b"], ["c"]),
            (["a#", "#b", "a##1"], ["###"]),
            ([1, "1", "x#2", -3], [None, "y##", 40]),
            ([4], [None, True]),
            (["z"], [None]),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_replicate_and_replications_keep_the_ids(self, ids, avoid, k):
        p = Profile(2, {v: Interval(1, 1 + i % 2) for i, v in enumerate(ids)})
        expected = {}
        for copy in itertools.islice(slow_copies(p, avoid), k):
            expected.update(copy)
        assert list(replicate(p, k, avoid_ids=avoid).voters.items()) == list(expected.items())
        # a profile's ids are ints or strings: None and bools are only avoided
        kept = [v for v in avoid if type(v) in (int, str)]
        if kept:
            rest = Profile(2, {v: Interval(2, 2) for v in kept})
            grown = {}
            steps = zip(slow_copies(p, rest.voters), replications(p, rest))
            for copy, step in itertools.islice(steps, k):
                grown.update(copy)
                assert list(step.voters.items()) == [*grown.items(), *rest.voters.items()]

    @given(
        st.lists(st.one_of(st.integers(-9, 9), st.text("a#1", max_size=4)), min_size=1, unique=True),
        st.lists(st.one_of(st.none(), st.integers(-30, 30), st.text("a#12", max_size=5)), max_size=6),
    )
    def test_every_copy_keeps_the_ids(self, ids, avoid):
        p = Profile(2, {v: Interval(1, 1 + i % 2) for i, v in enumerate(ids)})
        got = itertools.islice(_copies(p, avoid), 3)
        assert list(got) == list(itertools.islice(slow_copies(p, avoid), 3))


def assert_trusted(q, parent):
    """A derived profile equals its validated rebuild, owns its dict and
    stores its voter count."""
    assert q == Profile(q.m, dict(q.voters))
    assert q.voters is not parent.voters
    assert q.n == len(q.voters)


class TestTrustedDerivations:
    """Derived profiles skip validation; each must still be a profile the
    validating constructor accepts unchanged."""

    @given(profiles())
    def test_validated_constructions_store_n(self, p):
        assert p.n == len(p.voters)
        loaded = Profile.from_json(p.to_json())
        assert loaded.n == len(loaded.voters) == p.n
        assert anonymize(p).n == p.n

    @given(profiles(), st.data())
    def test_with_interval(self, p, data):
        voter = data.draw(st.sampled_from(sorted(p.voters)))
        iv = data.draw(st.sampled_from(canonical_intervals(p.m)))
        q = p.with_interval(voter, iv)
        assert_trusted(q, p)
        assert q.interval(voter) == iv

    @given(profiles())
    def test_delete_endpoint(self, p):
        for voter, iv in p.voters.items():
            if iv.is_singleton():
                continue
            for side, shrunk in (
                ("left", Interval(iv.left + 1, iv.right)),
                ("right", Interval(iv.left, iv.right - 1)),
            ):
                q = delete_endpoint(p, voter, side)
                assert_trusted(q, p)
                assert q.interval(voter) == shrunk

    @given(profiles(), st.integers(1, 3))
    def test_combine_and_replicate(self, p, k):
        other = Profile(p.m, {f"b{v}": iv for v, iv in p.voters.items()})
        both = combine(p, other)
        assert_trusted(both, p)
        assert both.voters is not other.voters
        big = replicate(p, k, avoid_ids=[0])
        assert_trusted(big, p)
        assert big.n == k * p.n
        for lam, grown in zip(range(1, k + 1), replications(p, other)):
            assert_trusted(grown, other)
            assert grown.n == lam * p.n + other.n

    @pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1)])
    def test_enumerated_profiles(self, m, n):
        seen = list(_profiles(m, n, first_id=4))
        assert len(set(map(anonymize, seen))) == len(seen)
        for q in seen:
            assert q == Profile(m, dict(q.voters))
            assert q.n == n
            assert sorted(q.voters) == list(range(4, 4 + n))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_enumerated_profile_is_a_validated_one(self, m):
        for n in (1, 2, 3):
            for q in _profiles(m, n, first_id=2):
                built = Profile(m, dict(q.voters))
                assert type(q) is Profile and q == built
                assert q.n == built.n == n
                assert q._histogram is None

    def test_budget_refused_at_the_first_profile(self, monkeypatch):
        # m = 3 has 6, then 21 profiles of 1 and 2 voters
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "21")
        assert [q.n for q in _identified_profiles(3, 2)] == [1] * 6 + [2] * 21
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "10")
        stream = _profiles(3, 2)  # nothing is counted at the call
        with pytest.raises(TooLarge, match="enumeration of 21 profiles exceeds budget 10"):
            next(stream)
        # a sweep over several sizes is refused before its first profile,
        # at the least size over the budget, though its 6 one-voter
        # profiles are within it
        for sweep in (
            lambda: _identified_profiles(3, 4),
            lambda: _disjoint_pairs(3, 5),
            lambda: _voters(3, 4),
        ):
            with pytest.raises(TooLarge, match="enumeration of 21 profiles exceeds budget 10"):
                next(sweep())
        # 6 one-voter instances, then 21 * 2 = 42 renamings of two voters
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "41")
        with pytest.raises(TooLarge, match="anonymity campaign of 42 instances exceeds budget 41"):
            next(_renamings(3, 3))

    @given(profiles(), st.randoms())
    def test_anonymity_and_shift_constructions(self, p, rng):
        seen = []
        f = RuleFn(p.m, lambda q: seen.append(q) or 1)
        ids = sorted(p.voters)
        perm = dict(zip(ids, rng.sample(ids, len(ids))))
        check_anonymity(f, p, perm)
        renamed = seen[-1]
        assert_trusted(renamed, p)
        assert renamed.voters == {perm[v]: iv for v, iv in p.voters.items()}
        seen.clear()
        check_shift_symmetry(f, p)
        if seen:  # not vacuous: every interval could move right
            shifted = seen[-1]
            assert_trusted(shifted, p)
            assert shifted.voters == {
                v: Interval(iv.left + 1, iv.right + 1) for v, iv in p.voters.items()
            }

    def test_campaign_validates_no_profile(self, monkeypatch):
        f = RuleFn.from_ptr(endpoint_median_rule(3))
        validated = []
        original = Profile.__post_init__

        def counting(self):
            validated.append(self)
            original(self)

        monkeypatch.setattr(Profile, "__post_init__", counting)
        campaign = falsify(f, "robustness", SearchBounds(n_max=2))
        assert campaign.checked == 6 + 21
        assert validated == []


def test_reimported_modules_are_released():
    """A fresh import of the package, as the benchmark makes one per
    set-up, leaves nothing that keeps an earlier import alive: no
    process-wide cache (such as the one behind a module-level `typing`
    alias) may hold one of the package's classes."""
    layers = ("core", "rules", "preferences", "axioms", "search", "cli")
    ours = lambda: [k for k in sys.modules if k.split(".")[0] == "intervalvote"]
    saved = {k: sys.modules[k] for k in ours()}
    classes = []
    try:
        for _ in range(5):
            for name in ours():
                del sys.modules[name]
            for layer in layers:
                importlib.import_module(f"intervalvote.{layer}")
            classes.append(weakref.ref(sys.modules["intervalvote.core"].Profile))
        gc.collect()
        assert [ref() is not None for ref in classes] == [False] * 4 + [True]
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
