"""Weak orders, the closed-form preference test and witness
construction, and the enumeration oracle they are checked against."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intervalvote.core import Interval, TooLarge, VotingError, canonical_intervals
from intervalvote.preferences import (
    WeakOrder,
    first_wsp_witness,
    is_wsp_with_plateau,
    some_wsp_prefers,
)
from wsp_oracle import (
    NotWeaklySinglePeaked,
    enumerate_weak_orders,
    enumerate_wsp_with_plateau,
    is_weakly_single_peaked,
    top_set,
    weakly_prefers,
)


def order(m, *levels):
    return WeakOrder(m, tuple(frozenset(cls) for cls in levels))


class TestWeakOrder:
    def test_partition_enforced(self):
        with pytest.raises(VotingError):
            order(3, {1, 2}, {2, 3})
        with pytest.raises(VotingError):
            order(3, {1}, {2})
        with pytest.raises(VotingError):
            WeakOrder(2, (frozenset(), frozenset({1, 2})))

    def test_preference_queries(self):
        w = order(3, {2}, {1, 3})
        assert w.strictly_prefers(2, 1)
        assert weakly_prefers(w, 1, 3) and weakly_prefers(w, 3, 1)
        assert not w.strictly_prefers(1, 3)

    def test_json(self):
        assert order(3, {2, 3}, {1}).to_json() == [[2, 3], [1]]


class TestWeakSinglePeakedness:
    def test_monotone_orders(self):
        assert is_weakly_single_peaked(order(3, {1}, {2}, {3}))
        assert is_weakly_single_peaked(order(3, {3}, {2}, {1}))
        assert is_weakly_single_peaked(order(3, {2}, {1, 3}))

    def test_valley_rejected(self):
        assert not is_weakly_single_peaked(order(3, {1, 3}, {2}))

    def test_peak_neighbor_pair_matters(self):
        # peak 3 would need 2 over 1, peak 1 would need 2 over 3
        assert not is_weakly_single_peaked(order(3, {3}, {1}, {2}))

    def test_plateau_orders(self):
        assert is_weakly_single_peaked(order(4, {2, 3}, {1, 4}))
        assert is_weakly_single_peaked(order(4, {2, 3}, {4}, {1}))

    def test_counts_m3(self):
        # 13 weak orders on 3 alternatives; exactly 3 fail the check:
        # the valley order and the two broken ladders 1>3>2 and 3>1>2
        orders = enumerate_weak_orders(3)
        assert sum(is_weakly_single_peaked(w) for w in orders) == 10


class TestEnumeration:
    def test_ordered_bell_numbers(self):
        assert len(enumerate_weak_orders(3)) == 13
        assert len(enumerate_weak_orders(4)) == 75
        assert len(enumerate_weak_orders(5)) == 541

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_weak_orders(6)
        enumerate_weak_orders(6, guard=6)

    def test_deterministic(self):
        a = [w.levels for w in enumerate_weak_orders(4)]
        b = [w.levels for w in enumerate_weak_orders(4)]
        assert a == b

    @given(st.integers(2, 5))
    def test_all_distinct(self, m):
        orders = enumerate_weak_orders(m)
        assert len({w.levels for w in orders}) == len(orders)


class TestPlateau:
    def test_top_set(self):
        assert top_set(order(4, {2, 3}, {1, 4})) == Interval(2, 3)
        with pytest.raises(NotWeaklySinglePeaked):
            top_set(order(4, {1, 3}, {2, 4}))

    def test_plateau_enumeration_tops(self):
        plateau = Interval(2, 3)
        for w in enumerate_wsp_with_plateau(4, plateau):
            assert top_set(w) == plateau
            assert is_weakly_single_peaked(w)

    def test_singleton_plateau_tail_orders(self):
        # peak x_2 on 3 alternatives: the two sides can be ordered
        # either way or tied, giving 3 orders
        assert len(enumerate_wsp_with_plateau(3, Interval(2, 2))) == 3

    def test_full_interval_plateau(self):
        # total indifference is the only order whose plateau is everything
        orders = enumerate_wsp_with_plateau(3, Interval(1, 3))
        assert len(orders) == 1

    def test_subset_of_wsp_orders(self):
        all_wsp = [
            w for w in enumerate_weak_orders(4) if is_weakly_single_peaked(w)
        ]
        by_plateau = []
        for iv in [
            Interval(l, r)
            for l in range(1, 5)
            for r in range(l, 5)
        ]:
            by_plateau.extend(enumerate_wsp_with_plateau(4, iv))
        assert {w.levels for w in by_plateau} == {w.levels for w in all_wsp}


def _cases(m):
    """Every (plateau, o, h) with o != h at m, with the oracle's orders
    for the plateau that strictly prefer o to h, in enumeration order."""
    for plateau in canonical_intervals(m):
        orders = enumerate_wsp_with_plateau(m, plateau, guard=m)
        for o in range(1, m + 1):
            for h in range(1, m + 1):
                if o != h:
                    yield plateau, o, h, [w for w in orders if w.strictly_prefers(o, h)]


class TestClosedForm:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_some_wsp_prefers_matches_enumeration(self, m):
        for plateau, o, h, preferring in _cases(m):
            assert some_wsp_prefers(plateau, o, h) == bool(preferring), (plateau, o, h)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_first_witness_is_first_enumerated(self, m):
        for plateau, o, h, preferring in _cases(m):
            if preferring:
                assert first_wsp_witness(m, plateau, o, h) == preferring[0], (plateau, o, h)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_plateau_membership_matches_enumeration(self, m):
        orders = enumerate_weak_orders(m)
        for plateau in canonical_intervals(m):
            expected = set(enumerate_wsp_with_plateau(m, plateau))
            assert {w for w in orders if is_wsp_with_plateau(w, plateau)} == expected

    def test_witness_beyond_the_enumeration_cap(self):
        # peak x_5 of 9: x_4 comes first, x_3 must wait until x_7 is in
        w = first_wsp_witness(9, Interval(5, 5), 7, 3)
        assert w.to_json() == [[5], [4], [6], [7], [3], [2], [1], [8], [9]]
        assert is_weakly_single_peaked(w) and w.strictly_prefers(7, 3)

    def test_no_witness_raises(self):
        with pytest.raises(VotingError):  # x_2 is on the plateau
            first_wsp_witness(4, Interval(2, 3), 1, 2)
        with pytest.raises(VotingError):  # x_2 lies between x_1 and the plateau
            first_wsp_witness(5, Interval(3, 3), 1, 2)
