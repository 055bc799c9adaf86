"""Enumeration of weak orders and weakly single-peaked orders.

The reference the closed-form preference test and witness construction
of `intervalvote.preferences` are checked against: it lists every
ordered partition and filters it with the quantifier definition of weak
single-peakedness.  Enumeration is capped because the number of weak
orders grows super-exponentially (13 on 3 elements, 75 on 4, 541 on 5).
"""

from __future__ import annotations

from typing import Iterator

from intervalvote.core import Interval, TooLarge, VotingError
from intervalvote.preferences import WeakOrder

DEFAULT_GUARD = 5


class NotWeaklySinglePeaked(VotingError):
    pass


def weakly_prefers(w: WeakOrder, a: int, b: int) -> bool:
    return w.rank(a) <= w.rank(b)


def is_weakly_single_peaked(w: WeakOrder) -> bool:
    """Direct quantifier check: some peak x such that preference weakly
    decreases step by step when moving away from x in either direction."""
    alts = range(1, w.m + 1)
    for x in alts:
        ok = True
        for y in alts:
            for z in alts:
                if (x <= y < z) or (z < y <= x):
                    if not weakly_prefers(w, y, z):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return True
    return False


def top_set(w: WeakOrder) -> Interval:
    """The best indifference class as an interval.

    For weakly single-peaked orders the top class is always contiguous;
    a gap signals a caller bug.
    """
    best = sorted(w.levels[0])
    if best[-1] - best[0] + 1 != len(best):
        raise NotWeaklySinglePeaked(
            f"top class {best} is not contiguous"
        )
    return Interval(best[0], best[-1])


def _ordered_partitions(items: tuple[int, ...]) -> Iterator[tuple[frozenset[int], ...]]:
    """All ordered set partitions of `items`, deterministic order."""
    if not items:
        yield ()
        return
    n = len(items)
    # choose the top block as any non-empty subset, then recurse
    for mask in range(1, 1 << n):
        block = frozenset(items[j] for j in range(n) if mask >> j & 1)
        remaining = tuple(items[j] for j in range(n) if not mask >> j & 1)
        for tail in _ordered_partitions(remaining):
            yield (block,) + tail


def enumerate_weak_orders(m: int, guard: int = DEFAULT_GUARD) -> list[WeakOrder]:
    if m > guard:
        raise TooLarge(f"weak-order enumeration capped at m <= {guard}")
    return [
        WeakOrder(m, levels)
        for levels in _ordered_partitions(tuple(range(1, m + 1)))
    ]


def enumerate_wsp_with_plateau(
    m: int, plateau: Interval, guard: int = DEFAULT_GUARD
) -> list[WeakOrder]:
    """All weakly single-peaked weak orders whose top class is `plateau`."""
    if m > guard:
        raise TooLarge(f"weak-order enumeration capped at m <= {guard}")
    plateau.validate(m)
    top = frozenset(plateau.alternatives())
    rest = tuple(a for a in range(1, m + 1) if a not in top)
    out = []
    for tail in _ordered_partitions(rest):
        w = WeakOrder(m, (top,) + tail)
        if is_weakly_single_peaked(w):
            out.append(w)
    return out
