"""Weak orders and the weakly single-peaked orders with a given plateau.

A weak order is an ordered partition of {1..m} into indifference
classes, best class first.  It is weakly single-peaked exactly when the
union of its first k classes is an interval for every k, so an order
with top class `plateau` is a chain of extensions of `plateau`: each
further class adds some alternatives next to the covered interval on
its left and some on its right.  Strategyproofness needs only whether
such an order strictly prefers one alternative to another, and one
such order as a witness; both are computed directly here.
"""

from __future__ import annotations

from .core import Interval, Value, VotingError


class WeakOrder(Value):
    """Complete transitive preference as an ordered partition."""

    _fields = ("m", "levels")

    def __init__(self, m: int, levels: tuple[frozenset[int], ...]):
        seen: set[int] = set()
        for cls in levels:
            if not cls:
                raise VotingError("indifference classes must be non-empty")
            if cls & seen:
                raise VotingError("indifference classes must be disjoint")
            seen |= cls
        if seen != set(range(1, m + 1)):
            raise VotingError("classes must partition the alternatives")
        self.__dict__.update(m=m, levels=tuple(frozenset(c) for c in levels))

    def rank(self, a: int) -> int:
        for idx, cls in enumerate(self.levels):
            if a in cls:
                return idx
        raise VotingError(f"alternative {a} out of range")

    def strictly_prefers(self, a: int, b: int) -> bool:
        return self.rank(a) < self.rank(b)

    def to_json(self) -> list[list[int]]:
        return [sorted(cls) for cls in self.levels]


def some_wsp_prefers(plateau: Interval, o: int, h: int) -> bool:
    """Whether some weakly single-peaked order with top class `plateau`
    strictly prefers alternative `o` to alternative `h`.

    Every upper contour set of such an order is an interval containing
    the plateau, so `o` can be ranked above `h` exactly when `h` is off
    the plateau and `o` lies on the same side of `h` as the plateau.
    """
    if h < plateau.left:
        return o > h
    if h > plateau.right:
        return o < h
    return False


def is_wsp_with_plateau(order: WeakOrder, plateau: Interval) -> bool:
    """Whether `order` is weakly single-peaked with top class `plateau`:
    its top class is the plateau and each further class extends the
    covered interval to a larger interval."""
    if order.levels[0] != frozenset(plateau.alternatives()):
        return False
    lo, hi = plateau.left, plateau.right
    for cls in order.levels[1:]:
        new_lo, new_hi = min(lo, min(cls)), max(hi, max(cls))
        # the classes are disjoint, so cls fills the gap exactly when
        # it has as many alternatives as the interval grew by
        if len(cls) != (new_hi - new_lo) - (hi - lo):
            return False
        lo, hi = new_lo, new_hi
    return True


def first_wsp_witness(m: int, plateau: Interval, o: int, h: int) -> WeakOrder:
    """The first weakly single-peaked order with top class `plateau` that
    strictly prefers `o` to `h`.

    Orders are ranked as ordered partitions of the other alternatives,
    each next class chosen by ascending subset mask over them in
    increasing order; this fixes which witness a campaign reports.  In
    that ranking the extensions of the covered interval [lo, hi] start
    with {x_{lo-1}}, then the other left-only classes, all of which hold
    x_{lo-1}, then {x_{hi+1}}.  So the first witness ranks one
    alternative per class: the next on the left, unless that is `h`
    while `o` is not yet ranked, and otherwise the next on the right.
    """
    plateau.validate(m)
    if not some_wsp_prefers(plateau, o, h):
        raise VotingError(
            f"no weakly single-peaked order with plateau "
            f"[{plateau.left}, {plateau.right}] prefers {o} to {h}"
        )
    lo, hi = plateau.left, plateau.right
    levels = [frozenset(plateau.alternatives())]
    while lo > 1 or hi < m:
        if lo > 1 and (lo - 1 != h or lo <= o <= hi):
            lo -= 1
            levels.append(frozenset((lo,)))
        else:
            hi += 1
            levels.append(frozenset((hi,)))
    return WeakOrder(m, tuple(levels))
