"""Domain primitives: alternatives, intervals, profiles, exact rationals.

Alternatives are 1-based indices into the fixed left-to-right order, so
x_a is left of x_b exactly when a < b and the "left-most" element of a
set is its minimum index.  All scalars that enter winner comparisons are
integers or `fractions.Fraction`; no floats appear anywhere in rule
evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

VoterId = int | str


class VotingError(ValueError):
    """Base class for domain violations."""


class InvalidAlternativeCount(VotingError):
    pass


class InvalidAlternative(VotingError):
    pass


class CannotShrink(VotingError):
    pass


class NoSuchVoter(VotingError):
    pass


class NotDisjoint(VotingError):
    pass


class MismatchedAlternatives(VotingError):
    pass


class TooLarge(VotingError):
    """An enumeration or search would exceed its size guard or budget."""


class decoding:
    """Report malformed input read inside the block as a VotingError.

    A KeyError, TypeError or ValueError raised while `what` is decoded
    means its JSON has the wrong shape; a VotingError passes through
    unchanged.  A class rather than a generator-based context manager,
    since every rule, profile and violation decode enters one.
    """

    __slots__ = ("what",)

    def __init__(self, what: str):
        self.what = what

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> bool:
        if kind is None or issubclass(kind, VotingError):
            return False
        if issubclass(kind, KeyError):
            raise VotingError(f"malformed {self.what}: missing field {exc}") from exc
        if issubclass(kind, (TypeError, ValueError)):
            raise VotingError(f"malformed {self.what}: {exc}") from exc
        return False


def json_int(value) -> int:
    """An integer read from JSON: an int or an integer string.

    A float or a bool is refused with TypeError rather than truncated;
    call it inside `decoding`, which reports that as a VotingError.
    """
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def parse_rational(s) -> Fraction:
    """Parse a rational from a "p/q" string (or plain integer string)."""
    text = s
    if type(s) is not str:
        if isinstance(s, Fraction):
            return s
        if isinstance(s, int) and not isinstance(s, bool):
            return Fraction(s)
        text = str(s)
    # int() ignores the whitespace around each part
    num, slash, den = text.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        raise VotingError(f"not an integer or 'p/q' rational: {s!r}") from None
    if q <= 0:
        raise VotingError(f"denominator must be positive: {s!r}")
    return Fraction(p, q)


def render_rational(x: Fraction) -> str:
    """Render a rational as "p/q" in lowest terms ("3" for integers)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Interval:
    """A contiguous set of alternatives {x_left, ..., x_right}."""

    left: int
    right: int

    def __post_init__(self):
        if not (1 <= self.left <= self.right):
            raise InvalidAlternative(f"bad interval ({self.left}, {self.right})")

    def validate(self, m: int) -> None:
        if self.right > m:
            raise InvalidAlternative(
                f"interval ({self.left}, {self.right}) exceeds m={m}"
            )

    def is_singleton(self) -> bool:
        return self.left == self.right

    def alternatives(self) -> range:
        return range(self.left, self.right + 1)


def canonical_intervals(m: int) -> list[Interval]:
    """All q = m(m+1)/2 intervals, sorted by (left, right).

    This order is the index contract for anonymized count vectors and
    for the JSON file formats.
    """
    if m < 2:
        raise InvalidAlternativeCount(f"need m >= 2, got {m}")
    return [Interval(l, r) for l in range(1, m + 1) for r in range(l, m + 1)]


def canonical_index(m: int, iv: Interval) -> int:
    """Position of `iv` in canonical_intervals(m)."""
    iv.validate(m)
    l, r = iv.left, iv.right
    # intervals with left endpoint < l: sum of (m - j + 1) for j < l
    return (l - 1) * m - (l - 1) * (l - 2) // 2 + (r - l)


@lru_cache(maxsize=32)
def interval_table(m: int) -> tuple[Interval, ...]:
    """canonical_intervals(m) as one shared, immutable tuple, built once
    per m.  Campaigns and derived profiles take their intervals from it
    instead of constructing (and validating) new ones per instance."""
    return tuple(canonical_intervals(m))


@lru_cache(maxsize=32)
def interval_grid(m: int) -> tuple[tuple[Interval, ...], ...]:
    """interval_table(m) by endpoints: grid[left][right] is the table's
    [left, right] for 1 <= left <= right <= m, other entries are None."""
    grid = [[None] * (m + 1) for _ in range(m + 1)]
    for iv in interval_table(m):
        grid[iv.left][iv.right] = iv
    return tuple(map(tuple, grid))


@dataclass(frozen=True)
class Profile:
    """An identified interval profile: voter id -> interval.

    A voter id is an int or a string.  `Profile(m, voters)` and
    `from_json` validate their input and copy the mapping.  Profiles
    derived from a valid one (an endpoint deletion, a combination, a
    replication, a campaign's enumeration) are built without checks, by
    `Profile._of` or, for a one-voter change, `_with_interval`.  Every
    profile stores its voter count `n` when it is built.  Its `voters`
    is never mutated: `rules.ptr_winner` keeps the profile's endpoint
    counts after its first evaluation, and a black-box `axioms.RuleFn`
    keeps its winner, so that its function, which must be
    deterministic, is called at most once per profile object.
    """

    m: int
    voters: Mapping[VoterId, Interval]
    n: int = field(init=False, repr=False, compare=False)
    # (lefts, rights) as `rules.endpoint_histogram` gives them, stored
    # on the instance by `rules.ptr_winner` at a first evaluation and
    # never mutated; a class default rather than a field, so building a
    # profile costs nothing and == and repr ignore it
    _histogram = None
    # (fn, winner), stored by `axioms._validated` once it has validated
    # the winner of the black box fn; like `_histogram`, and no derived
    # profile inherits it
    _winner = None

    def __post_init__(self):
        if self.m < 2:
            raise InvalidAlternativeCount(f"need m >= 2, got {self.m}")
        if not self.voters:
            raise VotingError("profile must contain at least one voter")
        for vid, iv in self.voters.items():
            if isinstance(vid, bool) or not isinstance(vid, (int, str)):
                raise VotingError(f"voter id must be an int or a string: {vid!r}")
            iv.validate(self.m)
        voters = dict(self.voters)
        object.__setattr__(self, "voters", voters)
        object.__setattr__(self, "n", len(voters))

    @classmethod
    def _of(cls, m: int, voters: dict) -> "Profile":
        """A profile that takes ownership of `voters`, a fresh non-empty
        dict whose intervals are valid for m >= 2, without validating or
        copying it."""
        p = object.__new__(cls)
        attrs = p.__dict__
        attrs["m"] = m
        attrs["voters"] = voters
        attrs["n"] = len(voters)
        return p

    def interval(self, voter: VoterId) -> Interval:
        try:
            return self.voters[voter]
        except KeyError:
            raise NoSuchVoter(f"no voter {voter!r}") from None

    def with_interval(self, voter: VoterId, iv: Interval) -> "Profile":
        self.interval(voter)  # an unknown voter raises NoSuchVoter
        iv.validate(self.m)
        return self._with_interval(voter, iv)

    def _with_interval(self, voter: VoterId, iv: Interval) -> "Profile":
        """`with_interval` without its checks on `voter` and `iv`.  The
        profile gets this one's endpoint counts, moved by four updates,
        when this one has them."""
        new = self.voters.copy()
        new[voter] = iv
        p = object.__new__(Profile)  # `_of` inlined: this runs per deviation
        attrs = p.__dict__
        attrs["m"], attrs["voters"], attrs["n"] = self.m, new, self.n
        counts = self._histogram
        if counts is not None:
            old = self.voters[voter]
            lefts, rights = counts[0].copy(), counts[1].copy()
            lefts[old.left] -= 1
            rights[old.right] -= 1
            lefts[iv.left] += 1
            rights[iv.right] += 1
            attrs["_histogram"] = lefts, rights
        return p

    def _renamed(self, voters: dict) -> "Profile":
        """A profile that takes ownership of `voters`, this profile's
        intervals under other voter ids, and shares its endpoint counts
        but not its winner, which may depend on the ids."""
        p = object.__new__(Profile)  # `_of` inlined: this runs per renaming
        attrs = p.__dict__
        attrs["m"], attrs["voters"], attrs["n"] = self.m, voters, self.n
        attrs["_histogram"] = self._histogram
        return p

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "voters": [
                {"id": v, "interval": [iv.left, iv.right]}
                for v, iv in sorted(self.voters.items(), key=lambda kv: str(kv[0]))
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Profile":
        with decoding("profile"):
            voters = {}
            for entry in data["voters"]:
                vid = entry["id"]
                if vid in voters:
                    raise VotingError(f"duplicate voter id {vid!r}")
                l, r = entry["interval"]
                voters[vid] = Interval(json_int(l), json_int(r))
            return cls(json_int(data["m"]), voters)


@dataclass(frozen=True)
class AnonProfile:
    """Anonymized profile: count per canonical interval."""

    m: int
    counts: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)
    # the endpoint counts and the black-box winner, as for `Profile`
    _histogram = None
    _winner = None

    def __post_init__(self):
        if self.m < 2:
            raise InvalidAlternativeCount(f"need m >= 2, got {self.m}")
        q = self.m * (self.m + 1) // 2
        if len(self.counts) != q:
            raise VotingError(
                f"count vector has length {len(self.counts)}, expected q={q}"
            )
        # one C-level pass: a float or a bool would reach exact winner tests
        if not {int}.issuperset(map(type, self.counts)):
            raise VotingError(f"counts must be integers: {tuple(self.counts)!r}")
        if any(c < 0 for c in self.counts):
            raise VotingError("counts must be non-negative")
        n = sum(self.counts)
        if n < 1:
            raise VotingError("profile must contain at least one voter")
        object.__setattr__(self, "counts", tuple(self.counts))
        object.__setattr__(self, "n", n)

    def items(self) -> Iterable[tuple[Interval, int]]:
        for iv, c in zip(interval_table(self.m), self.counts):
            if c:
                yield iv, c

    def to_profile(self) -> Profile:
        """Identified profile with integer ids 1..n assigned in canonical order."""
        voters = {}
        vid = 1
        for iv, c in self.items():
            for _ in range(c):
                voters[vid] = iv
                vid += 1
        return Profile(self.m, voters)


def anonymize(p: Profile) -> AnonProfile:
    q = p.m * (p.m + 1) // 2
    counts = [0] * q
    for iv in p.voters.values():
        counts[canonical_index(p.m, iv)] += 1
    return AnonProfile(p.m, tuple(counts))


def delete_endpoint(p: Profile, voter: VoterId, side: str) -> Profile:
    """Remove the extreme alternative on `side` from `voter`'s interval."""
    iv = p.interval(voter)
    if iv.is_singleton():
        raise CannotShrink(f"voter {voter!r} reports a singleton interval")
    grid = interval_grid(p.m)
    if side == "left":
        return p._with_interval(voter, grid[iv.left + 1][iv.right])
    if side == "right":
        return p._with_interval(voter, grid[iv.left][iv.right - 1])
    raise VotingError(f"side must be 'left' or 'right', got {side!r}")


def robust_step(iv: Interval, side: str, before: int, after: int) -> bool:
    """Robustness for one deletion of `side`'s endpoint of `iv`: the
    winner goes from `before` to `after` and must stay, or sit on the
    deleted endpoint and move one step inward."""
    if before == after:
        return True
    if side == "left":
        return before == iv.left and after == iv.left + 1
    return before == iv.right and after == iv.right - 1


def require_disjoint(p1: Profile, p2: Profile) -> None:
    """Raise unless the two profiles are over the same alternatives and
    share no voter id."""
    if p1.m != p2.m:
        raise MismatchedAlternatives(f"m mismatch: {p1.m} vs {p2.m}")
    if not p1.voters.keys().isdisjoint(p2.voters):
        overlap = p1.voters.keys() & p2.voters.keys()
        raise NotDisjoint(f"shared voter ids: {sorted(map(str, overlap))}")


def combine(p1: Profile, p2: Profile) -> Profile:
    """Voter-disjoint union of two profiles over the same alternatives."""
    if p1.m != p2.m or not p1.voters.keys().isdisjoint(p2.voters):
        require_disjoint(p1, p2)
    return Profile._of(p1.m, p1.voters | p2.voters)


def _copies(p: Profile, avoid_ids: Iterable[VoterId]) -> Iterator[dict]:
    """The voters of copy k = 1, 2, ... of `p`, relabeled so that no copy
    reuses an id of `p`, of another copy or of `avoid_ids`.

    Copy k shifts an integer id by k times an even stride that exceeds
    twice every integer id of `p` and `avoid_ids`, so each copy keeps
    its original's parity and rules that read parity off the id treat
    it alike.  It appends to a string id a separator and then k.  The
    separator is the shortest run of "#" that no string id of `p` or
    `avoid_ids` contains, so no appended id was there before, and the
    digits after its last "#" name the copy.
    """
    ids = [*p.voters, *avoid_ids]
    stride = 2 * (max([abs(v) for v in ids if isinstance(v, int)], default=0) + 1)
    strs = [v for v in ids if isinstance(v, str)]
    sep = "#"
    if strs:
        # no run of "#" spans the NUL that joins two ids
        joined = "\0".join(strs)
        while sep in joined:
            sep += "#"
    for k in itertools.count(1):
        offset = k * stride
        yield {
            v + offset if isinstance(v, int) else f"{v}{sep}{k}": iv
            for v, iv in p.voters.items()
        }


def replicate(p: Profile, copies: int, avoid_ids: Iterable[VoterId] = ()) -> Profile:
    """Profile made of `copies` relabeled copies of `p`, in copy order,
    kept apart from `avoid_ids` as `_copies` describes."""
    if copies < 1:
        raise VotingError(f"need at least one copy, got {copies}")
    voters: dict = {}
    for copy in itertools.islice(_copies(p, avoid_ids), copies):
        voters.update(copy)
    return Profile._of(p.m, voters)


def replications(p: Profile, rest: Profile) -> Iterator[Profile]:
    """lambda * p + rest for lambda = 1, 2, ..., without end.

    Each profile has the voter ids and insertion order of
    `combine(replicate(p, lambda, avoid_ids=rest.voters), rest)`, but
    step lambda relabels only the one copy of `p` it adds.  Every
    profile owns its own dict, so later steps leave earlier ones intact.
    """
    if p.m != rest.m:
        raise MismatchedAlternatives(f"m mismatch: {p.m} vs {rest.m}")
    grown: dict = {}
    for copy in _copies(p, rest.voters):
        grown.update(copy)
        voters = grown.copy()
        voters.update(rest.voters)
        yield Profile._of(p.m, voters)
