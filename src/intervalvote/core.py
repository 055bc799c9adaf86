"""Domain primitives: alternatives, intervals, profiles, exact rationals.

Alternatives are 1-based indices into the fixed left-to-right order, so
x_a is left of x_b exactly when a < b and the "left-most" element of a
set is its minimum index.  All scalars that enter winner comparisons are
integers or `fractions.Fraction`; no floats appear anywhere in rule
evaluation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

VoterId = Union[int, str]


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


@contextmanager
def decoding(what: str) -> Iterator[None]:
    """Report malformed input read inside the block as a VotingError.

    A KeyError, TypeError or ValueError raised while `what` is decoded
    means its JSON has the wrong shape; a VotingError passes through
    unchanged.
    """
    try:
        yield
    except VotingError:
        raise
    except KeyError as exc:
        raise VotingError(f"malformed {what}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise VotingError(f"malformed {what}: {exc}") from exc


def parse_rational(s) -> Fraction:
    """Parse a rational from a "p/q" string (or plain integer string)."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    num, slash, den = str(s).strip().partition("/")
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


@dataclass(frozen=True, order=True)
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

    @property
    def size(self) -> int:
        return self.right - self.left + 1

    def is_singleton(self) -> bool:
        return self.left == self.right

    def contains(self, k: int) -> bool:
        return self.left <= k <= self.right

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
    l = iv.left
    # intervals with left endpoint < l: sum of (m - j + 1) for j < l
    before = (l - 1) * m - (l - 1) * (l - 2) // 2
    return before + (iv.right - l)


@dataclass(frozen=True)
class Profile:
    """An identified interval profile: voter id -> interval."""

    m: int
    voters: Mapping[VoterId, Interval]

    def __post_init__(self):
        if self.m < 2:
            raise InvalidAlternativeCount(f"need m >= 2, got {self.m}")
        if not self.voters:
            raise VotingError("profile must contain at least one voter")
        for iv in self.voters.values():
            iv.validate(self.m)
        object.__setattr__(self, "voters", dict(self.voters))

    @property
    def n(self) -> int:
        return len(self.voters)

    def interval(self, voter: VoterId) -> Interval:
        try:
            return self.voters[voter]
        except KeyError:
            raise NoSuchVoter(f"no voter {voter!r}") from None

    def with_interval(self, voter: VoterId, iv: Interval) -> "Profile":
        if voter not in self.voters:
            raise NoSuchVoter(f"no voter {voter!r}")
        iv.validate(self.m)
        new = dict(self.voters)
        new[voter] = iv
        return Profile(self.m, new)

    def is_singleton_domain(self) -> bool:
        return all(iv.is_singleton() for iv in self.voters.values())

    def support(self) -> set[int]:
        """Union of all reported intervals."""
        out: set[int] = set()
        for iv in self.voters.values():
            out.update(iv.alternatives())
        return out

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
                voters[vid] = Interval(int(l), int(r))
            return cls(int(data["m"]), voters)


@dataclass(frozen=True)
class AnonProfile:
    """Anonymized profile: count per canonical interval."""

    m: int
    counts: tuple[int, ...]

    def __post_init__(self):
        q = self.m * (self.m + 1) // 2
        if len(self.counts) != q:
            raise VotingError(
                f"count vector has length {len(self.counts)}, expected q={q}"
            )
        if any(c < 0 for c in self.counts):
            raise VotingError("counts must be non-negative")
        if sum(self.counts) < 1:
            raise VotingError("profile must contain at least one voter")
        object.__setattr__(self, "counts", tuple(self.counts))

    @property
    def n(self) -> int:
        return sum(self.counts)

    def items(self) -> Iterable[tuple[Interval, int]]:
        for iv, c in zip(canonical_intervals(self.m), self.counts):
            if c:
                yield iv, c

    def to_profile(self, first_id: int = 1) -> Profile:
        """Identified profile with integer ids assigned in canonical order."""
        voters = {}
        vid = first_id
        for iv, c in self.items():
            for _ in range(c):
                voters[vid] = iv
                vid += 1
        return Profile(self.m, voters)

    def __add__(self, other: "AnonProfile") -> "AnonProfile":
        if self.m != other.m:
            raise MismatchedAlternatives(f"m mismatch: {self.m} vs {other.m}")
        return AnonProfile(
            self.m, tuple(a + b for a, b in zip(self.counts, other.counts))
        )


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
    if side == "left":
        return p.with_interval(voter, Interval(iv.left + 1, iv.right))
    if side == "right":
        return p.with_interval(voter, Interval(iv.left, iv.right - 1))
    raise VotingError(f"side must be 'left' or 'right', got {side!r}")


def combine(p1: Profile, p2: Profile) -> Profile:
    """Voter-disjoint union of two profiles over the same alternatives."""
    if p1.m != p2.m:
        raise MismatchedAlternatives(f"m mismatch: {p1.m} vs {p2.m}")
    overlap = set(p1.voters) & set(p2.voters)
    if overlap:
        raise NotDisjoint(f"shared voter ids: {sorted(map(str, overlap))}")
    merged = dict(p1.voters)
    merged.update(p2.voters)
    return Profile(p1.m, merged)


def replicate(p: Profile, copies: int, avoid_ids: Iterable[VoterId] = ()) -> Profile:
    """Profile made of `copies` relabeled copies of `p`.

    Integer voter ids keep their parity (copies are shifted by an even
    stride), so rules that read parity off the id treat every copy like
    its original.  Non-integer ids get string suffixes instead.  Ids in
    `avoid_ids` are guaranteed not to be reused.
    """
    if copies < 1:
        raise VotingError(f"need at least one copy, got {copies}")
    avoid = list(avoid_ids)
    if all(isinstance(v, int) for v in p.voters) and all(
        isinstance(v, int) for v in avoid
    ):
        bound = max(abs(v) for v in list(p.voters) + avoid)
        stride = 2 * (bound + 1)
        voters = {
            v + k * stride: iv
            for k in range(1, copies + 1)
            for v, iv in p.voters.items()
        }
    else:
        voters = {
            f"{v}#{k}": iv
            for k in range(1, copies + 1)
            for v, iv in p.voters.items()
        }
    return Profile(p.m, voters)
