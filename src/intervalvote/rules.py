"""Position-threshold rules: position functions, winner selection, the
weight/threshold compatibility test, interval decomposition, and the
counterexample constructions used when the test fails.

Conventions: the winner is the smallest index i with
Pi_alpha(profile, x_i) >= theta_i * n, compared exactly (ties count as
satisfied).  theta_m and alpha_m are stored but never influence the
winner since Pi_alpha(., x_m) = n and theta_m < 1.

Evaluation kernel: one pass over a profile counts, per alternative, the
voters whose left and whose right endpoint it is.  With the prefix sums
L_k (left endpoint at or before x_k) and R_k (right endpoint at or
before x_k) of these histograms,
Pi_alpha(x_k) = R_k + alpha_k * (L_k - R_k).  Writing alpha_k = a/b and
theta_k = c/d with b, d > 0, the winner test
Pi_alpha(x_k) >= theta_k * n holds exactly when the integer comparison
(R_k * b + a * (L_k - R_k)) * d >= c * n * b does.  A winner costs one
pass over the voters (over the nonzero counts of an anonymized profile)
and at most m - 1 integer comparisons, with no floats.
`individual_position`, the endpoint-median oracle, the singleton
decomposition and the phantom-median rule compute the same quantities
independently of the kernel and serve as its cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from typing import Callable, Iterator, Optional, Union

from .core import (
    AnonProfile,
    Interval,
    InvalidAlternative,
    InvalidAlternativeCount,
    Profile,
    VoterId,
    VotingError,
    canonical_intervals,
    decoding,
    delete_endpoint,
    parse_rational,
    render_rational,
)

ONE_HALF = Fraction(1, 2)


class IncompatibleRule(VotingError):
    pass


class NotSingletonDomain(VotingError):
    pass


def _as_fractions(values, m: int, name: str) -> tuple[Fraction, ...]:
    vec = tuple(parse_rational(v) for v in values)
    if len(vec) != m:
        raise VotingError(f"{name} must have length m={m}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class WeightVector:
    """Per-alternative weights alpha in [0,1]^m."""

    m: int
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if self.m < 2:
            raise InvalidAlternativeCount(f"need m >= 2, got {self.m}")
        vec = _as_fractions(self.alpha, self.m, "alpha")
        for a in vec:
            if not (0 <= a <= 1):
                raise VotingError(f"weights must lie in [0, 1], got {a}")
        object.__setattr__(self, "alpha", vec)

    @classmethod
    def constant(cls, m: int, value) -> "WeightVector":
        return cls(m, (parse_rational(value),) * m)


@dataclass(frozen=True)
class ThresholdVector:
    """Non-increasing thresholds theta in (0,1)^m."""

    m: int
    theta: tuple[Fraction, ...]

    def __post_init__(self):
        if self.m < 2:
            raise InvalidAlternativeCount(f"need m >= 2, got {self.m}")
        vec = _as_fractions(self.theta, self.m, "theta")
        for t in vec:
            if not (0 < t < 1):
                raise VotingError(f"thresholds must lie in (0, 1), got {t}")
        for a, b in zip(vec, vec[1:]):
            if a < b:
                raise VotingError("thresholds must be non-increasing")
        object.__setattr__(self, "theta", vec)

    @classmethod
    def constant(cls, m: int, value) -> "ThresholdVector":
        return cls(m, (parse_rational(value),) * m)


def individual_position(alpha: WeightVector, iv: Interval, k: int) -> Fraction:
    """Relative position of a voter reporting `iv` with respect to x_k.

    0 left of the interval, 1 from the right endpoint onward, alpha_k on
    the interval's interior-and-left-endpoint stretch.
    """
    if not (1 <= k <= alpha.m):
        raise InvalidAlternative(f"alternative {k} out of range 1..{alpha.m}")
    iv.validate(alpha.m)
    if k < iv.left:
        return Fraction(0)
    if k >= iv.right:
        return Fraction(1)
    return alpha.alpha[k - 1]


ProfileLike = Union[Profile, AnonProfile]


@lru_cache(maxsize=32)
def _canonical_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """(left, right) of every canonical interval, in count-vector order."""
    return tuple((iv.left, iv.right) for iv in canonical_intervals(m))


def cumulative_endpoints(p: ProfileLike, m: int) -> tuple[list[int], list[int]]:
    """L and R with L[k] (R[k]) the number of voters whose left (right)
    endpoint is at or before x_k, for k = 0..m; one pass over `p`.

    Raises InvalidAlternative when an interval reaches beyond x_m.
    """
    size = max(m, p.m) + 1
    lefts, rights = [0] * size, [0] * size
    if isinstance(p, AnonProfile):
        counts = p.counts
        nonzero = zip(compress(_canonical_pairs(p.m), counts), filter(None, counts))
        for (l, r), c in nonzero:
            lefts[l] += c
            rights[r] += c
    else:
        for iv in p.voters.values():
            lefts[iv.left] += 1
            rights[iv.right] += 1
    if any(rights[m + 1 :]):
        raise InvalidAlternative(f"profile has an interval beyond m={m}")
    return list(accumulate(lefts[: m + 1])), list(accumulate(rights[: m + 1]))


def threshold_tests(
    terms: tuple[tuple[int, int, int, int], ...], L: list[int], R: list[int]
) -> Iterator[tuple[int, int]]:
    """Yield (lhs, rhs) for x_1, x_2, ... in turn, one per `terms` entry
    (a, b, c, d) with alpha_k = a/b and theta_k = c/d (b, d > 0):
    Pi(x_k) >= theta_k * n exactly when lhs >= rhs.  L and R come from
    `cumulative_endpoints`."""
    n = L[-1]
    for (a, b, c, d), l, r in zip(terms, L[1:], R[1:]):
        yield (r * b + a * (l - r)) * d, c * n * b


def collective_positions(alpha: WeightVector, p: ProfileLike) -> list[Fraction]:
    """Pi_alpha(p, x_k) for k = 1..m from one endpoint pass, exact."""
    L, R = cumulative_endpoints(p, alpha.m)
    return [r + a * (l - r) for a, l, r in zip(alpha.alpha, L[1:], R[1:])]


def collective_position(alpha: WeightVector, p: ProfileLike, k: int) -> Fraction:
    """Sum of individual positions over all voters, exact."""
    if not (1 <= k <= alpha.m):
        raise InvalidAlternative(f"alternative {k} out of range 1..{alpha.m}")
    return collective_positions(alpha, p)[k - 1]


def check_compatible(
    alpha: WeightVector, theta: ThresholdVector
) -> tuple[bool, Optional[int]]:
    """Test whether the weight vector works with the threshold vector.

    Compatibility means that once some alternative's collective position
    meets its threshold, so does every alternative to its right.  It
    reduces to a closed-form inequality per index; returns
    (True, None) or (False, least violating index).
    """
    if alpha.m != theta.m:
        raise VotingError(f"m mismatch: {alpha.m} vs {theta.m}")
    a, t = alpha.alpha, theta.theta
    for i in range(alpha.m - 2):  # indices 1..m-2, 0-based i
        slope = max(a[i] / t[i], (1 - a[i]) / (1 - t[i]))
        if a[i + 1] - a[i] < (t[i + 1] - t[i]) * slope:
            return False, i + 1
    return True, None


@dataclass(frozen=True)
class PositionThresholdRule:
    m: int
    theta: ThresholdVector
    alpha: WeightVector
    compatible: bool = field(default=True)
    # (a, b, c, d) with alpha_k = a/b and theta_k = c/d for k = 1..m-1:
    # the integer form of every winner test, see `threshold_tests`
    terms: tuple[tuple[int, int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.theta.m != self.m or self.alpha.m != self.m:
            raise VotingError("vector lengths must match m")
        terms = tuple(
            (a.numerator, a.denominator, t.numerator, t.denominator)
            for a, t in zip(self.alpha.alpha[:-1], self.theta.theta)
        )
        object.__setattr__(self, "terms", terms)

    @classmethod
    def make(cls, alpha: WeightVector, theta: ThresholdVector) -> "PositionThresholdRule":
        """Checked constructor: rejects incompatible vector pairs."""
        ok, i = check_compatible(alpha, theta)
        if not ok:
            raise IncompatibleRule(
                f"alpha and theta are incompatible at index {i}"
            )
        return cls(alpha.m, theta, alpha, True)

    @classmethod
    def make_unchecked(
        cls, alpha: WeightVector, theta: ThresholdVector
    ) -> "PositionThresholdRule":
        """Constructor that skips the compatibility check.

        The resulting rule is total and well-defined but may fail
        robustness; used to study threshold rules outside the class.
        """
        ok, _ = check_compatible(alpha, theta)
        return cls(alpha.m, theta, alpha, ok)

    def winner(self, p: ProfileLike) -> int:
        return ptr_winner(self, p)

    def to_json(self) -> dict:
        data = {
            "m": self.m,
            "theta": [render_rational(t) for t in self.theta.theta],
            "alpha": [render_rational(a) for a in self.alpha.alpha],
        }
        if not self.compatible:
            data["unchecked"] = True
        return data

    @classmethod
    def from_json(cls, data: dict) -> "PositionThresholdRule":
        alpha, theta = vectors_from_json(data)
        if data.get("unchecked"):
            return cls.make_unchecked(alpha, theta)
        return cls.make(alpha, theta)


def vectors_from_json(data: dict) -> tuple[WeightVector, ThresholdVector]:
    """The weight and threshold vectors of a rule file's JSON object."""
    with decoding("rule"):
        m = int(data["m"])
        alpha = WeightVector(m, tuple(data["alpha"]))
        return alpha, ThresholdVector(m, tuple(data["theta"]))


def ptr_winner(rule: PositionThresholdRule, p: ProfileLike) -> int:
    """Smallest index whose collective position meets its scaled threshold."""
    if rule.m != p.m:
        raise VotingError(f"m mismatch: rule {rule.m} vs profile {p.m}")
    tests = threshold_tests(rule.terms, *cumulative_endpoints(p, rule.m))
    for i, (lhs, rhs) in enumerate(tests, 1):
        if lhs >= rhs:
            return i
    return rule.m  # Pi(., x_m) = n > theta_m * n always


def phantom_median_winner(theta: ThresholdVector, p: ProfileLike) -> int:
    """Winner on singleton-ballot profiles via peak counts.

    Equals ptr_winner for any weight vector when every ballot is a
    singleton.
    """
    if isinstance(p, AnonProfile):
        items = list(p.items())
    else:
        items = [(iv, 1) for iv in p.voters.values()]
    if any(not iv.is_singleton() for iv, _ in items):
        raise NotSingletonDomain("profile contains non-singleton intervals")
    n = sum(c for _, c in items)
    peaks_leq = [0] * (theta.m + 1)
    for iv, c in items:
        peaks_leq[iv.left] += c
    running = 0
    for i in range(1, theta.m):
        running += peaks_leq[i]
        if running >= theta.theta[i - 1] * n:
            return i
    return theta.m


def endpoint_median_rule(m: int) -> PositionThresholdRule:
    """The rule with all weights and thresholds 1/2."""
    return PositionThresholdRule.make(
        WeightVector.constant(m, ONE_HALF), ThresholdVector.constant(m, ONE_HALF)
    )


def endpoint_median_oracle(p: Profile) -> int:
    """Winner by brute force over the endpoint multiset.

    Collect both endpoints of every interval (2n values) and take the
    left-most alternative at which the cumulative endpoint count reaches
    n.  Independent of the position-function machinery.
    """
    endpoints: list[int] = []
    for iv in p.voters.values():
        endpoints.append(iv.left)
        endpoints.append(iv.right)
    n = p.n
    count = 0
    for i in range(1, p.m + 1):
        count += sum(1 for e in endpoints if e == i)
        if count >= n:
            return i
    raise AssertionError("unreachable: cumulative endpoint count reaches 2n")


@dataclass(frozen=True)
class WeightedSingletonBallot:
    alternative: int
    weight: Fraction


def decompose_interval(
    alpha: WeightVector, iv: Interval
) -> list[WeightedSingletonBallot]:
    """Split an interval ballot into weighted singleton ballots.

    Weights: alpha_l at the left endpoint, alpha_i - alpha_{i-1} at each
    interior alternative, 1 - alpha_{r-1} at the right endpoint; they sum
    to exactly 1 and may be negative for non-monotone weight vectors.
    Zero-weight ballots are omitted.
    """
    iv.validate(alpha.m)
    if iv.is_singleton():
        return [WeightedSingletonBallot(iv.left, Fraction(1))]
    a = alpha.alpha
    out = []
    w = a[iv.left - 1]
    if w:
        out.append(WeightedSingletonBallot(iv.left, w))
    for i in range(iv.left + 1, iv.right):
        w = a[i - 1] - a[i - 2]
        if w:
            out.append(WeightedSingletonBallot(i, w))
    w = 1 - a[iv.right - 2]
    if w:
        out.append(WeightedSingletonBallot(iv.right, w))
    return out


def collective_position_decomposed(
    alpha: WeightVector, p: ProfileLike, k: int
) -> Fraction:
    """Collective position computed through the singleton decomposition."""
    if not (1 <= k <= alpha.m):
        raise InvalidAlternative(f"alternative {k} out of range 1..{alpha.m}")
    if isinstance(p, AnonProfile):
        items = list(p.items())
    else:
        items = [(iv, 1) for iv in p.voters.values()]
    total = Fraction(0)
    for iv, c in items:
        for ballot in decompose_interval(alpha, iv):
            if ballot.alternative <= k:  # peak position of a singleton
                total += c * ballot.weight
    return total


def is_weakly_efficient_thresholds(theta: ThresholdVector) -> bool:
    """True iff theta_1 = ... = theta_{m-1} (theta_m exempt)."""
    head = theta.theta[: theta.m - 1]
    return all(t == head[0] for t in head)


def is_monotone_weights(alpha: WeightVector) -> bool:
    return all(a <= b for a, b in zip(alpha.alpha, alpha.alpha[1:]))


@dataclass(frozen=True)
class RobustnessWitness:
    """A concrete endpoint deletion that breaks robustness."""

    profile: Profile
    voter: VoterId
    side: str


def _single_step_robust(
    winner_fn: Callable[[Profile], int], p: Profile, voter: VoterId, side: str
) -> bool:
    """Evaluate the robustness disjunction for one deletion."""
    before = winner_fn(p)
    after = winner_fn(delete_endpoint(p, voter, side))
    if before == after:
        return True
    iv = p.interval(voter)
    if side == "left":
        return before == iv.left and after == iv.left + 1
    return before == iv.right and after == iv.right - 1


def incompatibility_witness(
    alpha: WeightVector,
    theta: ThresholdVector,
    max_denominator: int = 10**6,
) -> Optional[RobustnessWitness]:
    """Build a robustness violation for an incompatible vector pair.

    Returns None when the vectors are compatible.  Otherwise constructs
    a profile on which the induced threshold rule elects x_i, walks a
    chain of single-endpoint modifications to a profile whose winner is
    right of x_{i+1}, and returns the first step whose robustness
    disjunction fails.  The witness is re-verified before being
    returned.
    """
    ok, idx = check_compatible(alpha, theta)
    if ok:
        return None
    assert idx is not None
    i = idx  # 1-based, i <= m - 2
    a_i = alpha.alpha[i - 1]
    t_i = theta.theta[i - 1]
    m = alpha.m
    rule = PositionThresholdRule.make_unchecked(alpha, theta)

    if a_i >= t_i:
        v = t_i / a_i  # in (0, 1]
        mover, anchor = Interval(i, i + 2), Interval(m, m)
    else:
        v = (1 - t_i) / (1 - a_i)  # in (0, 1)
        mover, anchor = Interval(i, i + 2), Interval(i, i)
    if v.denominator > max_denominator:
        raise VotingError(
            f"witness fraction denominator {v.denominator} exceeds "
            f"the {max_denominator} guard"
        )
    w1 = v.numerator
    w2 = v.denominator - v.numerator

    voters: dict[VoterId, Interval] = {}
    for k in range(1, w1 + 1):
        voters[k] = mover
    for k in range(w1 + 1, w1 + w2 + 1):
        voters[k] = anchor
    p = Profile(m, voters)
    assert rule.winner(p) == i

    # Walk to the final profile one endpoint at a time; the chain must
    # break somewhere since the final winner is right of x_{i+1}.
    steps: list[tuple[Profile, VoterId, str]] = []
    current = p
    for k in range(1, w1 + 1):  # [x_i, x_{i+2}] -> [x_{i+1}, x_{i+2}]
        steps.append((current, k, "left"))
        current = delete_endpoint(current, k, "left")
    if a_i < t_i:
        for k in range(w1 + 1, w1 + w2 + 1):  # {x_i} -> {x_{i+1}}
            expanded = current.with_interval(k, Interval(i, i + 1))
            # deleting the right endpoint of the expanded interval
            # recovers `current`, so robustness constrains this step too
            steps.append((expanded, k, "right"))
            steps.append((expanded, k, "left"))
            current = delete_endpoint(expanded, k, "left")

    for prof, voter, side in steps:
        if not _single_step_robust(rule.winner, prof, voter, side):
            return RobustnessWitness(prof, voter, side)
    raise AssertionError(
        "incompatible vectors produced no robustness violation on the "
        "constructed chain"
    )
