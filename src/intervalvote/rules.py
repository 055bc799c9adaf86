"""Position-threshold rules: position functions, winner selection, the
weight/threshold compatibility test and interval decomposition.  When
the test fails, `search.incompatibility_witness` builds the robustness
violation it predicts.

Conventions: the winner is the smallest index i with
Pi_alpha(profile, x_i) >= theta_i * n, compared exactly (ties count as
satisfied).  theta_m and alpha_m are stored but never influence the
winner since Pi_alpha(., x_m) = n and theta_m < 1.

Evaluation kernel: on a profile's first evaluation `ptr_winner` counts,
through `endpoint_histogram`, the voters whose left and whose right
endpoint each alternative is; the profile keeps these counts, and a
one-voter derivation or a renaming of it starts from them (see
`core.Profile`).  With the running sums L_k (left endpoint at or before
x_k) and R_k (right endpoint at or before x_k) of these histograms,
Pi_alpha(x_k) = R_k + alpha_k * (L_k - R_k).  Writing alpha_k = a/b and
theta_k = c/d with b, d > 0, the winner test Pi_alpha(x_k) >= theta_k * n
holds exactly when the integer comparison A_k * L_k + B_k * R_k >= C_k * n
does, with A = a*d, B = (b - a)*d and C = c*b fixed per rule.
`ptr_winner` keeps L and R as it goes and stops at the first test that
holds.  A winner costs at most one pass over the voters (over the
nonzero counts of an anonymized profile) and at most m - 1 integer
comparisons, with no floats.
`individual_position`, the endpoint-median oracle, the singleton
decomposition and the phantom-median rule compute the same quantities
independently of the kernel and serve as its cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    AnonProfile,
    Interval,
    InvalidAlternative,
    InvalidAlternativeCount,
    Profile,
    VotingError,
    decoding,
    json_int,
    parse_rational,
    render_rational,
)

ONE_HALF = Fraction(1, 2)


class IncompatibleRule(VotingError):
    pass


class NotSingletonDomain(VotingError):
    pass


def _as_fractions(values, m: int, name: str) -> tuple[Fraction, ...]:
    vec = tuple(map(parse_rational, values))
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
            num, den = a.as_integer_ratio()
            if not 0 <= num <= den:
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
        ratios = [t.as_integer_ratio() for t in vec]
        for t, (num, den) in zip(vec, ratios):
            if not 0 < num < den:
                raise VotingError(f"thresholds must lie in (0, 1), got {t}")
        for (c, d), (c2, d2) in zip(ratios, ratios[1:]):
            if c * d2 < c2 * d:
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


def endpoint_histogram(p: Profile | AnonProfile) -> tuple[list[int], list[int]]:
    """lefts[k] and rights[k]: the number of voters whose left (right)
    endpoint is x_k, for k = 1..p.m (index 0 stays 0); one pass over the
    voters, or over the nonzero counts of an anonymized profile."""
    lefts, rights = [0] * (p.m + 1), [0] * (p.m + 1)
    if isinstance(p, AnonProfile):
        for iv, c in p.items():
            lefts[iv.left] += c
            rights[iv.right] += c
    else:
        for iv in p.voters.values():
            lefts[iv.left] += 1
            rights[iv.right] += 1
    return lefts, rights


def collective_positions(alpha: WeightVector, p: Profile | AnonProfile) -> list[Fraction]:
    """Pi_alpha(p, x_k) for k = 1..m from one endpoint pass, exact."""
    if alpha.m != p.m:
        raise VotingError(f"m mismatch: weights {alpha.m} vs profile {p.m}")
    lefts, rights = endpoint_histogram(p)
    positions, L, R = [], 0, 0
    for a, l, r in zip(alpha.alpha, lefts[1:], rights[1:]):
        L += l
        R += r
        positions.append(R + a * (L - R))
    return positions


def collective_position(alpha: WeightVector, p: Profile | AnonProfile, k: int) -> Fraction:
    """Sum of individual positions over all voters, exact."""
    if not (1 <= k <= alpha.m):
        raise InvalidAlternative(f"alternative {k} out of range 1..{alpha.m}")
    return collective_positions(alpha, p)[k - 1]


def check_compatible(
    alpha: WeightVector, theta: ThresholdVector
) -> tuple[bool, Optional[int]]:
    """Test whether the weight vector works with the threshold vector.

    Compatibility means that once some alternative's collective position
    meets its threshold, so does every alternative to its right.  Index
    i fails it when alpha_{i+1} - alpha_i < (theta_{i+1} - theta_i) * s
    for both s = alpha_i / theta_i and s = (1 - alpha_i) / (1 - theta_i),
    as the threshold step is at most 0; the test compares integers.
    Returns (True, None) or (False, least violating index).
    """
    if alpha.m != theta.m:
        raise VotingError(f"m mismatch: {alpha.m} vs {theta.m}")
    alphas = [x.as_integer_ratio() for x in alpha.alpha]
    thetas = [x.as_integer_ratio() for x in theta.theta]
    for i in range(alpha.m - 2):  # indices 1..m-2, 0-based i
        (a, b), (a2, b2) = alphas[i], alphas[i + 1]
        (c, d), (c2, d2) = thetas[i], thetas[i + 1]
        # the two steps, scaled by b*b2*d2 and d*d2*b2
        da, dt = (a2 * b - a * b2) * d2, (c2 * d - c * d2) * b2
        if da * c < dt * a and da * (d - c) < dt * (b - a):
            return False, i + 1
    return True, None


@dataclass(frozen=True)
class PositionThresholdRule:
    m: int
    theta: ThresholdVector
    alpha: WeightVector
    # whether `check_compatible` accepts the vectors
    compatible: bool = field(init=False, compare=False)
    # (A, B, C) = (a*d, (b - a)*d, c*b) with alpha_k = a/b and
    # theta_k = c/d for k = 1..m-1: the integer form of every winner
    # test, see `ptr_winner`
    coeffs: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.theta.m != self.m or self.alpha.m != self.m:
            raise VotingError("vector lengths must match m")
        ok, _ = check_compatible(self.alpha, self.theta)
        object.__setattr__(self, "compatible", ok)
        coeffs = tuple(
            (
                a.numerator * t.denominator,
                (a.denominator - a.numerator) * t.denominator,
                t.numerator * a.denominator,
            )
            for a, t in zip(self.alpha.alpha[:-1], self.theta.theta)
        )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def make(cls, alpha: WeightVector, theta: ThresholdVector) -> "PositionThresholdRule":
        """Checked constructor: rejects incompatible vector pairs."""
        rule = cls(alpha.m, theta, alpha)
        if not rule.compatible:
            _, i = check_compatible(alpha, theta)
            raise IncompatibleRule(
                f"alpha and theta are incompatible at index {i}"
            )
        return rule

    @classmethod
    def make_unchecked(
        cls, alpha: WeightVector, theta: ThresholdVector
    ) -> "PositionThresholdRule":
        """Constructor that accepts incompatible vector pairs.

        The resulting rule is total and well-defined but may fail
        robustness (its `compatible` is then False); used to study
        threshold rules outside the class.
        """
        return cls(alpha.m, theta, alpha)

    def winner(self, p: Profile | AnonProfile) -> int:
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
    """The weight and threshold vectors of a rule file's JSON object,
    whose optional "unchecked" field must be a JSON boolean."""
    with decoding("rule"):
        m = json_int(data["m"])
        unchecked = data.get("unchecked", False)
        if type(unchecked) is not bool:
            raise VotingError(
                f"malformed rule: unchecked is {unchecked!r}, not true or false"
            )
        alpha = WeightVector(m, tuple(data["alpha"]))
        return alpha, ThresholdVector(m, tuple(data["theta"]))


def ptr_winner(rule: PositionThresholdRule, p: Profile | AnonProfile) -> int:
    """Smallest index whose collective position meets its scaled threshold.
    A profile's first evaluation counts its endpoints with
    `endpoint_histogram` and keeps the counts on the profile; every later
    evaluation, under any rule, reads them and calls no helper."""
    m = rule.m
    if m != p.m:
        raise VotingError(f"m mismatch: rule {m} vs profile {p.m}")
    counts = p._histogram
    if counts is None:
        counts = p.__dict__["_histogram"] = endpoint_histogram(p)
    lefts, rights = counts
    n = p.n
    L = R = k = 0
    for A, B, C in rule.coeffs:
        k += 1
        L += lefts[k]
        R += rights[k]
        if A * L + B * R >= C * n:
            return k
    # x_m wins when no earlier test holds: Pi(., x_m) = n > theta_m * n
    return m


def phantom_median_winner(theta: ThresholdVector, p: Profile | AnonProfile) -> int:
    """Winner on singleton-ballot profiles via peak counts.

    Equals ptr_winner for any weight vector when every ballot is a
    singleton.
    """
    if theta.m != p.m:
        raise VotingError(f"m mismatch: thresholds {theta.m} vs profile {p.m}")
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
    alpha: WeightVector, p: Profile | AnonProfile, k: int
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
