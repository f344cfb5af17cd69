"""Attainable ranges of the two-sample rank statistic under missing data.

Given only the observed parts of two samples whose full sizes are known, the
statistic is pinned to an interval: every completion of the missing values
lands inside it, and both endpoints are attained. With distinct values on an
unbounded domain the interval is [W', W' + (nm - n'm')]. When the domain is
closed below/above, observed values sitting exactly on an endpoint tighten
the interval, because missing values cannot fall strictly beyond them.

The same idea bounds the tie-corrected null variance over completions. The
p-value is monotone in the statistic and the variance, so its attainable
range, for the two-sided and both one-sided alternatives, is the range of
its values at the corners of the rectangle these two intervals span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exceptions import DomainError
from .ranks import (
    Sample, Support, _doubled_wmw_statistic, _tie_correction, _tie_variance, tie_profile,
)
from .wmw import Alternative, tail_p

__all__ = [
    "StatBounds",
    "BoundaryCounts",
    "VarBounds",
    "stat_bounds_general",
    "variance_bounds",
    "p_value_bounds",
]


@dataclass(frozen=True)
class StatBounds:
    """Attainable [w_min, w_max] for the statistic, with the size bookkeeping."""

    w_min: Fraction
    w_max: Fraction
    n: int
    m: int
    n_obs_x: int
    n_obs_y: int

    def __post_init__(self) -> None:
        if not 0 <= self.w_min <= self.w_max <= self.n * self.m:
            raise DomainError("bounds must satisfy 0 <= w_min <= w_max <= n*m")


@dataclass(frozen=True)
class BoundaryCounts:
    """How many observed values sit exactly on the support endpoints.

    Counts are zero at an open (infinite) end.
    """

    x_at_lower: int = 0
    x_at_upper: int = 0
    y_at_lower: int = 0
    y_at_upper: int = 0

    @classmethod
    def from_observed(
        cls, x_obs: Sequence[float], y_obs: Sequence[float], support: Support
    ) -> "BoundaryCounts":
        # the values are raw and may hold an infinity, which no open end counts
        def count(values: Sequence[float], end: float) -> int:
            return int(np.count_nonzero(np.asarray(values) == end)) if math.isfinite(end) else 0

        a, b = support.lower, support.upper
        return cls(count(x_obs, a), count(x_obs, b), count(y_obs, a), count(y_obs, b))


@dataclass(frozen=True)
class VarBounds:
    """Range of the tie-corrected variance over all completions."""

    sigma2_min: Fraction
    sigma2_max: Fraction
    d_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.sigma2_min <= self.sigma2_max:
            raise DomainError("variance bounds must satisfy 0 <= min <= max")


def _doubled_stat_bounds(x: Sample, y: Sample, support: Support, doubled: int) -> tuple[int, int]:
    """Twice the w_min and w_max of :func:`stat_bounds_general`, from twice
    the observed statistic, for samples with observed values on both sides."""
    for label, sample in (("x", x), ("y", y)):
        # observed values are sorted, so the extremes decide containment
        if not (support.contains(sample.observed[0]) and support.contains(sample.observed[-1])):
            v = next(v for v in sample.observed.tolist() if not support.contains(v))
            raise DomainError(f"observed {label} value {v!r} lies outside the support")
    # sorted and inside the support, the values on a lead and those on b
    # trail; finite values count none at an open end
    a, b = support.lower, support.upper
    x_a, y_a = (int(s.observed.searchsorted(a, "right")) for s in (x, y))
    x_b, y_b = (s.n_observed - int(s.observed.searchsorted(b, "left")) for s in (x, y))
    t1 = y_a * x.n_missing + x_b * y.n_missing
    t2 = x_a * y.n_missing + y_b * x.n_missing
    return doubled + t1, doubled + 2 * (x.total * y.total - x.n_observed * y.n_observed) - t2


def stat_bounds_general(x: Sample, y: Sample, support: Support) -> StatBounds:
    """Attainable statistic range allowing ties and a closed support.

    Observed values equal to the support minimum or maximum tighten the
    plain interval: with boundary counts c(.) and d_x, d_y missing per side,

        w_min = W' + [c(y at min) d_x + c(x at max) d_y] / 2
        w_max = W' + (nm - n'm') - [c(x at min) d_y + c(y at max) d_x] / 2

    and both endpoints remain attainable. With no observed value on an
    endpoint this reduces to the distinct-case interval.
    """
    if x.n_observed < 1 or y.n_observed < 1:
        raise DomainError("need at least one observed value on each side")
    lo2, hi2 = _doubled_stat_bounds(x, y, support, _doubled_wmw_statistic(x.observed, y.observed))
    return StatBounds(Fraction(lo2, 2), Fraction(hi2, 2), x.total, y.total,
                      x.n_observed, y.n_observed)


def _variance_ratios(n: int, m: int, sizes: np.ndarray, missing: int) -> tuple[int, int, int, int]:
    """:func:`variance_bounds` as integers (the numerators of sigma2_min and
    sigma2_max, their denominator, d_max) from the observed pool's tie-group
    sizes. sigma2_min swaps the largest group's term of the sum for the piled one's."""
    correction, d = _tie_correction(sizes), int(sizes.max())
    d_max = d + missing
    num_max, den = _tie_variance(n, m, correction)
    num_min, _ = _tie_variance(n, m, correction - (d**3 - d) + (d_max**3 - d_max))
    return num_min, num_max, den, d_max


def variance_bounds(x: Sample, y: Sample) -> VarBounds:
    """Range of the tie-corrected variance over all completions.

    The maximum keeps only the observed tie groups (missing values tie with
    nothing); the minimum piles every missing value onto the largest
    observed group, growing its multiplicity to d_max.
    """
    pooled = np.concatenate((x.observed, y.observed))
    if not pooled.size:
        raise DomainError("at least one observed value is required")
    num_min, num_max, den, d_max = _variance_ratios(
        x.total, y.total, tie_profile(pooled), x.n_missing + y.n_missing)
    return VarBounds(Fraction(num_min, den), Fraction(num_max, den), d_max)


def _p_range(centred: Sequence[tuple[int, int]], lo: float, hi: float,
             alternative: Alternative) -> tuple[float, float, bool]:
    """:func:`p_value_bounds` from the exact centred statistic at w_min and at
    w_max, each a ratio (top, bottom > 0), and the variance bounds as floats."""
    same_sign = centred[0][0] >= 0 or centred[1][0] <= 0
    qs = [top / bottom for top, bottom in centred]  # int / int rounds correctly
    ps = [tail_p(q, v, alternative) for q in qs for v in ((lo,) if lo == hi else (lo, hi))]
    if not same_sign:
        ps.append(tail_p(0.0, hi, alternative))
    return min(ps), max(ps), same_sign


def p_value_bounds(
    bounds: StatBounds, var: VarBounds, alternative: Alternative = Alternative.TWO_SIDED
) -> tuple[float, float, bool]:
    """Sandwich (p_low, p_high, same_sign) for the attainable p-value.

    Every completion has its centred statistic q = w - nm/2 in
    [w_min - nm/2, w_max - nm/2] and its variance in [sigma2_min, sigma2_max].
    For every alternative :func:`tail_p` is monotone in q on either side of
    the mean and, at fixed q, in the variance, so its extremes over that
    rectangle lie at the four corners, plus q = 0 when the interval straddles
    the mean (an endpoint at the mean is on either side): there an interior
    completion reaches the mean, which makes the two-sided p = 1. same_sign
    says the interval does not straddle. p_low can need sigma2_min: a heavily
    tied completion can standardise further out than either endpoint.

    The corners go to :func:`tail_p` as floats, each rounded once from its
    exact value, and same_sign is decided in integers. The bounds are the
    float min and max over every corner, not the corners that monotonicity
    names: scipy's normal CDF is not monotone at one-ulp steps, so with
    sigma2_min one ulp below sigma2_max the smaller variance can give the
    larger p.
    """
    nm = bounds.n * bounds.m
    # q = w - nm/2 = (2a - nm b) / 2b for w = a/b
    centred = [(2 * w.numerator - nm * w.denominator, 2 * w.denominator)
               for w in (bounds.w_min, bounds.w_max)]
    return _p_range(centred, float(var.sigma2_min), float(var.sigma2_max), alternative)
