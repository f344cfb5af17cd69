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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exceptions import DomainError
from .ranks import Sample, Support, _doubled_wmw_statistic, _group_sizes, _tie_variance
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

    @property
    def width(self) -> Fraction:
        return self.w_max - self.w_min

    @property
    def mu(self) -> Fraction:
        """Null mean nm/2 of the statistic."""
        return Fraction(self.n * self.m, 2)


@dataclass(frozen=True)
class BoundaryCounts:
    """How many observed values sit exactly on the support endpoints.

    Counts are zero whenever the corresponding endpoint does not exist.
    """

    x_at_lower: int = 0
    x_at_upper: int = 0
    y_at_lower: int = 0
    y_at_upper: int = 0

    @classmethod
    def from_observed(
        cls, x_obs: Sequence[float], y_obs: Sequence[float], support: Support
    ) -> "BoundaryCounts":
        def count(values: Sequence[float], end: float | None) -> int:
            return 0 if end is None else int(np.count_nonzero(np.asarray(values) == end))

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
    for label, sample in (("x", x), ("y", y)):
        # observed values are sorted, so the extremes decide containment
        if not (support.contains(sample.observed[0]) and support.contains(sample.observed[-1])):
            v = next(v for v in sample.observed.tolist() if not support.contains(v))
            raise DomainError(f"observed {label} value {v!r} lies outside the support")
    counts = BoundaryCounts.from_observed(x.observed, y.observed, support)
    n, m = x.total, y.total
    n1, m1 = x.n_observed, y.n_observed
    w2 = _doubled_wmw_statistic(x.observed, y.observed)
    t1 = counts.y_at_lower * (n - n1) + counts.x_at_upper * (m - m1)
    t2 = counts.x_at_lower * (m - m1) + counts.y_at_upper * (n - n1)
    return StatBounds(
        w_min=Fraction(w2 + t1, 2),
        w_max=Fraction(w2 + 2 * (n * m - n1 * m1) - t2, 2),
        n=n,
        m=m,
        n_obs_x=n1,
        n_obs_y=m1,
    )


def variance_bounds(x: Sample, y: Sample) -> VarBounds:
    """Range of the tie-corrected variance over all completions.

    The maximum keeps only the observed tie groups (missing values tie with
    nothing); the minimum piles every missing value onto the largest
    observed group, growing its multiplicity to d_max.
    """
    pooled = np.concatenate((x.observed, y.observed))
    if not pooled.size:
        raise DomainError("at least one observed value is required")
    n, m = x.total, y.total
    sizes = _group_sizes(pooled)
    piled = sizes.copy()
    piled[piled.argmax()] += n + m - len(pooled)
    return VarBounds(
        sigma2_min=_tie_variance(n, m, piled),
        sigma2_max=_tie_variance(n, m, sizes),
        d_max=int(piled.max()),
    )


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
    exact value, and same_sign is decided in integers.
    """
    nm = bounds.n * bounds.m
    # q = w - nm/2 = (2a - nm b) / 2b for w = a/b; int / int rounds correctly
    centred = [(2 * w.numerator - nm * w.denominator, 2 * w.denominator)
               for w in (bounds.w_min, bounds.w_max)]
    same_sign = centred[0][0] >= 0 or centred[1][0] <= 0
    lo, hi = float(var.sigma2_min), float(var.sigma2_max)
    qs = [top / bottom for top, bottom in centred]
    ps = [tail_p(q, v, alternative) for q in qs for v in ((lo,) if lo == hi else (lo, hi))]
    if not same_sign:
        ps.append(tail_p(0.0, hi, alternative))
    return min(ps), max(ps), same_sign
