"""Two-sample testing that is sound under arbitrary missing data.

The decision rule: declare significance only when every completion of the
missing values would be significant. Operationally that means the whole
attainable interval [w_min, w_max] of the statistic must sit inside one
rejection tail of the null normal law. Alongside the decision, the report
carries the attainable p-value range [p_min, p_max]; significance is exactly
p_max < alpha, and p_min < alpha <= p_max marks the awkward middle ground
where the verdict genuinely depends on the unseen values.

Two variants are provided. ``robust_test_general`` allows ties and a
closed support: the interval tightens via boundary counts, and the decision
standardises with the largest attainable tie-corrected variance, which is
the conservative choice for the rejection tails. ``robust_test_distinct`` is
the same test with unbounded support and the variance pinned at the
uncorrected null variance, so its interval is the plain [W', W' + nm - n'm'].

``feasibility`` answers a cheaper question first: given only how much data
is missing, can any observed values make the distinct variant significant?
At or below the threshold on n'm'/(nm), no. In particular, at alpha < 1/2, 30
percent missing on both sides is hopeless for that variant. Boundary ties
on a closed support can still let the general variant reject there.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .bounds import (
    StatBounds, VarBounds, _doubled_stat_bounds, _p_range, _variance_ratios, variance_bounds,
)
from .exceptions import DegenerateDataError, DomainError
from .gaussian import _half, normal_quantile
from .ranks import Sample, Support, _doubled_wmw_statistic, null_variance
from .wmw import Alternative, tail_p

__all__ = [
    "Decision",
    "TestReport",
    "FeasibilityReport",
    "robust_test_distinct",
    "robust_test_general",
    "feasibility",
]


class Decision(enum.Enum):
    SIGNIFICANT = "significant"
    NOT_SIGNIFICANT = "not_significant"
    INCONCLUSIVE_DATA_DEPENDENT = "inconclusive_data_dependent"


@dataclass(frozen=True)
class TestReport:
    """Outcome of a missing-data-robust test."""

    decision: Decision
    p_min: float
    p_max: float
    w_bounds: StatBounds
    condition_same_sign: bool
    alpha: float
    alternative: Alternative
    variance: VarBounds
    variant: str  # "distinct" or "general"

    def to_dict(self) -> dict[str, Any]:
        b = self.w_bounds
        return {
            "decision": self.decision.value,
            "p_min": self.p_min,
            "p_max": self.p_max,
            "w_min": float(b.w_min),
            "w_max": float(b.w_max),
            "n": b.n,
            "m": b.m,
            "n_observed_x": b.n_obs_x,
            "n_observed_y": b.n_obs_y,
            "condition_same_sign": self.condition_same_sign,
            "alpha": self.alpha,
            "alternative": self.alternative.value,
            "sigma2_min": float(self.variance.sigma2_min),
            "sigma2_max": float(self.variance.sigma2_max),
            "variant": self.variant,
        }


@dataclass(frozen=True)
class FeasibilityReport:
    """Can significance ever be reached with this much data missing?"""

    n: int
    m: int
    n_obs_x: int
    n_obs_y: int
    alpha: float
    observed_fraction: float  # n'm'/(nm)
    threshold: float
    feasible: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "m": self.m,
            "n_observed_x": self.n_obs_x,
            "n_observed_y": self.n_obs_y,
            "alpha": self.alpha,
            "observed_pair_fraction": self.observed_fraction,
            "threshold": self.threshold,
            "feasible": self.feasible,
        }


def _check(alpha: float, alternative: Alternative) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not isinstance(alternative, Alternative):
        raise DomainError(f"unknown alternative {alternative!r}")


def _decide(p_min: float, p_max: float, alpha: float) -> Decision:
    if p_max < alpha:
        return Decision.SIGNIFICANT
    if p_min < alpha:
        return Decision.INCONCLUSIVE_DATA_DEPENDENT
    return Decision.NOT_SIGNIFICANT


def _refuse_single_value(x: Sample, y: Sample) -> None:
    """Refuse a one-value pool with nothing missing (sigma2_max = 0), from its sorted ends."""
    if (not x.n_missing and not y.n_missing
            and x.observed[0] == x.observed[-1] == y.observed[0] == y.observed[-1]):
        raise DegenerateDataError("pooled sample holds a single distinct value with nothing "
                                  "missing; no completion can ever reject")


def _p_bounds(x: Sample, y: Sample, support: Support, lo: float, hi: float,
              alternative: Alternative, doubled: int | None) -> tuple[float, float, bool, int, int]:
    """(p_min, p_max, same_sign, 2 w_min, 2 w_max) at the variance bounds lo
    and hi, from 2W'. With one side entirely missing (doubled None) any
    statistic value in [0, nm] is attainable and nothing can be concluded."""
    _refuse_single_value(x, y)
    nm = x.total * y.total
    if doubled is None:
        return 0.0, 1.0, False, 0, 2 * nm
    lo2, hi2 = _doubled_stat_bounds(x, y, support, doubled)
    return (*_p_range(((lo2 - nm, 2), (hi2 - nm, 2)), lo, hi, alternative), lo2, hi2)


def _robust_test(x: Sample, y: Sample, support: Support, var: VarBounds, alpha: float,
                 alternative: Alternative, variant: str) -> TestReport:
    paired = x.n_observed and y.n_observed
    doubled = _doubled_wmw_statistic(x.observed, y.observed) if paired else None
    p_min, p_max, same_sign, lo2, hi2 = _p_bounds(
        x, y, support, float(var.sigma2_min), float(var.sigma2_max), alternative, doubled)
    bounds = StatBounds(Fraction(lo2, 2), Fraction(hi2, 2), x.total, y.total,
                        x.n_observed, y.n_observed)
    decision = Decision.NOT_SIGNIFICANT if doubled is None else _decide(p_min, p_max, alpha)
    return TestReport(decision=decision, p_min=p_min, p_max=p_max, w_bounds=bounds,
                      condition_same_sign=same_sign, alpha=alpha, alternative=alternative,
                      variance=var, variant=variant)


def robust_test_distinct(
    x: Sample,
    y: Sample,
    alpha: float = 0.05,
    alternative: Alternative = Alternative.TWO_SIDED,
) -> TestReport:
    """Missing-data-robust test for distinct values on an unbounded domain.

    This is the general test with no support endpoints and the variance
    pinned at the uncorrected nm(n+m+1)/12: the attainable interval is
    [W', W' + (nm - n'm')]. It is the paper's rule, which the simulator's
    ``proposed`` runs; the CLI runs :func:`robust_test_general` instead.
    Ties are tolerated (the statistic uses midranks) but tighten nothing
    here. Where a completion ties, observed or missing values alike, only
    the SIGNIFICANT verdict keeps its guarantee, and only for a two-sided
    test or alpha <= 1/2: a completion's tie-corrected variance is below the
    pinned one, which moves its p-value away from 1/2, below p_min or, on the
    far side of the mean, above p_max. One value with nothing missing raises.
    """
    _check(alpha, alternative)
    sigma2 = null_variance(x.total, y.total)
    var = VarBounds(sigma2_min=sigma2, sigma2_max=sigma2, d_max=1)
    return _robust_test(x, y, Support(), var, alpha, alternative, "distinct")


class _DistinctRejection:
    """:func:`robust_test_distinct`'s verdict at fixed (n, m, alpha,
    alternative) in threshold form: for samples with n', m' >= 1 observed
    values and doubled statistic 2W' on them, ``rejects_doubled(n', m', 2W')``
    is ``robust_test_distinct(x, y, alpha, alternative).p_max < alpha``. With
    a side entirely missing p_max is 1, and on one value with nothing missing
    the report raises (:func:`_refuse_single_value`); the caller must not ask.

    With the variance pinned, p_max < alpha holds iff every attainable value
    of the doubled statistic, d in [2W', 2W' + 2(nm - n'm')], lies in the set
    where tail_p((d - nm)/2) < alpha. tail_p is monotone on either side of
    the mean, so that set is [0, lower] and [upper, 2nm]. Two-sided, p = 1 at
    the mean and the two pieces never meet; one-sided, one piece is empty and
    the other is a half-line that crosses the mean when alpha > 1/2. Both ends
    are found once, by bisection on tail_p itself, so a verdict costs one
    statistic and two integer comparisons.
    """

    def __init__(self, n: int, m: int, alpha: float, alternative: Alternative) -> None:
        _check(alpha, alternative)
        self.nm = nm = n * m
        sigma2 = float(null_variance(n, m))

        def in_tail(d: int) -> bool:
            return tail_p((d - nm) / 2, sigma2, alternative) < alpha

        # two-sided, each piece is searched on its own side of the mean: the
        # first d of [0, top] out of the tail, the first of [start, 2nm] in it
        top = nm if alternative is Alternative.TWO_SIDED else 2 * nm
        start = 2 * nm - top
        self.lower = -1 if alternative is Alternative.X_GREATER else (
            bisect.bisect_left(range(top + 1), True, key=lambda d: not in_tail(d)) - 1)
        self.upper = 2 * nm + 1 if alternative is Alternative.X_LESS else (
            start + bisect.bisect_left(range(start, 2 * nm + 1), True, key=in_tail))

    def rejects_doubled(self, n_obs_x: int, n_obs_y: int, doubled: int) -> bool:
        """The verdict from both observed counts, each at least 1, and 2W'."""
        return doubled + 2 * (self.nm - n_obs_x * n_obs_y) <= self.lower or doubled >= self.upper


def robust_test_general(
    x: Sample,
    y: Sample,
    support: Support,
    alpha: float = 0.05,
    alternative: Alternative = Alternative.TWO_SIDED,
) -> TestReport:
    """Missing-data-robust test allowing ties and a closed support.

    Boundary ties tighten the statistic interval, and the rejection decision
    standardises with the largest attainable tie-corrected variance. The
    reported p_min additionally uses the smallest attainable variance, which
    is required for a valid lower bound.
    """
    _check(alpha, alternative)
    return _robust_test(x, y, support, variance_bounds(x, y), alpha, alternative, "general")


def _general_p_max(x: Sample, y: Sample, support: Support, alternative: Alternative,
                   doubled: int | None, sizes: np.ndarray) -> float:
    """``robust_test_general(x, y, support, alpha, alternative).p_max``, with
    its errors, from 2W' (None when a side has no observed value) and the
    tie-group sizes of the observed pool, which must not be empty."""
    num_min, num_max, den, _ = _variance_ratios(x.total, y.total, sizes, x.n_missing + y.n_missing)
    return _p_bounds(x, y, support, num_min / den, num_max / den, alternative, doubled)[1]


def feasibility(
    n: int, m: int, n_obs_x: int, n_obs_y: int, alpha: float = 0.05,
    alternative: Alternative = Alternative.TWO_SIDED,
) -> FeasibilityReport:
    """Screen on the missing fractions, sharp for the distinct variant.

    That variant can be significant for some observed data if and only if

        n'm'/(nm) > 1/2 + z sqrt((n+m+1)/(12nm)),

    with z = z_{1-alpha/2} for the two-sided test and z_{1-alpha} for a
    one-sided one, taken from the lower tail as -z_{alpha/2} or -z_{alpha},
    so that an alpha near 0 keeps a finite z (two-sided, alpha >= 1e-323).
    For alpha < 1/2 the right side exceeds 1/2, so once both samples are
    missing 30 percent or more the answer is no. The general variant is not
    bound by this screen: observed values tied on the endpoints of a closed
    support can make it reject at or below the threshold.
    """
    _check(alpha, alternative)
    if not (1 <= n_obs_x <= n and 1 <= n_obs_y <= m):
        raise DomainError("observed counts must satisfy 1 <= n' <= n and 1 <= m' <= m")
    lhs = (n_obs_x * n_obs_y) / (n * m)
    tail = _half(alpha) if alternative is Alternative.TWO_SIDED else alpha
    rhs = 0.5 - normal_quantile(tail) * math.sqrt((n + m + 1) / (12.0 * n * m))
    return FeasibilityReport(
        n=n,
        m=m,
        n_obs_x=n_obs_x,
        n_obs_y=n_obs_y,
        alpha=alpha,
        observed_fraction=lhs,
        threshold=rhs,
        feasible=lhs > rhs,
    )
