"""Theoretical power of the robust test when data are missing completely at
random, and its large-sample 0/1 classification.

Under MCAR the observed parts are themselves i.i.d. draws, so the observed
statistic W' is approximately normal with moments built from three pairwise
orderings of the underlying distributions. The robust test rejects exactly
when W' falls below L or above R, two thresholds determined by the null law
and by how much data is missing; the rejection probability follows by
standardising those thresholds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from scipy.integrate import quad

from .exceptions import DomainError
from .gaussian import _half, normal_cdf, normal_quantile

__all__ = [
    "PairProbs",
    "PowerInputs",
    "pair_probs",
    "mcar_power",
    "PowerLimit",
    "asymptotic_class",
]

_QUAD_ABS_TOL = 1e-9


@dataclass(frozen=True)
class PairProbs:
    """Orderings of independent draws X ~ F, Y ~ G.

    p1 = pr(X1 < Y1); p2 = pr(X1 < Y1 and X1 < Y2); p3 = pr(X1 < Y1 and X2 < Y1).
    """

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p1 < 1.0:
            raise DomainError("pair_probs requires 0 < p1 < 1 (distributions must overlap)")


@dataclass(frozen=True)
class PowerInputs:
    """Sizes, observed counts, level, and the pairwise ordering probabilities.

    Observed counts may be non-integer: the power formula is algebraic in
    them, and evaluating at n(1-s) exactly is the natural way to tabulate
    power against a missingness fraction s that does not divide n.
    """

    n: int
    m: int
    n_obs_x: float
    n_obs_y: float
    alpha: float
    pair: PairProbs

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise DomainError("sample sizes must be positive")
        if not (0 < self.n_obs_x <= self.n and 0 < self.n_obs_y <= self.m):
            raise DomainError("observed counts must lie in (0, n] and (0, m]")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")


def _integrate(fn, lo, hi) -> float:
    value, abserr = quad(fn, lo, hi, epsabs=_QUAD_ABS_TOL, epsrel=1e-10, limit=200)
    if abserr > 1e-6:
        raise ArithmeticError(
            f"quadrature did not converge (estimate {value!r}, abserr {abserr:.2e})"
        )
    return value


def pair_probs(dist_x, dist_y) -> PairProbs:
    """Compute the three ordering probabilities by adaptive quadrature.

    Both arguments must be continuous :class:`Distribution` objects (or
    anything exposing ``pdf``, ``cdf``, ``is_discrete`` and ``support_bounds``,
    the (lower, upper) range integrated over, with -inf or inf at an open end).
    """
    if dist_x.is_discrete or dist_y.is_discrete:
        raise DomainError("pair probabilities require continuous distributions")
    fx_lo, fx_hi = dist_x.support_bounds
    fy_lo, fy_hi = dist_y.support_bounds
    p1 = _integrate(lambda x: dist_x.pdf(x) * (1.0 - dist_y.cdf(x)), fx_lo, fx_hi)
    p2 = _integrate(lambda x: dist_x.pdf(x) * (1.0 - dist_y.cdf(x)) ** 2, fx_lo, fx_hi)
    p3 = _integrate(lambda y: dist_y.pdf(y) * dist_x.cdf(y) ** 2, fy_lo, fy_hi)
    return PairProbs(p1=p1, p2=p2, p3=p3)


def mcar_power(inputs: PowerInputs) -> float:
    """Probability that the robust test rejects, under MCAR.

    With mu = nm/2 and sigma the uncorrected null deviation, the rejection
    region for the observed statistic is W' < L or W' > R where

        L = mu - sigma z - nm + n'm',    R = mu + sigma z,    z = z_{1-alpha/2},

    and W' is approximately normal with mean m'n'p1 and the two-sample
    rank-statistic variance built from (p1, p2, p3). z is taken from the lower
    tail, as -z_{alpha/2}, so that an alpha near 0 (>= 1e-323) keeps a finite z.
    """
    n, m = inputs.n, inputs.m
    n1, m1 = inputs.n_obs_x, inputs.n_obs_y
    p1, p2, p3 = inputs.pair.p1, inputs.pair.p2, inputs.pair.p3
    mu = n * m / 2.0
    sigma = math.sqrt(n * m * (n + m + 1) / 12.0)
    z = -normal_quantile(_half(inputs.alpha))
    L = mu - sigma * z - n * m + n1 * m1
    R = mu + sigma * z
    mu_obs = m1 * n1 * p1
    var_obs = (
        m1 * n1 * p1 * (1.0 - p1)
        + m1 * n1 * (n1 - 1.0) * (p2 - p1 * p1)
        + n1 * m1 * (m1 - 1.0) * (p3 - p1 * p1)
    )
    if var_obs <= 0.0:
        raise ArithmeticError(f"observed-statistic variance is not positive: {var_obs!r}")
    sd_obs = math.sqrt(var_obs)
    return normal_cdf((L - mu_obs) / sd_obs) + 1.0 - normal_cdf((R - mu_obs) / sd_obs)


class PowerLimit(enum.Enum):
    POWER_TO_ZERO = "power_to_zero"
    POWER_TO_ONE = "power_to_one"


def asymptotic_class(lambda_x: float, lambda_y: float, p1: float) -> PowerLimit:
    """Limit of the MCAR rejection probability as both samples grow.

    With observed fractions tending to lambda_x, lambda_y, the rejection
    probability tends to 0 when lambda_x lambda_y (p1 - 1) + 1/2 > 0 and
    lambda_x lambda_y p1 - 1/2 < 0, and to 1 otherwise. Either expression
    hitting exactly 0 is outside the classification.
    """
    if not (0.0 < lambda_x <= 1.0 and 0.0 < lambda_y <= 1.0):
        raise DomainError("observed fractions must lie in (0, 1]")
    if not 0.0 < p1 < 1.0:
        raise DomainError("p1 must lie strictly between 0 and 1")
    low_side = lambda_x * lambda_y * (p1 - 1.0) + 0.5
    high_side = lambda_x * lambda_y * p1 - 0.5
    if low_side == 0.0 or high_side == 0.0:
        raise DomainError("boundary case: a classification expression equals zero")
    if low_side > 0.0 and high_side < 0.0:
        return PowerLimit.POWER_TO_ZERO
    return PowerLimit.POWER_TO_ONE
