"""Classical normal-approximation rank test, plus the usual ways of filling
in missing values before running it: the observed mean, or donors drawn
from the same sample."""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exceptions import DegenerateDataError, DomainError
from .gaussian import normal_cdf
from .ranks import Sample, _doubled_wmw_statistic, _tie_correction, _tie_variance, tie_profile

__all__ = [
    "Alternative",
    "tail_p",
    "wmw_test",
    "impute_mean",
    "impute_hot_deck",
]


class Alternative(enum.Enum):
    """Alternative hypothesis for the two-sample test."""

    TWO_SIDED = "two_sided"
    X_GREATER = "x_greater"
    X_LESS = "x_less"

    @classmethod
    def parse(cls, text: "str | Alternative") -> "Alternative":
        """The Alternative a name, an alias or an Alternative (its own key) denotes."""
        key = text.strip().lower().replace("-", "_") if isinstance(text, str) else text
        aliases = {"twosided": "two_sided", "greater": "x_greater", "less": "x_less"}
        try:
            return cls(aliases.get(key, key))
        except (ValueError, TypeError):
            raise DomainError(f"unknown alternative {text!r}") from None


def tail_p(q: Fraction | float, sigma2: Fraction | float, alternative: Alternative) -> float:
    """Normal-law p-value of the centred statistic q = w - nm/2 at variance sigma2.

    Every tail is Phi of a signed z (two-sided 2 Phi(-|z|)), accurate far out.
    With sigma2 = 0 the law is a point mass at nm/2: z is 0 at the mean and
    infinite away from it. A non-:class:`Alternative` raises :class:`DomainError`.
    """
    if sigma2 == 0:
        z = 0.0 if q == 0 else (math.inf if q > 0 else -math.inf)
    else:
        z = float(q) / math.sqrt(float(sigma2))
    if alternative is Alternative.TWO_SIDED:
        return 2.0 * normal_cdf(-abs(z))
    if alternative is Alternative.X_GREATER:
        return normal_cdf(-z)
    if alternative is Alternative.X_LESS:
        return normal_cdf(z)
    raise DomainError(f"unknown alternative {alternative!r}")


def _wmw(x: Sequence[float], y: Sequence[float], alternative: Alternative,
         doubled: int | None = None, sizes: np.ndarray | None = None) -> tuple[int, float]:
    """:func:`wmw_test` with twice the statistic as an int. A caller that has
    them passes 2W and the pool's tie-group sizes. Both int / int divisions
    round correctly, so they give the floats of the exact Fractions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not x.size or not y.size:
        raise DegenerateDataError("both samples must be nonempty")
    n, m = x.size, y.size
    doubled = _doubled_wmw_statistic(x, y) if doubled is None else doubled
    sizes = tie_profile(np.concatenate((x, y))) if sizes is None else sizes
    num, den = _tie_variance(n, m, _tie_correction(sizes))
    if num <= 0:
        raise DegenerateDataError("pooled sample is fully tied; the statistic has zero variance")
    return doubled, tail_p((doubled - n * m) / 2, num / den, alternative)


def wmw_test(
    x_obs: Sequence[float],
    y_obs: Sequence[float],
    alternative: Alternative = Alternative.TWO_SIDED,
) -> tuple[Fraction, float]:
    """Rank test on fully observed data; returns (statistic, p-value).

    The statistic is referenced to a normal law with mean nm/2 and the
    tie-corrected null variance, which is the plain nm(n+m+1)/12 on distinct
    data. No continuity correction is applied; a non-finite value raises
    DomainError, from :func:`~rankguard.ranks.tie_profile`, once both sides hold values.
    """
    doubled, p = _wmw(x_obs, y_obs, alternative)
    return Fraction(doubled, 2), p


def impute_mean(sample: Sample) -> np.ndarray:
    """Fill every missing slot with the mean of the observed values: a float64
    array, the observed values first."""
    if sample.n_observed == 0:
        raise DegenerateDataError("cannot impute a sample with no observed values")
    # summed as Python floats: from Python 3.12 built-in sum compensates
    # only exact floats, not np.float64
    mean = sum(sample.observed.tolist()) / sample.n_observed
    return np.concatenate((sample.observed, np.full(sample.n_missing, mean)))


def impute_hot_deck(sample: Sample, rng: np.random.Generator) -> np.ndarray:
    """Fill each missing slot with a donor drawn uniformly (with replacement)
    from the same sample's observed values: a float64 array, the observed
    values first."""
    if sample.n_observed == 0:
        raise DegenerateDataError("cannot impute a sample with no observed values")
    if sample.n_missing == 0:
        return sample.observed.copy()
    donors = rng.choice(sample.observed, size=sample.n_missing, replace=True)
    return np.concatenate((sample.observed, donors))
