"""Exact multiset rank arithmetic.

Ranks of tied values are midranks (the mean of the integer ranks the tied
group would occupy), so every rank is an exact half-integer. The statistic
and the variances are returned as ``fractions.Fraction`` so that downstream
comparisons are exact; floats enter only when a normal CDF is finally
evaluated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exceptions import DegenerateDataError, DomainError

__all__ = [
    "Sample",
    "Support",
    "TieProfile",
    "wmw_statistic",
    "tie_profile",
    "tie_corrected_variance",
    "null_variance",
]


@dataclass(frozen=True, eq=False)
class Sample:
    """Observed values of one sample plus the count of unobserved ones.

    ``observed`` is a sorted, read-only float64 array, copied from any
    one-dimensional sequence of finite reals. The total sample size is
    ``len(observed) + n_missing``; the missing values are unknown reals
    (possibly constrained by a :class:`Support`).
    """

    observed: np.ndarray
    n_missing: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.observed, dtype=float)
        if values.ndim != 1:
            raise DomainError(f"observed must be one-dimensional, got shape {values.shape}")
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[~finite][0])
            raise DomainError(f"observed contains a non-finite value: {bad!r}")
        observed = np.sort(values)
        # np.sort may reorder tied zeros and rewrite their signs: put them
        # back in input order, as a stable sort leaves them
        lo, hi = np.searchsorted(observed, 0.0, "left"), np.searchsorted(observed, 0.0, "right")
        if hi - lo > 1:
            observed[lo:hi] = values[values == 0]
        observed.flags.writeable = False
        object.__setattr__(self, "observed", observed)
        try:
            object.__setattr__(self, "n_missing", operator.index(self.n_missing))
        except TypeError:
            raise DomainError(f"n_missing must be an integer, got {self.n_missing!r}") from None
        if self.n_missing < 0:
            raise DomainError(f"n_missing must be nonnegative, got {self.n_missing}")
        if self.total < 1:
            raise DomainError("a sample must contain at least one value")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return self.n_missing == other.n_missing and np.array_equal(self.observed, other.observed)

    def __hash__(self) -> int:
        return hash((tuple(self.observed.tolist()), self.n_missing))

    @property
    def n_observed(self) -> int:
        return len(self.observed)

    @property
    def total(self) -> int:
        return len(self.observed) + self.n_missing


@dataclass(frozen=True)
class Support:
    """Domain the values live in: unbounded, or closed below/above."""

    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if v is not None:
                v = float(v)
                if not math.isfinite(v):
                    raise DomainError(f"support {name} must be finite or None")
                object.__setattr__(self, name, v)
        if self.lower is not None and self.upper is not None and not self.lower < self.upper:
            raise DomainError("support requires lower < upper")

    def contains(self, value: float) -> bool:
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True


@dataclass(frozen=True)
class TieProfile:
    """Multiplicities of the distinct values of a pooled multiset, in value order."""

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.multiplicities):
            raise DomainError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    @property
    def has_ties(self) -> bool:
        return any(d > 1 for d in self.multiplicities)


def _doubled_wmw_statistic(x: Sequence[float], y: Sequence[float]) -> int:
    """Twice :func:`wmw_statistic`, as an exact int: for each x value, twice
    the y values below it plus the y values equal to it."""
    x = np.asarray(x, dtype=float)
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise DegenerateDataError("both samples must contain at least one value")
    return int(y.searchsorted(x, "left").sum() + y.searchsorted(x, "right").sum())


def wmw_statistic(x: Sequence[float], y: Sequence[float]) -> Fraction:
    """Two-sample rank statistic: rank sum of x in the pool, less n(n+1)/2.

    Ranges over [0, nm]; with distinct values it counts the pairs with
    x above y, and ties contribute half a count.
    """
    return Fraction(_doubled_wmw_statistic(x, y), 2)


def _group_sizes(pool: Sequence[float]) -> np.ndarray:
    """Sizes of the tie groups of the pooled multiset, ordered by value."""
    if len(pool) == 0:
        raise DomainError("pool must be nonempty")
    return np.unique(np.asarray(pool, dtype=float), return_counts=True)[1]


def tie_profile(pool: Sequence[float]) -> TieProfile:
    """Group multiplicities of the pooled multiset, ordered by value."""
    return TieProfile(tuple(_group_sizes(pool).tolist()))


def null_variance(n: int, m: int) -> Fraction:
    """Null variance of the statistic when all pooled values are distinct."""
    return Fraction(n * m * (n + m + 1), 12)


def _tie_variance(n: int, m: int, sizes: Sequence[int]) -> Fraction:
    """:func:`tie_corrected_variance` from the tie-group sizes alone. Groups of
    one add nothing and are skipped; the sum is taken in Python ints, so it
    stays exact where d^3 overflows int64."""
    sizes = np.asarray(sizes)
    correction = sum(d**3 - d for d in sizes[sizes > 1].tolist())
    N = n + m
    return null_variance(n, m) - Fraction(n * m * correction, 12 * N * (N - 1))


def tie_corrected_variance(n: int, m: int, profile: TieProfile) -> Fraction:
    """Null variance of the statistic with the tie correction applied.

    nm(n+m+1)/12 minus nm / {12(n+m)(n+m-1)} times the sum of d^3 - d over
    the tie-group multiplicities d. Equals the uncorrected variance exactly
    when every multiplicity is 1.
    """
    if n < 1 or m < 1:
        raise DomainError("both sample sizes must be at least 1")
    N = n + m
    if profile.total != N:
        raise DomainError(f"profile covers {profile.total} values, expected n + m = {N}")
    return _tie_variance(n, m, profile.multiplicities)
