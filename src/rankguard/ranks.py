"""Exact multiset rank arithmetic.

Ranks of tied values are midranks (the mean of the integer ranks the tied
group would occupy), so every rank is an exact half-integer. All quantities
here (ranks, rank sums, the two-sample statistic, variances) are returned as
``fractions.Fraction`` so that downstream comparisons are exact; floats enter
only when a normal CDF is finally evaluated.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exceptions import DegenerateDataError, DomainError

__all__ = [
    "Sample",
    "Support",
    "TieProfile",
    "midrank",
    "rank_sum",
    "wmw_statistic",
    "tie_profile",
    "tie_corrected_variance",
    "null_variance",
]


def _as_sorted_floats(values: Iterable[float], what: str) -> tuple[float, ...]:
    out = []
    for v in values:
        v = float(v)
        if not math.isfinite(v):
            raise DomainError(f"{what} contains a non-finite value: {v!r}")
        out.append(v)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Sample:
    """Observed values of one sample plus the count of unobserved ones.

    The total sample size is ``len(observed) + n_missing``; the missing
    values are unknown reals (possibly constrained by a :class:`Support`).
    """

    observed: tuple[float, ...]
    n_missing: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "observed", _as_sorted_floats(self.observed, "observed"))
        try:
            object.__setattr__(self, "n_missing", operator.index(self.n_missing))
        except TypeError:
            raise DomainError(f"n_missing must be an integer, got {self.n_missing!r}") from None
        if self.n_missing < 0:
            raise DomainError(f"n_missing must be nonnegative, got {self.n_missing}")
        if self.total < 1:
            raise DomainError("a sample must contain at least one value")

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

    @property
    def kind(self) -> str:
        if self.lower is None and self.upper is None:
            return "unbounded"
        if self.lower is not None and self.upper is not None:
            return "bounded"
        return "half_bounded"

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
    def n_distinct(self) -> int:
        return len(self.multiplicities)

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    @property
    def has_ties(self) -> bool:
        return any(d > 1 for d in self.multiplicities)


def _doubled_rank_sum(values: Sequence[float], pool_sorted: np.ndarray) -> int:
    """Twice the midrank sum of ``values`` within the sorted pool, as an exact int."""
    v = np.asarray(values, dtype=float)
    lo = np.searchsorted(pool_sorted, v, side="left")
    hi = np.searchsorted(pool_sorted, v, side="right")
    return int(np.sum(2 * lo + (hi - lo) + 1))


def midrank(pool: Sequence[float], z: float) -> Fraction:
    """Midrank of ``z`` within the multiset ``pool``.

    Equals (number of pool values below z) + (number equal to z + 1)/2.
    """
    below = sum(1 for v in pool if v < z)
    tied = sum(1 for v in pool if v == z)
    if tied == 0:
        raise DomainError(f"value {z!r} is not a member of the pool")
    return Fraction(2 * below + tied + 1, 2)


def rank_sum(sub: Sequence[float], pool: Sequence[float]) -> Fraction:
    """Sum of midranks of ``sub`` within ``pool``; ``sub`` must be a sub-multiset."""
    counts = Counter(pool)
    counts.subtract(Counter(sub))
    if any(c < 0 for c in counts.values()):
        raise DomainError("sub is not contained in pool as a multiset")
    pool_sorted = np.sort(np.asarray(pool, dtype=float))
    return Fraction(_doubled_rank_sum(sub, pool_sorted), 2)


def _doubled_wmw_statistic(x: Sequence[float], y: Sequence[float]) -> int:
    """Twice :func:`wmw_statistic`, as an exact int."""
    x = list(x)
    y = list(y)
    if not x or not y:
        raise DegenerateDataError("both samples must contain at least one value")
    n = len(x)
    pool_sorted = np.sort(np.asarray(x + y, dtype=float))
    return _doubled_rank_sum(x, pool_sorted) - n * (n + 1)


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
