"""Exact multiset rank arithmetic.

Ranks of tied values are midranks (the mean of the integer ranks the tied
group would occupy), so every rank is an exact half-integer. Internally the
statistic is kept doubled as an int and each variance as an integer ratio;
public results are ``fractions.Fraction``. Floats enter only when a normal
CDF is finally evaluated, each rounded once from its exact value.
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
    "wmw_statistic",
    "tie_profile",
    "tie_corrected_variance",
    "null_variance",
]


def _sorted_finite(values: Sequence[float]) -> np.ndarray:
    """A sorted float64 copy of a one-dimensional sequence of finite reals;
    DomainError names the first non-finite value in input order."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DomainError(f"observed must be one-dimensional, got shape {values.shape}")
    ordered = np.sort(values)
    # sorted, a NaN comes last and an infinity first or last
    if ordered.size and not -math.inf < ordered[0] <= ordered[-1] < math.inf:
        bad = float(values[~np.isfinite(values)][0])
        raise DomainError(f"observed contains a non-finite value: {bad!r}")
    return ordered


@dataclass(frozen=True, eq=False)
class Sample:
    """Observed values of one sample plus the count of unobserved ones.

    ``observed`` is a sorted, read-only float64 array, copied from any
    one-dimensional sequence of finite reals, with every zero stored as
    +0.0 (no rank statistic tells -0.0 from 0.0). The total sample size is
    ``len(observed) + n_missing``; the missing values are unknown reals
    (possibly constrained by a :class:`Support`).
    """

    observed: np.ndarray
    n_missing: int = 0

    def __post_init__(self) -> None:
        observed = _sorted_finite(self.observed)
        observed += 0.0  # -0.0 + 0.0 is +0.0: one zero, whatever the input's signs
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
    """Domain the values live in: unbounded, or closed below/above.

    An open end is -inf or inf; the constructor takes None for one, so
    ``Support(lower=-math.inf) == Support()``.
    """

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", -math.inf if self.lower is None else float(self.lower))
        object.__setattr__(self, "upper", math.inf if self.upper is None else float(self.upper))
        # refuses a NaN end and an infinite end on the wrong side too
        if not self.lower < self.upper:
            raise DomainError("support requires lower < upper")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


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
    doubled = _doubled_wmw_statistic(x, y)  # an empty side first,
    _sorted_finite(np.concatenate((x, y), dtype=float))  # then a non-finite value
    return Fraction(doubled, 2)


def tie_profile(pool: Sequence[float]) -> np.ndarray:
    """Sizes of the tie groups of the pooled multiset, ordered by value, as
    ``np.unique(pool, return_counts=True)`` gives them. The pool is what
    :class:`Sample` takes, and a non-finite value raises as it does there."""
    pool = _sorted_finite(pool)
    if not pool.size:
        raise DomainError("pool must be nonempty")
    # starts[i]: a group starts at i; starts[N] closes the last one
    starts = np.empty(pool.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(pool[1:], pool[:-1], out=starts[1:-1])
    edges = starts.nonzero()[0]
    return edges[1:] - edges[:-1]


def null_variance(n: int, m: int) -> Fraction:
    """Null variance of the statistic when all pooled values are distinct."""
    return Fraction(n * m * (n + m + 1), 12)


def _tie_correction(sizes: np.ndarray) -> int:
    """The sum of d^3 - d over the tie-group sizes d > 1, exact in Python ints."""
    return sum([d * d * d - d for d in sizes[sizes > 1].tolist()])


def _tie_variance(n: int, m: int, correction: int) -> tuple[int, int]:
    """:func:`tie_corrected_variance` as the integer ratio nm((N+1)N(N-1) -
    correction) / 12N(N-1), N = n + m; the numerator is 0 on a fully tied pool."""
    N = n + m
    return n * m * ((N + 1) * N * (N - 1) - correction), 12 * N * (N - 1)


def tie_corrected_variance(n: int, m: int, sizes: Sequence[int]) -> Fraction:
    """Null variance of the statistic with the tie correction applied.

    nm(n+m+1)/12 minus nm / {12(n+m)(n+m-1)} times the sum of d^3 - d over
    the tie-group sizes d, as :func:`tie_profile` gives them. Equals the
    uncorrected variance exactly when every size is 1.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes < 1).any():
        raise DomainError("multiplicities must be positive")
    if n < 1 or m < 1:
        raise DomainError("both sample sizes must be at least 1")
    N, total = n + m, int(sizes.sum())
    if total != N:
        raise DomainError(f"profile covers {total} values, expected n + m = {N}")
    return Fraction(*_tie_variance(n, m, _tie_correction(sizes)))
