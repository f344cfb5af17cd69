"""Standard normal CDF and quantile function."""

from __future__ import annotations

from scipy.special import ndtr, ndtri

from .exceptions import DomainError

__all__ = ["normal_cdf", "normal_quantile"]


def normal_cdf(z: float) -> float:
    """P(Z <= z) for standard normal Z."""
    return float(ndtr(z))


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf`; requires p strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires p in (0, 1), got {p!r}")
    return float(ndtri(p))


def _half(alpha: float) -> float:
    """alpha / 2, the tail of a two-sided test at alpha; DomainError where it rounds to 0."""
    if alpha / 2.0 == 0.0:
        raise DomainError(f"two-sided alpha {alpha!r} is below the smallest supported "
                          "two-sided alpha, 1e-323: its half rounds to 0")
    return alpha / 2.0
