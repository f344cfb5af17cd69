"""Step-down familywise error control for a family of p-values, such as the
worst-case p-values of several arms against one control."""

from __future__ import annotations

import math
from typing import Sequence

from .exceptions import DomainError

__all__ = ["holm_adjust"]


def holm_adjust(pvals: Sequence[float]) -> list[float]:
    """Holm step-down adjusted p-values, returned in the input order.

    Sort ascending; the i-th smallest is multiplied by (k - i + 1) and a
    running maximum enforces monotonicity; everything is capped at 1.
    """
    for p in pvals:
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise DomainError(f"p-values must lie in [0, 1], got {p!r}")
    k = len(pvals)
    order = sorted(range(k), key=lambda i: pvals[i])
    adjusted = [0.0] * k
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (k - rank) * pvals[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted

