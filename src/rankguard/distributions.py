"""Named sampling distributions for the simulation harness and power theory.

A distribution is specified as a string like ``normal(0,1)``, ``poisson(3)``,
``uniform(0,1)`` or ``exponential(1)``. Parsing keeps the object as plain
data (name + parameters) so scenario specs stay picklable; the scipy frozen
distribution is built on first use and kept.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .exceptions import DomainError

__all__ = ["Distribution", "make_distribution", "DISTRIBUTION_NAMES"]

DISTRIBUTION_NAMES = ("normal", "poisson", "uniform", "exponential")

_SPEC_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*\(\s*([^()]*)\s*\)\s*$")


@dataclass(frozen=True)
class Distribution:
    """A named law with its parameters; ``support_bounds`` is the (lower,
    upper) range of its values, with -inf or inf at an open end."""

    name: str
    params: tuple[float, ...]
    support_bounds: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.name == "normal":
            bad, bounds = len(self.params) != 2 or self.params[1] <= 0, (-math.inf, math.inf)
            rule = "normal(mu, sigma) requires sigma > 0"
        elif self.name == "poisson":
            bad, bounds = len(self.params) != 1 or self.params[0] <= 0, (0.0, math.inf)
            rule = "poisson(lam) requires lam > 0"
        elif self.name == "uniform":
            bad, bounds = len(self.params) != 2 or not self.params[0] < self.params[1], self.params
            rule = "uniform(a, b) requires a < b"
        elif self.name == "exponential":
            bad, bounds = len(self.params) != 1 or self.params[0] <= 0, (0.0, math.inf)
            rule = "exponential(rate) requires rate > 0"
        else:
            bad, bounds = True, None
            rule = f"unknown distribution {self.name!r}; valid: {', '.join(DISTRIBUTION_NAMES)}"
        if bad:
            raise DomainError(rule)
        if not all(map(math.isfinite, self.params)):
            raise DomainError(f"{self.spec} requires finite parameters")
        object.__setattr__(self, "support_bounds", tuple(bounds))

    @property
    def spec(self) -> str:
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.name}({inner})"

    @property
    def is_discrete(self) -> bool:
        return self.name == "poisson"

    @functools.cached_property
    def _frozen(self):
        if self.name == "normal":
            return stats.norm(self.params[0], self.params[1])
        if self.name == "poisson":
            return stats.poisson(self.params[0])
        if self.name == "uniform":
            a, b = self.params
            return stats.uniform(a, b - a)
        rate = self.params[0]
        return stats.expon(scale=1.0 / rate)

    def cdf(self, x):
        return self._frozen.cdf(x)

    def pdf(self, x):
        if self.is_discrete:
            raise DomainError(f"{self.spec} is discrete and has no density")
        return self._frozen.pdf(x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.name == "normal":
            return rng.normal(self.params[0], self.params[1], size)
        if self.name == "poisson":
            return rng.poisson(self.params[0], size).astype(float)
        if self.name == "uniform":
            return rng.uniform(self.params[0], self.params[1], size)
        return rng.exponential(1.0 / self.params[0], size)


def make_distribution(spec: str | Distribution) -> Distribution:
    """Parse a distribution spec string such as ``normal(0,1)``."""
    if isinstance(spec, Distribution):
        return spec
    match = _SPEC_RE.match(spec)
    if not match:
        raise DomainError(
            f"cannot parse distribution {spec!r}; expected name(p1,...) with "
            f"name in {', '.join(DISTRIBUTION_NAMES)}"
        )
    name = match.group(1).lower()
    arg_text = match.group(2).strip()
    try:
        params = tuple(float(tok) for tok in arg_text.split(",")) if arg_text else ()
    except ValueError as exc:
        raise DomainError(f"bad distribution parameters in {spec!r}") from exc
    return Distribution(name=name, params=params)
