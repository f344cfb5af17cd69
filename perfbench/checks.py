"""Checks of the benchmark's outputs that do not use rankguard.

Every expected value here is computed from the inputs with numpy and scipy
alone, or is a property the robust test must have. Functions return a list
of failure messages (empty when the output passes) or the expected value.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import special, stats

# --- pair probabilities p1 = P(X<Y), p2 = P(X<Y1, X<Y2), p3 = P(X1<Y, X2<Y)


def normal_shift_probs(delta: float) -> tuple[float, float, float]:
    """X ~ N(0,1), Y ~ N(delta,1). The differences Y1-X and Y2-X are
    bivariate normal with correlation 1/2, whose orthant probability at
    h = delta/sqrt(2) is Phi(h) - 2 T(h, 1/sqrt(3)) with Owen's T."""
    h = delta / math.sqrt(2.0)
    p1 = float(special.ndtr(h))
    p23 = p1 - 2.0 * float(special.owens_t(h, 1.0 / math.sqrt(3.0)))
    return p1, p23, p23


def exponential_probs(a: float, b: float) -> tuple[float, float, float]:
    """X ~ Exp(rate a), Y ~ Exp(rate b)."""
    return a / (a + b), a / (a + 2.0 * b), 1.0 - 2.0 * b / (a + b) + b / (2.0 * a + b)


def uniform_shift_probs(c: float) -> tuple[float, float, float]:
    """X ~ U(0,1), Y ~ U(c, 1+c) with 0 <= c <= 1."""
    p23 = c + (1.0 - c**3) / 3.0
    return 1.0 - (1.0 - c) ** 2 / 2.0, p23, p23


def check_pair_probs(
    label: str, got: Sequence[float], expected: Sequence[float], tol: float = 1e-9
) -> list[str]:
    return [
        f"{label}: {name} = {g!r}, closed form {e!r}"
        for name, g, e in zip(("p1", "p2", "p3"), got, expected)
        if not abs(g - e) <= tol
    ]


# --- statistic, bounds and variance from numpy counts


def mwu_statistic(x_obs: np.ndarray, y_obs: np.ndarray) -> Fraction:
    """Statistic of x against y (pairs with x above y, ties counting half),
    from scipy's Mann-Whitney U. Midranks are half-integers and every partial
    sum stays below 2**52, so the float result is exact."""
    u = stats.mannwhitneyu(x_obs, y_obs, alternative="two-sided", method="asymptotic")
    return Fraction(float(u.statistic))


def statistic_bounds(
    w_obs: Fraction,
    x_obs: np.ndarray,
    y_obs: np.ndarray,
    n: int,
    m: int,
    lower: float | None = None,
    upper: float | None = None,
) -> tuple[Fraction, Fraction]:
    """[w_min, w_max] over all completions. Missing x values go as low as the
    support allows and missing y values as high; a missing value placed on a
    support endpoint ties with the observed values already sitting there."""
    n1, m1 = len(x_obs), len(y_obs)
    dx, dy = n - n1, m - m1

    def at(values: np.ndarray, end: float | None) -> int:
        return 0 if end is None else int(np.count_nonzero(values == end))

    w_min = w_obs + Fraction(at(y_obs, lower) * dx + at(x_obs, upper) * dy, 2)
    w_max = w_obs + (n * m - n1 * m1) - Fraction(at(x_obs, lower) * dy + at(y_obs, upper) * dx, 2)
    return w_min, w_max


def tie_variance_bounds(pooled_obs: np.ndarray, n: int, m: int) -> tuple[Fraction, Fraction]:
    """(sigma2_min, sigma2_max) of the tie-corrected null variance over all
    completions, from the multiplicities np.unique counts. The maximum lets
    missing values tie with nothing; the minimum piles them all onto the
    largest observed tie group."""
    big_n = n + m
    if big_n > 2_000_000:
        raise ValueError("int64 sum of cubed multiplicities could overflow above 2e6 values")
    _, counts = np.unique(pooled_obs, return_counts=True)
    counts = counts.astype(np.int64)
    correction = int(np.sum(counts**3 - counts))
    scale = Fraction(n * m, 12 * big_n * (big_n - 1))
    sigma2_max = Fraction(n * m * (big_n + 1), 12) - scale * correction
    d_big = int(counts.max())
    d_max = d_big + big_n - len(pooled_obs)
    sigma2_min = sigma2_max - scale * ((d_max**3 - d_max) - (d_big**3 - d_big))
    return sigma2_min, sigma2_max


def threshold_decision(
    w_min: Fraction, w_max: Fraction, n: int, m: int, sigma2_max: Fraction, alpha: float
) -> tuple[bool, float]:
    """Two-sided robust decision in threshold form: significant iff
    w_max < mu - z sigma_max or w_min > mu + z sigma_max. Also returns the
    distance, in units of sigma_max, from the interval to the nearer
    threshold (positive on the side of the verdict)."""
    mu = n * m / 2.0
    sd = math.sqrt(float(sigma2_max))
    z = float(stats.norm.ppf(1.0 - alpha / 2.0))
    lo, hi = mu - z * sd, mu + z * sd
    significant = float(w_max) < lo or float(w_min) > hi
    if significant:
        margin = max(lo - float(w_max), float(w_min) - hi) / sd
    else:
        margin = min(float(w_max) - lo, hi - float(w_min)) / sd
    return significant, margin


# --- Monte-Carlo rates


def binomial_consistent(
    rejections: int, trials: int, reference: float, band: float = 0.05, tail: float = 1e-7
) -> bool:
    """True when some rate within `band` of `reference` makes the observed
    count at least `tail`-probable on its side. The band covers the table's
    two-digit rounding and its own Monte-Carlo error at 1000 trials."""
    lo, hi = max(0.0, reference - band), min(1.0, reference + band)
    too_many = stats.binom.sf(rejections - 1, trials, hi) < tail
    too_few = stats.binom.cdf(rejections, trials, lo) < tail
    return not (too_many or too_few)


def level_bound(trials: int, alpha: float) -> float:
    """alpha plus three binomial standard errors at `trials`."""
    return alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)


def non_increasing(row: Sequence[float], slack: float = 1e-12) -> bool:
    return all(b <= a + slack for a, b in zip(row, row[1:]))


# --- simulation CSV


def check_sim_csv(
    text: str,
    header: Sequence[str],
    s_values: Sequence[float],
    methods: Sequence[str],
    trials: int,
    alpha: float,
) -> list[str]:
    """Header, one row per (cell, method) in order, the ties-aware variant
    rejecting at least as often as the plain one, and both robust variants
    at most alpha + 3 se in every cell with data missing."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != list(header):
        return [f"CSV header {rows[0] if rows else None} != {list(header)}"]
    body = [dict(zip(header, row)) for row in rows[1:]]
    expected_keys = [(float(s), method) for s in s_values for method in methods]
    got_keys = [(float(r["s"]), r["method"]) for r in body]
    if got_keys != expected_keys:
        return [f"CSV rows {got_keys} != expected {expected_keys}"]
    failures = []
    limit = level_bound(trials, alpha)
    for s in s_values:
        cell = {r["method"]: r for r in body if float(r["s"]) == float(s)}
        counts = {}
        for method in ("proposed", "proposed_ties"):
            row = cell[method]
            if int(row["trials"]) != trials:
                failures.append(f"s={s} {method}: trials {row['trials']} != {trials}")
            counts[method] = round(float(row["reject_rate"]) * trials)
            if s > 0 and float(row["reject_rate"]) > limit:
                failures.append(f"s={s} {method}: rate {row['reject_rate']} > {limit:.4f}")
        if counts["proposed_ties"] < counts["proposed"]:
            failures.append(f"s={s}: proposed_ties rejects {counts['proposed_ties']} times, "
                            f"proposed {counts['proposed']}")
    return failures
