"""Independent brute-force oracles used as ground truth by the test suite.

Everything here recomputes quantities from first principles (pair counting,
position averaging, exhaustive enumeration) and deliberately avoids the
library's formulas, so agreement is meaningful evidence. There are two
exceptions. ``oracle_run_block`` is the simulator's earlier trial loop,
built from the library's exact reports and numpy's own generators, kept as
the reference for the faster loop that replaced it. ``oracle_corner_p_range``
takes the library's own tail p-value at every corner of the attainable
rectangle, because what it checks is which corners the p-value bounds
evaluate, not the tail itself.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, erf, erfc, sqrt
from typing import Iterable, Iterator, Sequence


def oracle_wmw(x: Sequence[float], y: Sequence[float]) -> Fraction:
    """Statistic by direct pair counting: one per x above y, half per tie."""
    doubled = 0
    for xv in x:
        for yv in y:
            if xv > yv:
                doubled += 2
            elif xv == yv:
                doubled += 1
    return Fraction(doubled, 2)


def oracle_midranks(pool: Sequence[float]) -> dict[float, Fraction]:
    """Midranks via position averaging in the sorted pool (quadratic scan)."""
    ordered = sorted(pool)
    out: dict[float, Fraction] = {}
    for value in set(pool):
        positions = [i + 1 for i, v in enumerate(ordered) if v == value]
        out[value] = Fraction(sum(positions), len(positions))
    return out


def oracle_tie_variance(n: int, m: int, pool: Sequence[float]) -> Fraction:
    """Tie-corrected null variance recomputed from the pooled multiplicities."""
    N = n + m
    correction = sum(c**3 - c for c in Counter(pool).values())
    return Fraction(n * m * (N + 1), 12) - Fraction(n * m * correction, 12 * N * (N - 1))


def oracle_permutation_variance(pool: Sequence[float], n: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the statistic over all C(N, n) splits."""
    N = len(pool)
    total = comb(N, n)
    mean_acc = Fraction(0)
    sq_acc = Fraction(0)
    indices = range(N)
    for subset in itertools.combinations(indices, n):
        chosen = set(subset)
        x = [pool[i] for i in indices if i in chosen]
        y = [pool[i] for i in indices if i not in chosen]
        w = oracle_wmw(x, y)
        mean_acc += w
        sq_acc += w * w
    mean = mean_acc / total
    return mean, sq_acc / total - mean * mean


def oracle_two_sided_p(x: Sequence[float], y: Sequence[float]) -> float:
    """Classical tie-corrected two-sided p, built only on this module plus erf."""
    n, m = len(x), len(y)
    w = oracle_wmw(x, y)
    sigma2 = oracle_tie_variance(n, m, list(x) + list(y))
    if sigma2 <= 0:
        raise ZeroDivisionError("fully tied pool")
    z = float(w - Fraction(n * m, 2)) / sqrt(float(sigma2))
    score = 0.5 * (1.0 + erf(z / sqrt(2.0)))
    return 1.0 - abs(1.0 - 2.0 * score)


def oracle_p(x: Sequence[float], y: Sequence[float], alternative) -> float:
    """Classical tie-corrected p for an alternative (matched by its value), from
    this module plus erfc, which keeps every tail accurate far out."""
    n, m = len(x), len(y)
    w = oracle_wmw(x, y)
    sigma2 = oracle_tie_variance(n, m, list(x) + list(y))
    if sigma2 <= 0:
        raise ZeroDivisionError("fully tied pool")
    t = float(w - Fraction(n * m, 2)) / sqrt(2.0 * float(sigma2))
    tails = {"two_sided": erfc(abs(t)), "x_greater": 0.5 * erfc(t), "x_less": 0.5 * erfc(-t)}
    return tails[alternative.value]


def grid_completions(
    x_obs: Sequence[float],
    y_obs: Sequence[float],
    n_missing_x: int,
    n_missing_y: int,
    grid: Sequence[float],
) -> Iterator[tuple[list[float], list[float]]]:
    """All completions with missing values ranging over a finite grid."""
    for fill_x in itertools.product(grid, repeat=n_missing_x):
        for fill_y in itertools.product(grid, repeat=n_missing_y):
            yield list(x_obs) + list(fill_x), list(y_obs) + list(fill_y)


def distinct_completions(
    x_obs: Sequence[float],
    y_obs: Sequence[float],
    n_missing_x: int,
    n_missing_y: int,
) -> Iterator[tuple[list[float], list[float]]]:
    """All order-distinct completions with distinct real values, unbounded domain.

    Only the interleaving of the inserted values with the observed ones (and
    with each other) matters, so it suffices to place them on a finite
    candidate set holding enough distinct values inside every gap between
    order statistics and beyond both extremes.
    """
    d = n_missing_x + n_missing_y
    if d == 0:
        yield list(x_obs), list(y_obs)
        return
    anchors = sorted(set(list(x_obs) + list(y_obs)))
    candidates: list[float] = []
    step = 1.0 / (d + 1)
    candidates.extend(anchors[0] - 1 - i for i in range(d))
    for lo, hi in zip(anchors, anchors[1:]):
        candidates.extend(lo + (hi - lo) * step * (i + 1) for i in range(d))
    candidates.extend(anchors[-1] + 1 + i for i in range(d))
    for combo in itertools.combinations(candidates, d):
        for x_part in itertools.combinations(combo, n_missing_x):
            y_part = [v for v in combo if v not in x_part]
            yield list(x_obs) + list(x_part), list(y_obs) + list(y_part)


def oracle_corner_p_range(bounds, var, alternative) -> tuple[float, float]:
    """The smallest and largest float ``tail_p`` over every corner of the
    rectangle [w_min, w_max] x [sigma2_min, sigma2_max], plus the mean when
    the interval straddles it, with no monotonicity assumed."""
    from rankguard.wmw import tail_p

    mu = Fraction(bounds.n * bounds.m, 2)
    qs = [bounds.w_min - mu, bounds.w_max - mu]
    if bounds.w_min < mu < bounds.w_max:
        qs.append(Fraction(0))
    ps = [tail_p(float(q), float(v), alternative)
          for q in qs for v in (var.sigma2_min, var.sigma2_max)]
    return min(ps), max(ps)


def all_multisets(values: Sequence[float], size: int) -> Iterable[tuple[float, ...]]:
    return itertools.combinations_with_replacement(values, size)


def oracle_run_block(spec, start: int, stop: int) -> Counter:
    """The simulator's trial loop as it was before its streams were seeded in
    one vectorised pass: one ``default_rng([seed, trial, role])`` per stream,
    and ``proposed`` decided by the full report, p_max < alpha. With no
    observed value on either side ``proposed_ties`` keeps the null, as the
    report of ``proposed`` does. Returns the same (method, 0) rejected /
    (method, 1) degenerate tallies as ``rankguard.simulate._run_block``."""
    import numpy as np

    from rankguard.exceptions import DegenerateDataError
    from rankguard.robust import robust_test_distinct, robust_test_general
    from rankguard.simulate import (
        _ROLE_HOT_DECK, _ROLE_MISS_X, _ROLE_MISS_Y, _ROLE_X, _ROLE_Y, _apply_missingness,
    )
    from rankguard.wmw import impute_hot_deck, impute_mean, wmw_test

    support, alternative = spec.domain, spec.alternative
    ms_x = spec.mechanism_for("x")
    ms_y = spec.mechanism_for("y")
    tallies: Counter[tuple[str, int]] = Counter()  # (method, 0) rejected, (method, 1) degenerate
    for trial in range(start, stop):
        def stream(role: int) -> np.random.Generator:
            return np.random.default_rng([spec.seed, trial, role])

        x_full = spec.dist_x.sample(stream(_ROLE_X), spec.n)
        y_full = spec.dist_y.sample(stream(_ROLE_Y), spec.m)
        x_s = _apply_missingness(x_full, ms_x, stream(_ROLE_MISS_X))
        y_s = _apply_missingness(y_full, ms_y, stream(_ROLE_MISS_Y))
        for method in spec.methods:
            # one p-value per method; a robust test is SIGNIFICANT iff p_max < alpha
            try:
                if method == "proposed":
                    p = robust_test_distinct(x_s, y_s, spec.alpha, alternative).p_max
                elif method == "proposed_ties":
                    p = (robust_test_general(x_s, y_s, support, spec.alpha, alternative).p_max
                         if x_s.n_observed or y_s.n_observed else 1.0)
                elif method == "ignore":
                    _, p = wmw_test(x_s.observed, y_s.observed, alternative)
                elif method == "mean_impute":
                    _, p = wmw_test(impute_mean(x_s), impute_mean(y_s), alternative)
                elif method == "hot_deck":
                    rng = stream(_ROLE_HOT_DECK)
                    x_i, y_i = impute_hot_deck(x_s, rng), impute_hot_deck(y_s, rng)
                    _, p = wmw_test(x_i, y_i, alternative)
                else:  # oracle
                    _, p = wmw_test(x_full, y_full, alternative)
            except DegenerateDataError:
                tallies[method, 1] += 1
                continue
            if p < spec.alpha:
                tallies[method, 0] += 1
    return tallies
