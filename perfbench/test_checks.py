"""Tests of the benchmark's own checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root. The
closed forms are compared with quadrature on scipy distributions and the
bound formulas with enumeration of every completion, so neither side of a
check rests on rankguard.
"""

import itertools
import json
import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import checks

HERE = Path(__file__).resolve().parent


def quadrature_probs(fx, fy, support_x, support_y):
    def quad(fn, lo, hi):
        return integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)[0]

    p1 = quad(lambda x: fx.pdf(x) * fy.sf(x), *support_x)
    p2 = quad(lambda x: fx.pdf(x) * fy.sf(x) ** 2, *support_x)
    p3 = quad(lambda y: fy.pdf(y) * fx.cdf(y) ** 2, *support_y)
    return p1, p2, p3


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.7])
def test_normal_shift_probs_match_quadrature(delta):
    got = checks.normal_shift_probs(delta)
    want = quadrature_probs(stats.norm(0, 1), stats.norm(delta, 1),
                            (-np.inf, np.inf), (-np.inf, np.inf))
    assert np.allclose(got, want, atol=1e-9, rtol=0)


@pytest.mark.parametrize("a,b", [(1.0, 0.5), (0.3, 2.0)])
def test_exponential_probs_match_quadrature(a, b):
    got = checks.exponential_probs(a, b)
    want = quadrature_probs(stats.expon(scale=1 / a), stats.expon(scale=1 / b),
                            (0, np.inf), (0, np.inf))
    assert np.allclose(got, want, atol=1e-9, rtol=0)


@pytest.mark.parametrize("c", [0.2, 0.65])
def test_uniform_shift_probs_match_quadrature(c):
    got = checks.uniform_shift_probs(c)
    want = quadrature_probs(stats.uniform(0, 1), stats.uniform(c, 1), (0, 1), (c, 1 + c))
    assert np.allclose(got, want, atol=1e-9, rtol=0)


def test_check_pair_probs_flags_a_wrong_value():
    exact = checks.exponential_probs(1.0, 0.5)
    assert checks.check_pair_probs("e", exact, exact) == []
    assert len(checks.check_pair_probs("e", (exact[0] + 1e-6, *exact[1:]), exact)) == 1


def pair_count(x, y):
    """Pairs with x above y, ties counting half, by direct comparison."""
    return sum(Fraction(1) if a > b else Fraction(1, 2) if a == b else Fraction(0)
               for a in x for b in y)


def test_mwu_statistic_counts_pairs_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(0, 4, rng.integers(1, 9)).astype(float)
        y = rng.integers(0, 4, rng.integers(1, 9)).astype(float)
        assert checks.mwu_statistic(x, y) == pair_count(x, y)


def midrank_variance(pool, n):
    """Null variance of the statistic by the permutation formula on midranks."""
    pool = np.asarray(pool, dtype=float)
    big_n = len(pool)
    ranks = stats.rankdata(pool)
    spread = sum((Fraction(float(r)) - Fraction(big_n + 1, 2)) ** 2 for r in ranks)
    return Fraction(n * (big_n - n), big_n * (big_n - 1)) * spread


@pytest.mark.parametrize("lower,upper", [(0.0, 3.0), (0.0, None), (None, None)])
def test_bounds_and_variances_match_enumeration(lower, upper):
    # Completion grid: the observed values 0..3, points between them, and
    # points beyond each open end, so every ordering a completion can take
    # (including fresh distinct values) is present.
    grid = [v / 2 for v in range(-2, 10)]
    grid = [v for v in grid if (lower is None or v >= lower) and (upper is None or v <= upper)]
    rng = np.random.default_rng(11)
    for _ in range(6):
        x_obs = rng.integers(0, 4, 4).astype(float)
        y_obs = rng.integers(0, 4, 3).astype(float)
        n, m = 5, 5
        ws, variances = [], []
        for fill in itertools.product(grid, repeat=(n - 4) + (m - 3)):
            x = np.concatenate([x_obs, fill[: n - 4]])
            y = np.concatenate([y_obs, fill[n - 4:]])
            ws.append(pair_count(x, y))
            variances.append(midrank_variance(np.concatenate([x, y]), n))
        w_obs = checks.mwu_statistic(x_obs, y_obs)
        assert checks.statistic_bounds(w_obs, x_obs, y_obs, n, m, lower, upper) == (
            min(ws), max(ws))
        assert checks.tie_variance_bounds(np.concatenate([x_obs, y_obs]), n, m) == (
            min(variances), max(variances))


def test_threshold_decision_matches_endpoint_p_values():
    rng = np.random.default_rng(3)
    alpha = 0.05
    for _ in range(2000):
        n, m = (int(v) for v in rng.integers(5, 60, 2))
        n1, m1 = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
        w_min = Fraction(int(rng.integers(0, 2 * n1 * m1 + 1)), 2)
        w_max = w_min + n * m - n1 * m1
        sigma2 = Fraction(n * m * (n + m + 1), 12)
        mu = n * m / 2
        sd = math.sqrt(sigma2)
        p = [2 * stats.norm.sf(abs(float(w) - mu) / sd) for w in (w_min, w_max)]
        same_side = (w_min - Fraction(n * m, 2)) * (w_max - Fraction(n * m, 2)) > 0
        significant, margin = checks.threshold_decision(w_min, w_max, n, m, sigma2, alpha)
        if abs(margin) > 1e-9:
            assert significant == (max(p) < alpha and same_side)


def test_binomial_consistent():
    assert checks.binomial_consistent(500, 1000, 0.5)
    assert checks.binomial_consistent(0, 40, 0.0)
    assert checks.binomial_consistent(40, 40, 1.0)
    assert checks.binomial_consistent(2, 40, 0.01)
    assert not checks.binomial_consistent(200, 1000, 0.5)
    assert not checks.binomial_consistent(30, 40, 0.0)
    assert not checks.binomial_consistent(10, 40, 1.0)


def test_level_bound_and_monotonicity():
    assert checks.level_bound(2000, 0.05) == pytest.approx(0.05 + 3 * math.sqrt(0.0475 / 2000))
    assert checks.non_increasing((1.0, 1.0, 0.7, 0.0))
    assert not checks.non_increasing((0.9, 0.95, 0.1))


HEADER = ("mechanism", "s", "n", "m", "dist_x", "dist_y", "alpha", "method", "trials",
          "reject_rate", "stderr", "degenerate")
METHODS = ("proposed", "proposed_ties", "ignore")


def sim_csv(rates):
    lines = [",".join(HEADER)]
    for s, per_method in rates.items():
        for method, rate in zip(METHODS, per_method):
            lines.append(f"x:mnar_positive;y:none,{s},100,100,poisson(2),poisson(2),0.05,"
                         f"{method},100,{rate!r},0.0,0")
    return "\n".join(lines) + "\n"


def test_check_sim_csv():
    good = {0.1: (0.01, 0.02, 0.2), 0.2: (0.0, 0.0, 0.3)}
    assert checks.check_sim_csv(sim_csv(good), HEADER, (0.1, 0.2), METHODS, 100, 0.05) == []
    ties_below = {0.1: (0.02, 0.01, 0.2), 0.2: (0.0, 0.0, 0.3)}
    assert checks.check_sim_csv(sim_csv(ties_below), HEADER, (0.1, 0.2), METHODS, 100, 0.05)
    above_level = {0.1: (0.01, 0.2, 0.2), 0.2: (0.0, 0.0, 0.3)}
    assert checks.check_sim_csv(sim_csv(above_level), HEADER, (0.1, 0.2), METHODS, 100, 0.05)
    assert checks.check_sim_csv(sim_csv(good), HEADER, (0.1, 0.2, 0.3), METHODS, 100, 0.05)
    bad_header = sim_csv(good).replace("reject_rate", "rate", 1)
    assert checks.check_sim_csv(bad_header, HEADER, (0.1, 0.2), METHODS, 100, 0.05)


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads, tmp_path_factory.mktemp("wl")


def test_workload_checks_flag_wrong_outputs(workloads):
    wl_mod, workdir = workloads
    grid = wl_mod.McGrid(1, True, workdir)
    job = grid.prepare(0)
    records = [grid.record(job, grid.run(job))]
    assert grid.check(records) == []
    frontier = grid.cells.index((20, 2.0, 0.30))
    broken = [list(records[0])]
    broken[0][frontier] = (1, 0)
    assert any("0.49 < 1/2" in f for f in grid.check(broken))

    big = wl_mod.BigTest(1, True, workdir)
    general, distinct = big.run(None)
    assert big.check([(general, distinct)]) == []
    shifted = replace(distinct, w_bounds=replace(distinct.w_bounds, w_min=distinct.w_bounds.w_min + 1))
    assert any("w_min" in f for f in big.check([(general, shifted)]))

    power = wl_mod.PowerCurve(1, True, workdir)
    tables = power.run(None)
    assert power.check([tables]) == []
    (p1, p2, p3), rows = tables[0]
    assert power.check([[((p1 + 1e-6, p2, p3), rows)] + tables[1:]])


def test_quick_mode_passes_every_check():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    names = {f"{w}.{m}" for w in ("mc_grid", "sim_methods", "big_test", "power_curve")
             for m in ("setup_s", "op_s_p50", "work_per_s", "peak_rss_mb")}
    assert set(result["metrics"]) == names
