"""Per-layer timings for the traced run.

Each metric times calls into one public function of rankguard, on the
inputs of the workload it is expected to move (README lists the pairing).
Times are seconds per call: the median over calls, or over batches of calls
for functions that take less than a millisecond. The two count metrics
repeat exactly.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

import workloads
from rankguard import (
    BoundaryCounts,
    MissingnessSpec,
    PowerInputs,
    Sample,
    ScenarioSpec,
    apply_mcar,
    apply_mnar_positive,
    impute_hot_deck,
    impute_mean,
    make_distribution,
    mcar_power,
    normal_cdf,
    pair_probs,
    robust_test_distinct,
    robust_test_general,
    run_scenario,
    stat_bounds_general,
    sweep,
    tie_profile,
    variance_bounds,
    wmw_statistic,
    wmw_test,
    write_results_csv,
)
from rankguard.simulate import METHODS
from reference import ALPHA

TRIALS = 100  # trials per single-method run_scenario timing


def per_call(fn, budget: float = 0.4, repeats: int = 3) -> float:
    """Median seconds per call of fn(). A call of 0.1 s or more is timed
    `repeats` times, the first included; faster calls are warmed once and
    timed in batches of at least 2 ms for `budget` seconds."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first >= 0.1:
        times = [first]
        for _ in range(repeats - 1):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    batch = max(1, int(2e-3 / max(first, 1e-7)))
    times = []
    deadline = time.perf_counter() + budget
    while len(times) < repeats or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - start) / batch)
    return statistics.median(times)


class CountingDistribution:
    """Proxy that counts the pdf and cdf calls pair_probs makes."""

    def __init__(self, dist) -> None:
        self.dist = dist
        self.calls = 0
        self.support_bounds = dist.support_bounds
        self.is_discrete = dist.is_discrete

    def pdf(self, x):
        self.calls += 1
        return self.dist.pdf(x)

    def cdf(self, x):
        self.calls += 1
        return self.dist.cdf(x)


def _mc_spec(seed: int) -> ScenarioSpec:
    """A mid-grid mc_grid cell: n = m = 100, unit shift, 10 % MCAR, proposed."""
    return ScenarioSpec("normal(0,1)", "normal(1,1)", 100, 100,
                        (MissingnessSpec("mcar", 0.10),), ("proposed",), trials=TRIALS, seed=seed)


def _sim_spec(seed: int, methods=METHODS, trials: int = TRIALS) -> ScenarioSpec:
    """A sim_methods cell: Poisson(2) against Poisson(2), 10 % MNAR on x."""
    return ScenarioSpec("poisson(2)", "poisson(2)", 100, 100,
                        (MissingnessSpec("mnar_positive", 0.10, "x_only"),), tuple(methods),
                        trials=trials, seed=seed)


def _count_streams(spec: ScenarioSpec) -> float:
    """default_rng calls per trial of run_scenario, counted by wrapping numpy's."""
    original = np.random.default_rng
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    np.random.default_rng = counting
    try:
        run_scenario(spec, workers=1)
    finally:
        np.random.default_rng = original
    return calls / spec.trials


def _pool_start(seed: int, pairs: int = 5) -> float:
    """Extra wall time of a 2-trial run with two workers over one worker."""
    spec = _sim_spec(seed, trials=2)
    extra = []
    for _ in range(pairs):
        one = run_scenario(spec, workers=1).elapsed
        two = run_scenario(spec, workers=2).elapsed
        extra.append(two - one)
    return statistics.median(extra)


def measure(seed: int, workdir: Path, import_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {"cli.import_s": (import_s, "s")}

    def timed(name: str, fn) -> None:
        m[name] = (per_call(fn), "s")

    # big_test inputs: ranks, bounds and the two robust tests at 10^6
    big = workloads.BigTest(seed, False, workdir)
    timed("ranks.sample_s", lambda: Sample(big.x_cont, big.missing))
    xc, yc = Sample(big.x_cont, big.missing), Sample(big.y_cont, big.missing)
    xp, yp = Sample(big.x_pois, big.missing), Sample(big.y_pois, big.missing)
    timed("ranks.wmw_statistic_s", lambda: wmw_statistic(xc.observed, yc.observed))
    pooled = xp.observed + yp.observed
    timed("ranks.tie_profile_s", lambda: tie_profile(pooled))
    timed("bounds.variance_bounds_s", lambda: variance_bounds(xp, yp))
    timed("bounds.stat_bounds_general_s", lambda: stat_bounds_general(xp, yp, big.support))
    timed("bounds.boundary_counts_s",
          lambda: BoundaryCounts.from_observed(xp.observed, yp.observed, big.support))
    timed("robust.test_distinct_s", lambda: robust_test_distinct(xc, yc, ALPHA))
    timed("robust.test_general_s", lambda: robust_test_general(xp, yp, big.support, ALPHA))
    del big, xc, yc, xp, yp, pooled

    # mc_grid inputs: one n = m = 100 trial's samples
    rng = np.random.default_rng([seed, 0xC311])
    normal = make_distribution("normal(0,1)")
    x_full = normal.sample(rng, 100)
    y_full = make_distribution("normal(1,1)").sample(rng, 100)
    x_mc, y_mc = apply_mcar(x_full, 0.10, rng), apply_mcar(y_full, 0.10, rng)
    distinct = per_call(lambda: robust_test_distinct(x_mc, y_mc, ALPHA))
    statistic = per_call(lambda: wmw_statistic(x_mc.observed, y_mc.observed))
    m["robust.p_range_self_s"] = (distinct - statistic, "s")
    timed("gaussian.normal_cdf_s", lambda: normal_cdf(-1.2345))
    timed("simulate.stream_s", lambda: np.random.default_rng([seed, 12345, 1]))
    m["simulate.streams_per_trial"] = (_count_streams(_mc_spec(seed)), "count")
    timed("simulate.apply_mcar_s", lambda: apply_mcar(x_full, 0.10, rng))
    timed("distributions.sample_s", lambda: normal.sample(rng, 100))

    # sim_methods inputs: Poisson(2) with MNAR on x
    poisson = make_distribution("poisson(2)")
    xs_full = poisson.sample(rng, 100)
    xs = apply_mnar_positive(xs_full, 0.10, rng)
    ys = Sample(tuple(poisson.sample(rng, 100)), 0)
    timed("wmw.wmw_test_s", lambda: wmw_test(xs.observed, ys.observed))
    timed("wmw.impute_mean_s", lambda: impute_mean(xs))
    timed("wmw.impute_hot_deck_s", lambda: impute_hot_deck(xs, rng))
    timed("simulate.apply_mnar_positive_s", lambda: apply_mnar_positive(xs_full, 0.10, rng))
    for method in METHODS:
        spec = _mc_spec(seed) if method == "proposed" else _sim_spec(seed, (method,))
        m[f"simulate.trial_s.{method}"] = (per_call(lambda: run_scenario(spec)) / TRIALS, "s")
    m["simulate.pool_start_s"] = (_pool_start(seed), "s")
    results = sweep(_sim_spec(seed, trials=10), s_values=(0.05, 0.10, 0.20))
    csv_path = workdir / "layers.csv"
    timed("simulate.csv_write_s", lambda: write_results_csv(results, str(csv_path)))

    # power_curve inputs: one pair per family
    timed("distributions.pdf_s", lambda: normal.pdf(0.3))
    timed("distributions.cdf_s", lambda: normal.cdf(0.3))
    pairs = {}
    for family, param in workloads.QUICK_POWER_PAIRS:
        dist_x, dist_y = (make_distribution(s) for s in workloads.power_pair(family, param))
        start = time.perf_counter()
        pairs[family] = pair_probs(dist_x, dist_y)
        m[f"power.pair_probs_s.{family}"] = (time.perf_counter() - start, "s")
        proxies = CountingDistribution(dist_x), CountingDistribution(dist_y)
        pair_probs(*proxies)
        m[f"power.integrand_evals.{family}"] = (float(sum(p.calls for p in proxies)), "count")
    inputs = PowerInputs(100, 100, 90.0, 90.0, ALPHA, pairs["normal"])
    timed("power.mcar_power_s", lambda: mcar_power(inputs))
    return m
