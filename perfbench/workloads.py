"""The four benchmark workloads.

Each workload is used in three steps:

- the constructor builds the inputs from the seed; with ``import rankguard``
  this is the set-up that ``setup_s`` times;
- ``prepare(i)`` makes the arguments of operation ``i`` outside the clock,
  ``run(job)`` is the timed operation and ``record(job, raw)`` keeps
  what the checks need, again outside the clock;
- ``check(records)`` runs after the timed loop and returns failure messages.

The expected values come from checks.py, which does not use rankguard. It
is imported inside the check methods only, so that the set-up probe, which
builds a workload, pays for ``import rankguard`` and the inputs and for
nothing of the checks (checks.py loads scipy.special and scipy.stats).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from source import import_rankguard

import_rankguard()

from rankguard import (  # noqa: E402  (after the path is set)
    Decision,
    MissingnessSpec,
    PowerInputs,
    Sample,
    ScenarioSpec,
    Support,
    cli,
    make_distribution,
    mcar_power,
    pair_probs,
    robust_test_distinct,
    robust_test_general,
    run_scenario,
)
from rankguard.simulate import CSV_COLUMNS, METHODS  # noqa: E402

from reference import ALPHA, MC_TABLE, S_GRID, THEORY_TABLE  # noqa: E402

POWER_SIZES = (20, 50, 100, 200)


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i; runs have far fewer than 1000 operations."""
    return seed * 1000 + i


class McGrid:
    """The 96-cell grid of acceptance criteria 5 and 7, method `proposed`,
    one worker. One operation is one pass over all cells; work is trials."""

    name = "mc_grid"

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.trials = 3 if quick else 40
        self.cells = [(n, delta, s) for (n, delta) in MC_TABLE for s in S_GRID]
        self.specs = [
            ScenarioSpec(
                dist_x="normal(0,1)",
                dist_y=f"normal({delta:g},1)",
                n=n,
                m=n,
                missingness=(MissingnessSpec("mcar", s),),
                methods=("proposed",),
                trials=self.trials,
                seed=seed,
            )
            for (n, delta, s) in self.cells
        ]

    def warm(self) -> None:
        run_scenario(replace(self.specs[-1], trials=2))

    def prepare(self, i: int):
        seed = op_seed(self.seed, i)
        return [replace(spec, seed=seed) for spec in self.specs]

    def run(self, job):
        return [run_scenario(spec, workers=1).outcomes["proposed"] for spec in job]

    def record(self, job, raw):
        return [(o.rejections, o.degenerate) for o in raw]

    def work(self, job) -> int:
        return sum(spec.trials for spec in job)

    def check(self, records) -> list[str]:
        failures = []
        pooled = [0] * len(self.cells)
        for op, outcomes in enumerate(records):
            for index, (cell, (rej, deg)) in enumerate(zip(self.cells, outcomes)):
                pooled[index] += rej
                failures += self._cell(f"op {op}", cell, rej, deg, self.trials)
        for cell, rej in zip(self.cells, pooled):
            failures += self._cell("pooled", cell, rej, 0, self.trials * len(records))
        return failures

    def _cell(self, where: str, cell, rej: int, deg: int, trials: int) -> list[str]:
        import checks

        n, delta, s = cell
        reference = MC_TABLE[(n, delta)][S_GRID.index(s)]
        label = f"{where} n={n} shift={delta:g} s={s:g}"
        failures = []
        if s == 0.30 and rej != 0:
            failures.append(f"{label}: {rej} rejections where n'm'/(nm) = 0.49 < 1/2")
        if delta == 0.0 and s > 0 and rej / trials > checks.level_bound(trials, ALPHA):
            failures.append(f"{label}: null rate {rej / trials:.4f} above alpha + 3 se")
        if not checks.binomial_consistent(rej, trials, reference):
            failures.append(f"{label}: {rej}/{trials} rejections against table {reference}")
        if deg:
            failures.append(f"{label}: {deg} degenerate trials")
        return failures


class SimMethods:
    """`rankguard simulate` through cli.main: Poisson(2) against Poisson(2),
    MNAR on x only, all six methods, two workers, CSV written. One operation
    is one command; work is trials times methods."""

    name = "sim_methods"
    s_values = (0.05, 0.10, 0.20)
    n = 100

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.trials = 20 if quick else 300
        self.scenario = self._write_scenario("sim_methods", self.n, self.s_values, self.trials)
        self.out = workdir / "sim_methods.csv"

    def _write_scenario(self, stem: str, n: int, s_values, trials: int) -> Path:
        path = self.workdir / f"{stem}.scenario"
        path.write_text(
            "dist_x = poisson(2)\n"
            "dist_y = poisson(2)\n"
            f"n = {n}\nm = {n}\n"
            "mechanism_x = mnar_positive\n"
            f"s = {','.join(format(s, 'g') for s in s_values)}\n"
            f"methods = {','.join(METHODS)}\n"
            f"trials = {trials}\n"
        )
        return path

    def _argv(self, scenario: Path, seed: int, workers: int, out: Path) -> list[str]:
        return ["simulate", "--scenario", str(scenario), "--seed", str(seed),
                "--workers", str(workers), "--out", str(out)]

    def warm(self) -> None:
        scenario = self._write_scenario("warm", 20, (0.1,), 4)
        self.run(self._argv(scenario, self.seed, 2, self.workdir / "warm.csv"))

    def prepare(self, i: int):
        return self._argv(self.scenario, op_seed(self.seed, i), 2, self.out)

    def run(self, job):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(job)
        return code, stdout.getvalue()

    def record(self, job, raw):
        code, stdout = raw
        text = self.out.read_text()
        self.out.unlink()
        return code, stdout, text

    def work(self, job) -> int:
        return self.trials * len(METHODS) * len(self.s_values)

    def check(self, records) -> list[str]:
        import checks

        failures = []
        rows = len(self.s_values) * len(METHODS)
        for op, (code, stdout, text) in enumerate(records):
            if code != 0:
                failures.append(f"op {op}: simulate exited {code}")
            if stdout != f"wrote {rows} rows to {self.out}\n":
                failures.append(f"op {op}: unexpected stdout {stdout!r}")
            failures += [
                f"op {op}: {f}"
                for f in checks.check_sim_csv(
                    text, CSV_COLUMNS, self.s_values, METHODS, self.trials, ALPHA
                )
            ]
        return failures + self._check_worker_invariance()

    def _check_worker_invariance(self) -> list[str]:
        """Two workers and one worker write byte-identical CSV (reduced scenario)."""
        scenario = self._write_scenario("reduced", 40, (0.1, 0.2), 24)
        outputs = {}
        for workers in (2, 1):
            out = self.workdir / f"reduced_w{workers}.csv"
            code, _ = self.run(self._argv(scenario, self.seed, workers, out))
            if code != 0:
                return [f"reduced scenario: simulate exited {code} at {workers} workers"]
            outputs[workers] = out.read_bytes()
        if outputs[1] != outputs[2]:
            return ["reduced scenario: CSV differs between 1 and 2 workers"]
        return []


class BigTest:
    """One robust analysis at n = m = 10^6 totals with 10 % missing per side.
    One operation builds four Samples from numpy arrays and runs the general
    test on Poisson counts (support bounded below by 0) and the distinct test
    on continuous data. Work is observed values tested."""

    name = "big_test"
    support = Support(lower=0.0)

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.total = 20_000 if quick else 1_000_000
        self.missing = self.total // 10
        rng = np.random.default_rng([seed, 0xB16])

        def observed(values: np.ndarray) -> np.ndarray:
            return np.delete(values, rng.choice(self.total, size=self.missing, replace=False))

        # Poisson(1) against Poisson(3) is significant and N(0,1) against
        # N(0.1,1) is not; both verdicts sit far from the rejection thresholds.
        self.x_pois = observed(rng.poisson(1.0, self.total).astype(float))
        self.y_pois = observed(rng.poisson(3.0, self.total).astype(float))
        self.x_cont = observed(rng.normal(0.0, 1.0, self.total))
        self.y_cont = observed(rng.normal(0.1, 1.0, self.total))

    def warm(self) -> None:
        small = slice(0, 2000)
        robust_test_general(
            Sample(self.x_pois[small], 10), Sample(self.y_pois[small], 10), self.support, ALPHA
        )
        robust_test_distinct(Sample(self.x_cont[small], 10), Sample(self.y_cont[small], 10), ALPHA)

    def prepare(self, i: int):
        return None

    def run(self, job):
        xp = Sample(self.x_pois, self.missing)
        yp = Sample(self.y_pois, self.missing)
        general = robust_test_general(xp, yp, self.support, ALPHA)
        xc = Sample(self.x_cont, self.missing)
        yc = Sample(self.y_cont, self.missing)
        distinct = robust_test_distinct(xc, yc, ALPHA)
        return general, distinct

    def record(self, job, raw):
        return raw

    def work(self, job) -> int:
        return 2 * (len(self.x_pois) + len(self.y_pois))

    def expected(self):
        """Closed forms from numpy counts and scipy, in the order run() returns
        the reports: (w_min, w_max, sigma2_min, sigma2_max) of each test."""
        import checks

        n = m = self.total
        w_pois = checks.mwu_statistic(self.x_pois, self.y_pois)
        w_min, w_max = checks.statistic_bounds(
            w_pois, self.x_pois, self.y_pois, n, m, lower=self.support.lower
        )
        s2_min, s2_max = checks.tie_variance_bounds(
            np.concatenate([self.x_pois, self.y_pois]), n, m
        )
        general = (w_min, w_max, s2_min, s2_max)
        w_cont = checks.mwu_statistic(self.x_cont, self.y_cont)
        w_min, w_max = checks.statistic_bounds(w_cont, self.x_cont, self.y_cont, n, m)
        null = Fraction(n * m * (n + m + 1), 12)
        distinct = (w_min, w_max, null, null)
        return {"general": general, "distinct": distinct}

    def check(self, records) -> list[str]:
        import checks

        failures = []
        for index, (label, closed) in enumerate(self.expected().items()):
            w_min, w_max, s2_min, s2_max = closed
            significant, margin = checks.threshold_decision(
                w_min, w_max, self.total, self.total, s2_max, ALPHA
            )
            if margin < 5.0:
                failures.append(f"{label}: verdict only {margin:.2f} sd from its threshold")
            for op, reports in enumerate(records):
                report = reports[index]
                got = (report.w_bounds.w_min, report.w_bounds.w_max,
                       report.variance.sigma2_min, report.variance.sigma2_max)
                for name, g, e in zip(("w_min", "w_max", "sigma2_min", "sigma2_max"), got, closed):
                    if g != e:
                        failures.append(f"op {op} {label}: {name} = {g}, closed form {e}")
                if (report.decision is Decision.SIGNIFICANT) != significant:
                    failures.append(
                        f"op {op} {label}: decision {report.decision.value}, "
                        f"threshold form says significant={significant}"
                    )
        return failures


POWER_PAIRS = (
    ("normal", 0.5),
    ("normal", 1.0),
    ("normal", 2.0),
    ("exponential", (1.0, 0.5)),
    ("uniform", 0.2),
)
QUICK_POWER_PAIRS = POWER_PAIRS[1:2] + POWER_PAIRS[3:]


def power_pair(family: str, param) -> tuple[str, str]:
    """Distribution specs of one power_curve pair."""
    if family == "normal":
        return "normal(0,1)", f"normal({param:g},1)"
    if family == "exponential":
        return f"exponential({param[0]:g})", f"exponential({param[1]:g})"
    return "uniform(0,1)", f"uniform({param:g},{1 + param:g})"


def closed_form_probs(family: str, param) -> tuple[float, float, float]:
    import checks

    if family == "normal":
        return checks.normal_shift_probs(param)
    if family == "exponential":
        return checks.exponential_probs(*param)
    return checks.uniform_shift_probs(param)


class PowerCurve:
    """Theoretical power table: pair_probs on five distribution pairs, then
    mcar_power for n in POWER_SIZES times S_GRID on each. One operation is
    the whole table; work is distribution pairs. The inputs are fixed by the
    paper's table, so the seed does not enter."""

    name = "power_curve"

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.pairs = [
            (family, param, *(make_distribution(s) for s in power_pair(family, param)))
            for family, param in (QUICK_POWER_PAIRS if quick else POWER_PAIRS)
        ]

    def warm(self) -> None:
        self._table(*self.pairs[-1][2:])

    def _table(self, dist_x, dist_y):
        pair = pair_probs(dist_x, dist_y)
        rows = {
            n: tuple(
                mcar_power(PowerInputs(n, n, n * (1 - s), n * (1 - s), ALPHA, pair))
                for s in S_GRID
            )
            for n in POWER_SIZES
        }
        return (pair.p1, pair.p2, pair.p3), rows

    def prepare(self, i: int):
        return None

    def run(self, job):
        return [self._table(dist_x, dist_y) for _, _, dist_x, dist_y in self.pairs]

    def record(self, job, raw):
        return raw

    def work(self, job) -> int:
        return len(self.pairs)

    def check(self, records) -> list[str]:
        import checks

        failures = []
        for op, tables in enumerate(records):
            for (family, param, _, _), (probs, rows) in zip(self.pairs, tables):
                label = f"op {op} {family}({param})"
                failures += checks.check_pair_probs(label, probs, closed_form_probs(family, param))
                for n, row in rows.items():
                    if not checks.non_increasing(row):
                        failures.append(f"{label} n={n}: power {row} rises with s")
                    if family == "normal":
                        for s, got, ref in zip(S_GRID, row, THEORY_TABLE[(n, param)]):
                            if abs(got - ref) > 0.01:
                                failures.append(f"{label} n={n} s={s:g}: {got:.4f} vs table {ref}")
        return failures


WORKLOADS = {cls.name: cls for cls in (McGrid, SimMethods, BigTest, PowerCurve)}


def build(name: str, seed: int, quick: bool, workdir: Path):
    return WORKLOADS[name](seed, quick, workdir)


