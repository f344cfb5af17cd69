import csv
import math
import re
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rankguard import (
    Alternative,
    DomainError,
    MissingnessSpec,
    ScenarioSpec,
    Support,
    apply_mcar,
    apply_mnar_positive,
    make_distribution,
    run_scenario,
    sweep,
    write_results_csv,
)
from rankguard import simulate
from rankguard.simulate import (
    CSV_COLUMNS, METHODS, _missing_count, _run_block, _stream_seeds, _Words,
)

from oracles import oracle_run_block


def small_spec(**overrides):
    base = dict(
        dist_x="normal(0,1)",
        dist_y="normal(1,1)",
        n=30,
        m=30,
        missingness=(MissingnessSpec("mcar", 0.1),),
        methods=("proposed", "ignore", "mean_impute", "hot_deck", "oracle"),
        alpha=0.05,
        trials=40,
        seed=123,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestApplyMcar:
    def test_zero_fraction_is_identity(self):
        values = [3.0, 1.0, 2.0]
        out = apply_mcar(values, 0.0, np.random.default_rng(0))
        assert out.observed.tolist() == [1.0, 2.0, 3.0] and out.n_missing == 0

    def test_exact_removal_count(self):
        rng = np.random.default_rng(0)
        out = apply_mcar(list(range(10)), 0.1, rng)
        assert out.n_missing == 1 and out.n_observed == 9

    def test_half_counts_round_down(self):
        # 50 values at 5 and 15 percent: 2.5 -> 2 and 7.5 -> 7 removed
        rng = np.random.default_rng(0)
        assert apply_mcar(list(range(50)), 0.05, rng).n_missing == 2
        assert apply_mcar(list(range(50)), 0.15, rng).n_missing == 7
        # 0.55 * 50 is 27.500000000000004 in floats
        assert apply_mcar(list(range(50)), 0.55, rng).n_missing == 27

    def test_count_is_exact_at_every_percent(self):
        # s = i/100 on n values: i*n/100 to the nearest integer, halves
        # rounded down, is ceil((2*i*n - 100) / 200) in integer arithmetic
        count = _missing_count.__wrapped__
        for i in range(1, 100):
            s = i / 100
            for n in range(1, 1001):
                assert count(n, s) == max(0, -((100 - 2 * i * n) // 200)), (n, s)

    def test_seed_reproducibility(self):
        values = list(np.arange(40.0))
        a = apply_mcar(values, 0.25, np.random.default_rng(42))
        b = apply_mcar(values, 0.25, np.random.default_rng(42))
        assert a == b

    def test_kept_values_are_a_subset(self):
        values = list(np.arange(20.0))
        out = apply_mcar(values, 0.3, np.random.default_rng(7))
        assert set(out.observed) <= set(values)


class TestApplyMnarPositive:
    def test_no_positive_values_means_nothing_missing(self):
        out = apply_mnar_positive([-1.0, 0.0, -3.0], 0.4, np.random.default_rng(0))
        assert out.n_missing == 0 and out.n_observed == 3

    def test_clamped_probability_removes_every_positive(self):
        # s n exceeds the number of positives, so q = 1
        values = [-1.0, -2.0, 5.0, 6.0]
        out = apply_mnar_positive(values, 0.9, np.random.default_rng(0))
        assert out.observed.tolist() == [-2.0, -1.0] and out.n_missing == 2

    def test_only_positives_can_disappear(self):
        rng = np.random.default_rng(3)
        values = list(np.linspace(-2, 2, 41))
        out = apply_mnar_positive(values, 0.3, rng)
        kept_negative = [v for v in values if v <= 0]
        assert all(v in out.observed for v in kept_negative)

    def test_overall_missing_fraction_is_calibrated(self):
        rng = np.random.default_rng(11)
        target = 0.2
        reps, n = 5000, 100
        missing = 0
        for _ in range(reps):
            sample = apply_mnar_positive(rng.normal(size=n), target, rng)
            missing += sample.n_missing
        fraction = missing / (reps * n)
        stderr = math.sqrt(target * (1 - target) / (reps * n))
        assert abs(fraction - target) <= 3 * stderr


class TestScenarioSpec:
    def test_unknown_method_is_rejected_with_listing(self):
        with pytest.raises(DomainError, match="proposed_ties"):
            small_spec(methods=("bogus",))

    def test_unknown_mechanism_is_rejected_with_listing(self):
        with pytest.raises(DomainError, match="mnar_positive"):
            MissingnessSpec("mar", 0.1)

    def test_none_is_not_a_mechanism(self):
        # a side that keeps every value has no rule
        with pytest.raises(DomainError, match="mcar, mnar_positive"):
            MissingnessSpec("none")

    def test_a_side_without_a_rule_keeps_every_value(self):
        spec = small_spec(missingness=(MissingnessSpec("mcar", 0.1, "x_only"),))
        assert spec.mechanism_for("x") == MissingnessSpec("mcar", 0.1, "x_only")
        assert spec.mechanism_for("y") is None
        assert (spec.mechanism_label, spec.s_label) == ("x:mcar;y:none", "0.1")
        bare = small_spec(missingness=())
        assert bare.mechanism_for("x") is bare.mechanism_for("y") is None
        assert (bare.mechanism_label, bare.s_label) == ("none", "0")

    def test_alpha_outside_unit_interval_is_rejected(self):
        for alpha in (0.0, 1.0, 1.5, -0.05, float("nan")):
            with pytest.raises(DomainError, match="alpha"):
                small_spec(alpha=alpha)

    def test_conflicting_rules_for_one_side(self):
        with pytest.raises(DomainError, match="conflicting"):
            small_spec(
                missingness=(
                    MissingnessSpec("mcar", 0.1, "both"),
                    MissingnessSpec("mnar_positive", 0.1, "x_only"),
                )
            )

    def test_explicit_support_must_hold_every_draw(self):
        for dist, support in (("poisson(2)", Support(upper=3)), ("poisson(2)", Support(0.5)),
                              ("normal(0,1)", Support(lower=-10)),
                              ("uniform(0,1)", Support(0, 0.99))):
            with pytest.raises(DomainError, match=r"support .* " + re.escape(dist)):
                small_spec(dist_x=dist, dist_y=dist, support=support)
        for dist, support in (("poisson(2)", Support()), ("poisson(2)", Support(-1)),
                              ("uniform(0,1)", Support(0, 1)),
                              ("exponential(1)", Support(-1, None))):
            assert small_spec(dist_x=dist, dist_y=dist, support=support).support == support

    def test_domain_is_the_support_else_the_hull_of_both_distributions(self):
        for dist_x, dist_y, support, domain in (
                ("normal(0,1)", "poisson(2)", None, Support()),
                ("poisson(2)", "exponential(1)", None, Support(0, None)),
                ("uniform(0,1)", "uniform(0.2,1.2)", None, Support(0, 1.2)),
                ("poisson(2)", "poisson(3)", Support(-1, None), Support(-1, None))):
            spec = small_spec(dist_x=dist_x, dist_y=dist_y, support=support)
            assert (spec.dist_x, spec.dist_y) == tuple(map(make_distribution, (dist_x, dist_y)))
            assert (spec.support, spec.domain) == (support, domain)
        assert "domain" not in repr(spec)

    def test_replace_derives_the_domain_again(self):
        spec = small_spec(dist_x="poisson(2)", dist_y="exponential(1)")
        assert spec.domain == Support(0, None)
        wider = replace(spec, dist_x="normal(0,1)")
        assert (wider.dist_x, wider.support, wider.domain) == (
            make_distribution("normal(0,1)"), None, Support())
        assert wider == replace(spec, dist_x=make_distribution("normal(0,1)"))

    def test_alternative_is_held_parsed(self):
        spec = small_spec(alternative=Alternative.X_LESS, trials=5)
        assert spec.alternative is small_spec(alternative="less").alternative is Alternative.X_LESS
        assert run_scenario(spec).outcomes == run_scenario(
            small_spec(alternative="x_less", trials=5)).outcomes
        with pytest.raises(DomainError, match="unknown alternative None"):
            small_spec(alternative=None)

    def test_mixed_mechanisms_resolve_per_side(self):
        spec = small_spec(
            missingness=(
                MissingnessSpec("mcar", 0.1, "x_only"),
                MissingnessSpec("mnar_positive", 0.1, "y_only"),
            )
        )
        assert spec.mechanism_for("x").mechanism == "mcar"
        assert spec.mechanism_for("y").mechanism == "mnar_positive"
        assert spec.mechanism_label == "x:mcar;y:mnar_positive"


class TestRunScenario:
    def test_outcome_bookkeeping(self):
        spec = small_spec(trials=5)
        result = run_scenario(spec)
        assert set(result.outcomes) == set(spec.methods)
        for outcome in result.outcomes.values():
            assert outcome.trials == 5
            assert 0 <= outcome.rejections <= 5
            assert outcome.stderr == math.sqrt(
                outcome.rate * (1 - outcome.rate) / outcome.trials
            )

    def test_deterministic_across_worker_counts(self):
        spec = small_spec(trials=30)
        serial = run_scenario(spec, workers=1)
        parallel = run_scenario(spec, workers=2)
        assert serial.outcomes == parallel.outcomes

    def test_oracle_rate_ignores_the_mechanism(self):
        mcar = small_spec(methods=("oracle",), trials=60)
        mnar = small_spec(
            methods=("oracle",),
            trials=60,
            missingness=(MissingnessSpec("mnar_positive", 0.1),),
        )
        assert run_scenario(mcar).outcomes["oracle"] == run_scenario(mnar).outcomes["oracle"]

    def test_degenerate_trials_are_tallied_not_skipped(self):
        # all-positive data with s = 0.9: each value is deleted with
        # probability 0.9, so a side is regularly emptied outright
        spec = ScenarioSpec(
            dist_x="uniform(0,1)",
            dist_y="uniform(0,1)",
            n=4,
            m=4,
            missingness=(MissingnessSpec("mnar_positive", 0.9),),
            methods=("ignore", "mean_impute", "proposed"),
            trials=10,
            seed=5,
        )
        result = run_scenario(spec)
        assert result.outcomes["ignore"].degenerate > 0
        assert result.outcomes["ignore"].degenerate == result.outcomes["mean_impute"].degenerate
        # the robust test handles the empty side without erroring, and with
        # this much missing it can never reject
        assert result.outcomes["proposed"].degenerate == 0
        assert result.outcomes["proposed"].rejections == 0

    def test_proposed_ties_uses_distribution_support(self):
        spec = ScenarioSpec(
            dist_x="poisson(1)",
            dist_y="poisson(3)",
            n=40,
            m=40,
            missingness=(MissingnessSpec("mcar", 0.1),),
            methods=("proposed", "proposed_ties"),
            trials=60,
            seed=9,
        )
        result = run_scenario(spec)
        # bounded-below support can only help
        assert (
            result.outcomes["proposed_ties"].rejections
            >= result.outcomes["proposed"].rejections
        )


class TestSweep:
    def test_single_cell_equals_run_scenario(self):
        spec = small_spec(trials=20)
        assert sweep(spec)[0].outcomes == run_scenario(spec).outcomes

    def test_one_pool_serves_every_cell(self, monkeypatch):
        pools = []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        base = small_spec(trials=6)
        serial = sweep(base, s_values=[0.0, 0.1, 0.2], workers=1)
        assert pools == []
        t0 = time.perf_counter()
        parallel = sweep(base, s_values=[0.0, 0.1, 0.2], workers=2)
        wall = time.perf_counter() - t0
        assert len(pools) == 1
        assert [r.outcomes for r in parallel] == [r.outcomes for r in serial]
        assert all(r.elapsed >= 0 for r in parallel)
        assert sum(r.elapsed for r in parallel) <= wall

    def test_pool_never_exceeds_the_cpu_count(self, monkeypatch):
        # a stand-in pool that records its size and maps serially, so no
        # process is ever started here
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        spec = small_spec(trials=12)
        serial = run_scenario(spec, workers=1)
        assert run_scenario(spec, workers=1000).outcomes == serial.outcomes
        assert sizes == [3]
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert run_scenario(spec, workers=1000).outcomes == serial.outcomes
        assert sizes == [3]

    def test_fewer_than_one_worker_is_rejected(self):
        with pytest.raises(DomainError, match="workers"):
            run_scenario(small_spec(trials=2), workers=0)

    def test_an_s_list_needs_a_deletion_rule(self):
        with pytest.raises(DomainError, match="an s list"):
            sweep(small_spec(missingness=()), s_values=[0.1, 0.2])
        assert len(sweep(small_spec(missingness=(), trials=2), sizes=[(5, 5), (6, 6)])) == 2

    def test_empty_grid(self):
        assert sweep(small_spec(), s_values=[]) == []

    def test_grid_shape_and_s_replacement(self):
        results = sweep(small_spec(trials=5), s_values=[0.0, 0.2], sizes=[(10, 12), (20, 20)])
        assert len(results) == 4
        labels = [(r.spec.n, r.spec.m, r.spec.missingness[0].s) for r in results]
        assert labels == [(10, 12, 0.0), (10, 12, 0.2), (20, 20, 0.0), (20, 20, 0.2)]

    def test_csv_round_trip(self, tmp_path):
        results = sweep(small_spec(trials=5), s_values=[0.0, 0.1])
        out = tmp_path / "results.csv"
        write_results_csv(results, str(out))
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * len(results[0].spec.methods)
        assert tuple(rows[0]) == CSV_COLUMNS
        by_key = {(r.spec.missingness[0].s, m): o for r in results for m, o in r.outcomes.items()}
        for row in rows:
            outcome = by_key[(float(row["s"]), row["method"])]
            # shortest round-trip decimals: parsing recovers the exact floats
            assert float(row["reject_rate"]) == outcome.rate
            assert float(row["stderr"]) == outcome.stderr
            assert row["mechanism"] == "mcar"


class TestStreamSeeds:
    """The vectorised copy of numpy's SeedSequence hashing, from which numpy
    seeds PCG64."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)
    TRIALS = (0, 1, 4999, 2**32)

    def rows(self, seed):
        for trial in self.TRIALS:
            yield trial, next(_stream_seeds(seed, trial, trial + 1, 5))

    def test_states_match_numpy(self):
        for seed in self.SEEDS:
            for trial, row in self.rows(seed):
                for role, words in enumerate(row):
                    bit_generator = np.random.PCG64(np.random.SeedSequence([seed, trial, role]))
                    assert np.random.PCG64(_Words(words)).state == bit_generator.state, (
                        seed, trial, role)

    def test_draws_match_default_rng(self):
        for seed in self.SEEDS:
            for trial, row in self.rows(seed):
                for role, words in enumerate(row):
                    fresh = np.random.default_rng([seed, trial, role])
                    generator = np.random.Generator(np.random.PCG64(_Words(words)))
                    for draw in (
                        lambda g: g.normal(0.0, 1.0, 7),
                        lambda g: g.poisson(2.0, 7),
                        lambda g: g.choice(50, size=9, replace=False),
                        lambda g: g.random(3),
                    ):
                        assert np.array_equal(draw(generator), draw(fresh)), (seed, trial, role)

    def test_ranges_cross_chunks_and_two_to_the_32(self):
        # seeding goes by aligned chunks of trials; at 2**32 a trial number
        # gains an entropy word
        for start, stop in ((1000, 3100), (2**32 - 1030, 2**32 + 5)):
            rows = list(zip(range(start, stop), _stream_seeds(2**32, start, stop, 3)))
            assert len(rows) == stop - start
            for trial, row in rows[::61] + rows[-3:]:
                for role, words in enumerate(row):
                    bit_generator = np.random.PCG64(np.random.SeedSequence([2**32, trial, role]))
                    assert np.random.PCG64(_Words(words)).state == bit_generator.state, (
                        trial, role)


def _oracle_cells():
    def cell(**overrides):
        base = dict(dist_x="normal(0,1)", dist_y="normal(0.5,1)", n=20, m=20,
                    missingness=(MissingnessSpec("mcar", 0.1),), methods=METHODS,
                    trials=25, seed=17)
        base.update(overrides)
        return ScenarioSpec(**base)

    cells = [cell(n=n, m=n, seed=n) for n in (20, 50, 100, 200)]
    cells.append(cell(dist_x="poisson(2)", dist_y="poisson(2)", n=100, m=100,
                      missingness=(MissingnessSpec("mnar_positive", 0.1, "x_only"),)))
    cells += [cell(n=12, m=15, alternative=alt, alpha=alpha, seed=3)
              for alt in ("two_sided", "x_greater", "x_less")
              for alpha in (1e-6, 0.05, 0.5, 0.7, 0.999)]
    # MCAR deletes the only x value of every trial
    cells.append(cell(n=1, m=5, missingness=(MissingnessSpec("mcar", 0.6),),
                      alternative="x_greater", alpha=0.9))
    # and here the only value on both sides
    cells.append(cell(n=1, m=1, missingness=(MissingnessSpec("mcar", 0.6),)))
    # nothing missing, and most pools hold the one value 0: proposed is degenerate there
    cells.append(cell(dist_x="poisson(0.1)", dist_y="poisson(0.1)", n=1, m=2,
                      missingness=(MissingnessSpec("mcar", 0.0),), alternative="x_less",
                      alpha=0.7))
    return cells


class TestTrialLoopOracle:
    def test_a_block_across_two_to_the_32(self):
        spec = _oracle_cells()[0]
        start, stop = 2**32 - 3, 2**32 + 3
        assert _run_block(spec, start, stop) == oracle_run_block(spec, start, stop)

    @pytest.mark.parametrize("spec", _oracle_cells(), ids=lambda spec: (
        f"{spec.dist_x.spec}-{spec.n}x{spec.m}-{spec.mechanism_label}-{spec.alternative.value}-"
        f"{spec.alpha:g}"))
    def test_counts_match_the_default_rng_loop(self, spec):
        expected = oracle_run_block(spec, 0, spec.trials)
        assert _run_block(spec, 0, spec.trials) == expected
        outcomes = run_scenario(spec).outcomes
        for method in spec.methods:
            got = outcomes[method]
            assert (got.rejections, got.degenerate) == (expected[method, 0], expected[method, 1])

    def test_the_cells_reach_both_verdicts(self):
        verdicts = Counter()
        for spec in _oracle_cells():
            outcome = run_scenario(spec).outcomes["proposed"]
            verdicts["rejected"] += outcome.rejections
            verdicts["kept"] += outcome.trials - outcome.rejections
            verdicts["degenerate"] += outcome.degenerate
        assert verdicts["rejected"] > 0 and verdicts["kept"] > 0 and verdicts["degenerate"] > 0


def _shared_summary_cells():
    sim_methods = [ScenarioSpec("poisson(2)", "poisson(2)", 100, 100,
                                (MissingnessSpec("mnar_positive", s, "x_only"),), METHODS,
                                trials=30, seed=11)
                   for s in (0.05, 0.1, 0.2)]
    # one-sided at alpha = 0.7; the cell n = 1, s = 0.6 deletes the only x value
    one_sided = [ScenarioSpec("normal(0,1)", "normal(0.3,1)", n, m, (MissingnessSpec("mcar", s),),
                              METHODS, alpha=0.7, trials=30, seed=11, alternative=alt)
                 for alt in ("x_greater", "x_less")
                 for n, m in ((1, 4), (30, 30))
                 for s in (0.0, 0.1, 0.6)]
    return sim_methods + one_sided


class TestSharedObservedSummary:
    """A trial computes the observed pair's 2W' and tie groups once for every
    method; a method run alone must tally exactly as it does among all six."""

    @pytest.mark.parametrize("spec", _shared_summary_cells(), ids=lambda spec: (
        f"{spec.dist_x.spec}-{spec.n}x{spec.m}-{spec.mechanism_label}-{spec.s_label}-"
        f"{spec.alternative.value}"))
    def test_each_method_alone_tallies_as_among_all_six(self, spec):
        together = _run_block(spec, 0, spec.trials)
        for method in METHODS:
            alone = _run_block(replace(spec, methods=(method,)), 0, spec.trials)
            assert alone == Counter({k: v for k, v in together.items() if k[0] == method}), method
        assert sum(together.values()) > 0
