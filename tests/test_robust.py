import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rankguard import (
    Alternative,
    Decision,
    DegenerateDataError,
    DomainError,
    MissingnessSpec,
    Sample,
    ScenarioSpec,
    Support,
    feasibility,
    normal_quantile,
    p_value_bounds,
    robust_test_distinct,
    robust_test_general,
    run_scenario,
    wmw_test,
)

from rankguard.robust import _DistinctRejection

from oracles import all_multisets, grid_completions, oracle_p, oracle_two_sided_p, oracle_wmw

X7 = (1.0, 2.0, 3.0, 2.0, 2.0, 1.0, 1.0)
Y6 = (3.0,) * 6


class TestRobustDistinct:
    def test_no_missing_matches_classical_p(self):
        x = Sample((1.0, 6.0, 9.0, 12.0))
        y = Sample((2.0, 3.0, 4.0, 5.0))
        report = robust_test_distinct(x, y)
        _, p = wmw_test(x.observed, y.observed)
        assert report.p_min == report.p_max == pytest.approx(p, abs=1e-15)

    def test_separated_data_with_a_fifth_missing_is_significant(self):
        x = Sample(tuple(float(i) for i in range(80)), n_missing=20)
        y = Sample(tuple(100.5 + i for i in range(80)), n_missing=20)
        report = robust_test_distinct(x, y, alpha=0.05)
        assert (report.w_bounds.w_min, report.w_bounds.w_max) == (0, 3600)
        assert report.decision is Decision.SIGNIFICANT
        # threshold check: the whole interval sits inside the lower tail
        sigma = math.sqrt(100 * 100 * 201 / 12)
        assert 3600 < 5000 + sigma * normal_quantile(0.025)

    def test_infeasible_split_is_never_significant(self):
        # 100 vs 100 with 80 and 70 observed: no data can reject at 0.05
        rng = np.random.default_rng(4)
        for _ in range(25):
            x_obs = np.sort(rng.normal(size=80))
            y_obs = np.sort(rng.normal(loc=rng.uniform(-30, 30), size=70))
            pooled = np.concatenate([x_obs, y_obs])
            if len(set(pooled.tolist())) < 150:
                continue
            report = robust_test_distinct(Sample(tuple(x_obs), 20), Sample(tuple(y_obs), 30))
            assert report.decision is not Decision.SIGNIFICANT

    def test_extreme_splits_too(self):
        # same sizes, W' pinned to its extremes
        x_obs = tuple(float(i) for i in range(80))
        y_obs = tuple(1000.0 + i for i in range(70))
        for x, y in (
            (Sample(x_obs, 20), Sample(y_obs, 30)),
            (Sample(tuple(v + 2000 for v in x_obs), 20), Sample(y_obs, 30)),
        ):
            assert robust_test_distinct(x, y).decision is not Decision.SIGNIFICANT

    def test_empty_side_reports_no_information(self):
        report = robust_test_distinct(Sample((), 5), Sample((1.0, 2.0), 1))
        assert report.decision is Decision.NOT_SIGNIFICANT
        assert report.p_max == 1.0
        assert (report.w_bounds.w_min, report.w_bounds.w_max) == (0, 5 * 3)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            robust_test_distinct(Sample((1.0,)), Sample((2.0,)), alpha=1.5)

    def test_one_sided_is_monotone_worst_case(self):
        x = Sample((10.0, 12.0, 14.0), 2)
        y = Sample((1.0, 2.0, 3.0), 1)
        rep_d = robust_test_distinct(x, y, alternative=Alternative.X_GREATER)
        b = rep_d.w_bounds
        sigma = math.sqrt(float(rep_d.variance.sigma2_max))
        from rankguard import normal_cdf

        mu = Fraction(b.n * b.m, 2)
        assert rep_d.p_max == pytest.approx(
            1.0 - normal_cdf(float(b.w_min - mu) / sigma), abs=1e-15
        )
        assert rep_d.p_min == pytest.approx(
            1.0 - normal_cdf(float(b.w_max - mu) / sigma), abs=1e-15
        )
        # x above y favours X_GREATER; the mirrored alternative sees less
        rep_less = robust_test_distinct(x, y, alternative=Alternative.X_LESS)
        assert rep_d.p_max < rep_less.p_max
        assert rep_d.p_min < 0.05 < rep_less.p_min

    def test_inconclusive_band(self):
        # observed split is significant, but the missing value could undo it
        x = Sample((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 2)
        y = Sample((7.0, 8.0, 9.0, 10.0, 11.0, 12.0), 2)
        report = robust_test_distinct(x, y, alpha=0.05)
        assert report.p_min < 0.05 <= report.p_max
        assert report.decision is Decision.INCONCLUSIVE_DATA_DEPENDENT

    def test_monotone_in_missing_count(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n_obs = int(rng.integers(1, 8))
            m_obs = int(rng.integers(1, 8))
            values = rng.permutation(np.arange(40, dtype=float))
            x = Sample(tuple(values[:n_obs]), int(rng.integers(0, 3)))
            y = Sample(tuple(values[n_obs : n_obs + m_obs]), int(rng.integers(0, 3)))
            before = robust_test_distinct(x, y).decision
            extra_x = robust_test_distinct(Sample(x.observed, x.n_missing + 1), y).decision
            extra_y = robust_test_distinct(x, Sample(y.observed, y.n_missing + 1)).decision
            if before is not Decision.SIGNIFICANT:
                assert extra_x is not Decision.SIGNIFICANT
                assert extra_y is not Decision.SIGNIFICANT

    def test_significant_implies_feasible(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(400):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(2, 60))
            n1 = int(rng.integers(1, n + 1))
            m1 = int(rng.integers(1, m + 1))
            if rng.random() < 0.5:
                # fully separated observed halves: the most rejectable data
                x_obs = tuple(float(i) for i in range(n1))
                y_obs = tuple(1000.0 + i for i in range(m1))
            else:
                values = rng.permutation(np.arange(200, dtype=float))
                x_obs = tuple(values[:n1])
                y_obs = tuple(values[n1 : n1 + m1])
            report = robust_test_distinct(Sample(x_obs, n - n1), Sample(y_obs, m - m1))
            if report.decision is Decision.SIGNIFICANT:
                checked += 1
                assert feasibility(n, m, n1, m1, 0.05).feasible
        assert checked > 0


def _doubled_split(n_obs_x: int, n_obs_y: int, doubled: int) -> tuple[list[float], list[float]]:
    """Observed values whose doubled statistic is ``doubled``: y on the even
    numbers, and each x value at c - 1 adds c, for any c in [0, 2 n'_y]."""
    y = [2.0 * j for j in range(n_obs_y)]
    x = []
    for _ in range(n_obs_x):
        c = min(doubled, 2 * n_obs_y)
        x.append(c - 1.0)
        doubled -= c
    return x, y


class TestDistinctRejection:
    """The simulator's threshold form of robust_test_distinct's verdict."""

    ALPHAS = (1e-6, 0.05, 0.5, 0.7, 0.999)

    def test_matches_the_report_on_every_small_instance(self):
        # every (n', m', 2W') for n, m <= 8 with n', m' >= 1, each alternative,
        # the fixed alphas and alpha within two ulps of the reported p_max; at
        # one fixed alpha 2W' is the samples' own, counted pair by pair
        cache = {}

        def rejection(n, m, alpha, alt):
            key = (n, m, alpha, alt.value)
            if key not in cache:
                cache[key] = _DistinctRejection(n, m, alpha, alt)
            return cache[key]

        checked = significant = 0
        for n in range(1, 9):
            for m in range(1, 9):
                for n1 in range(n + 1):
                    for m1 in range(m + 1):
                        for d in range(2 * n1 * m1 + 1):
                            xv, yv = _doubled_split(n1, m1, d)
                            x, y = Sample(xv, n - n1), Sample(yv, m - m1)
                            for alt in Alternative:
                                try:
                                    p_max = robust_test_distinct(x, y, 0.5, alt).p_max
                                except DegenerateDataError:
                                    # one value, nothing missing: the caller must not ask
                                    assert (n1, m1) == (n, m) and set(xv) == set(yv)
                                    continue
                                if not (n1 and m1):
                                    assert p_max == 1.0
                                    continue
                                alpha = self.ALPHAS[(d + n1) % len(self.ALPHAS)]
                                doubled = int(2 * oracle_wmw(xv, yv))
                                got = rejection(n, m, alpha, alt).rejects_doubled(n1, m1, doubled)
                                assert got == (p_max < alpha), (n, m, n1, m1, d, alt, alpha)
                                alphas = set(self.ALPHAS)
                                for step in (math.inf, 0.0):
                                    a = p_max
                                    for _ in range(3):
                                        if 0.0 < a < 1.0:
                                            alphas.add(a)
                                        a = math.nextafter(a, step)
                                for alpha in alphas:
                                    got = rejection(n, m, alpha, alt).rejects_doubled(n1, m1, d)
                                    assert got == (p_max < alpha), (n, m, n1, m1, d, alt, alpha)
                                    checked += 1
                                    significant += got
        assert significant > 0 and checked - significant > 0

    def test_an_empty_side_is_never_significant(self):
        # [0, 1] lies inside the x_greater rejection half-line at alpha = 0.9,
        # yet with no observed x the report gives p_max = 1, and so does the
        # simulator's proposed method, which reads the thresholds
        x, y = Sample([], 1), Sample([0.0])
        rejection = _DistinctRejection(1, 1, 0.9, Alternative.X_GREATER)
        assert rejection.lower < 0 and rejection.upper == 0
        assert robust_test_distinct(x, y, 0.9, Alternative.X_GREATER).p_max == 1.0
        assert robust_test_distinct(y, x, 0.9, Alternative.X_GREATER).p_max == 1.0
        for mechanism in ("x_only", "y_only"):
            spec = ScenarioSpec("normal(0,1)", "normal(0,1)", 1, 1,
                                (MissingnessSpec("mcar", 0.6, mechanism),), ("proposed",),
                                alpha=0.9, trials=20, alternative="x_greater")
            assert run_scenario(spec).outcomes["proposed"].rejections == 0

    def test_a_single_value_with_nothing_missing_is_degenerate(self):
        # the thresholds would say SIGNIFICANT (p 0.5 < 0.9), as the report
        # once did; the general test and wmw_test refuse such a pool
        x, y = Sample([4.0]), Sample([4.0])
        assert _DistinctRejection(1, 1, 0.9, Alternative.X_LESS).rejects_doubled(1, 1, 1)
        for test in (lambda: robust_test_distinct(x, y, 0.9, Alternative.X_LESS),
                     lambda: robust_test_general(x, y, Support(), 0.9, Alternative.X_LESS),
                     lambda: wmw_test(x.observed, y.observed, Alternative.X_LESS)):
            with pytest.raises(DegenerateDataError):
                test()
        with pytest.raises(DegenerateDataError, match="single distinct value"):
            robust_test_distinct(Sample([4.0, 4.0]), Sample([4.0]))
        # one missing value can break the tie
        assert robust_test_distinct(Sample([4.0], 1), y, 0.9).p_max == 1.0

    def test_two_sided_pieces_never_meet_at_the_mean(self):
        for n, m in ((1, 1), (3, 5), (40, 40)):
            rejection = _DistinctRejection(n, m, 0.999, Alternative.TWO_SIDED)
            assert rejection.lower < n * m < rejection.upper


class TestRobustGeneral:
    def test_worked_example_every_completion_rejects(self):
        report = robust_test_general(Sample(X7), Sample(Y6, 1), Support(1, 4), alpha=0.05)
        assert (report.w_bounds.w_min, report.w_bounds.w_max) == (3, Fraction(17, 2))
        assert report.condition_same_sign
        assert report.decision is Decision.SIGNIFICANT
        # ground truth: all four completions of the last y value reject
        for cx, cy in grid_completions(X7, Y6, 0, 1, (1.0, 2.0, 3.0, 4.0)):
            assert oracle_two_sided_p(cx, cy) < 0.05

    def test_no_missing_matches_tie_corrected_p(self):
        x = Sample((0.0, 1.0, 1.0, 3.0))
        y = Sample((1.0, 2.0, 2.0, 5.0))
        report = robust_test_general(x, y, Support(lower=0))
        _, p = wmw_test(x.observed, y.observed)
        assert report.p_min == report.p_max == pytest.approx(p, abs=1e-15)

    def test_degenerate_single_valued_pool(self):
        with pytest.raises(DegenerateDataError):
            robust_test_general(Sample((2.0, 2.0)), Sample((2.0,)), Support(0, 5))

    def test_sigma_min_zero_is_tolerated_for_reporting(self):
        # one missing value could make the pool fully tied
        report = robust_test_general(Sample((2.0,), 1), Sample((2.0,)), Support(0, 5))
        assert report.variance.sigma2_min == 0
        assert 0.0 <= report.p_min <= report.p_max <= 1.0
        assert report.decision is not Decision.SIGNIFICANT

    def test_soundness_on_small_grid(self):
        # whenever the method says significant, every completion rejects
        grid = (1.0, 2.0, 3.0)
        support = Support(1, 3)
        significant_seen = Counter()
        for x_obs in all_multisets(grid, 3):
            for y_obs in all_multisets(grid, 3):
                for miss_x, miss_y in ((0, 1), (1, 1), (0, 2)):
                    x, y = Sample(x_obs, miss_x), Sample(y_obs, miss_y)
                    for alt in Alternative:
                        try:
                            report = robust_test_general(x, y, support, 0.3, alt)
                        except DegenerateDataError:
                            continue
                        if report.decision is Decision.SIGNIFICANT:
                            significant_seen[alt] += 1
                            for cx, cy in grid_completions(x_obs, y_obs, miss_x, miss_y, grid):
                                assert oracle_p(cx, cy, alt) < 0.3
        assert all(significant_seen[alt] > 0 for alt in Alternative)

    def test_same_sign_flag_is_mirror_symmetric(self):
        # swapping the samples maps w to nm - w, so [mu - k, mu] becomes
        # [mu, mu + k]: both lie on one side of the mean, for every alternative
        for alt in Alternative:
            left = robust_test_distinct(Sample((1.0,), 1), Sample((2.0,)), alternative=alt)
            right = robust_test_distinct(Sample((2.0,)), Sample((1.0,), 1), alternative=alt)
            assert left.w_bounds.w_max == 1  # the mean nm/2
            assert left.condition_same_sign and right.condition_same_sign
        grid = (1.0, 2.0, 3.0)
        support = Support(1, 3)
        for x_obs in all_multisets(grid, 2):
            for y_obs in all_multisets(grid, 2):
                for miss_x, miss_y in ((1, 0), (1, 1), (0, 2)):
                    x, y = Sample(x_obs, miss_x), Sample(y_obs, miss_y)
                    for alt in Alternative:
                        flags = [
                            robust_test_general(a, b, support, alternative=alt).condition_same_sign
                            for a, b in ((x, y), (y, x))
                        ]
                        assert flags[0] == flags[1]

    def test_one_sided_alternatives_mirror_under_sample_swap(self):
        rng = np.random.default_rng(44)
        support = Support(lower=0)
        for _ in range(50):
            x = Sample(tuple(rng.poisson(2.0, 6).astype(float)), int(rng.integers(0, 3)))
            y = Sample(tuple(rng.poisson(3.0, 5).astype(float)), int(rng.integers(0, 3)))
            less = robust_test_general(x, y, support, alternative=Alternative.X_LESS)
            greater = robust_test_general(y, x, support, alternative=Alternative.X_GREATER)
            assert less.p_max == greater.p_max
            assert less.p_min == greater.p_min
            assert less.decision is greater.decision

    def test_poisson_style_support_buys_power(self):
        # zeros pinned at the lower endpoint tighten the upper bound
        x_obs = (0.0, 0.0, 0.0, 1.0, 1.0, 2.0)
        y_obs = (3.0, 4.0, 4.0, 5.0, 6.0)
        x = Sample(x_obs, 0)
        y = Sample(y_obs, 2)
        bounded = robust_test_general(x, y, Support(lower=0))
        unbounded = robust_test_general(x, y, Support())
        assert bounded.p_max <= unbounded.p_max
        assert bounded.w_bounds.w_max - bounded.w_bounds.w_min < (
            unbounded.w_bounds.w_max - unbounded.w_bounds.w_min)


class TestAlternativeValidation:
    def test_strings_are_rejected_everywhere(self):
        # a string used to fall through to the x_less tail, or to be stored
        # unchecked when a side is empty
        x, y = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0), (0.2, 0.5, 1.0, 2.0, 3.0, 4.0)
        report = robust_test_distinct(Sample(x), Sample(y, 1))
        calls = [
            lambda: wmw_test(x, y, "greater"),
            lambda: robust_test_distinct(Sample(x), Sample(y, 1), 0.05, "two_sided"),
            lambda: robust_test_general(Sample((), 3), Sample(y, 1), Support(), 0.05, "less"),
            lambda: p_value_bounds(report.w_bounds, report.variance, "x_greater"),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="unknown alternative"):
                call()


class TestReportOrdering:
    def test_p_min_never_exceeds_p_max(self):
        rng = np.random.default_rng(60)
        support = Support(lower=0)
        for _ in range(150):
            x = Sample(tuple(rng.poisson(2.0, int(rng.integers(1, 8))).astype(float)),
                       int(rng.integers(0, 4)))
            y = Sample(tuple(rng.poisson(3.0, int(rng.integers(1, 8))).astype(float)),
                       int(rng.integers(0, 4)))
            for alternative in Alternative:
                general = robust_test_general(x, y, support, alternative=alternative)
                distinct = robust_test_distinct(x, y, alternative=alternative)
                for rep in (general, distinct):
                    assert 0.0 <= rep.p_min <= rep.p_max <= 1.0
                    if rep.decision is Decision.SIGNIFICANT:
                        assert rep.p_max < rep.alpha


class TestFeasibility:
    def test_threshold_value(self):
        report = feasibility(100, 100, 80, 80, alpha=0.05)
        assert report.threshold == pytest.approx(0.58, abs=0.005)
        assert report.observed_fraction == pytest.approx(0.64)
        assert report.feasible

    def test_asymmetric_infeasible_case(self):
        report = feasibility(100, 100, 80, 70, alpha=0.05)
        assert report.observed_fraction == pytest.approx(0.56)
        assert not report.feasible

    def test_thirty_percent_missing_is_always_infeasible(self):
        for n in (50, 64, 100, 200, 500, 1000, 5000, 10000):
            for frac_x in (0.5, 0.6, 0.7):
                for frac_y in (0.5, 0.7):
                    for alpha in (0.01, 0.05, 0.2, 0.99):
                        report = feasibility(
                            n, n, int(frac_x * n), int(frac_y * n), alpha=alpha
                        )
                        assert not report.feasible

    def test_one_sided_screen_uses_the_one_sided_quantile(self):
        two_sided = feasibility(100, 100, 76, 76)
        assert two_sided.threshold == pytest.approx(0.5802, abs=1e-4)
        assert not two_sided.feasible
        for alt in (Alternative.X_GREATER, Alternative.X_LESS):
            report = feasibility(100, 100, 76, 76, alternative=alt)
            assert report.threshold == pytest.approx(0.5673, abs=1e-4)
            assert report.feasible
            assert feasibility(100, 100, 70, 70, 0.49, alt).threshold > 0.5

    def test_boundary_ties_let_the_general_variant_beat_the_screen(self):
        # the screen is sharp for the distinct variant only: seventy 1s
        # against seventy 0s on [0, 1] pin the general interval far from the mean
        x, y = Sample((1.0,) * 70, 30), Sample((0.0,) * 70, 30)
        assert not feasibility(100, 100, 70, 70).feasible
        report = robust_test_general(x, y, Support(0, 1))
        assert report.decision is Decision.SIGNIFICANT
        assert report.p_max == pytest.approx(3.2e-7, rel=0.01)
        assert robust_test_distinct(x, y).decision is not Decision.SIGNIFICANT

    def test_feasible_iff_the_most_extreme_observed_data_reject(self):
        # sharp means: feasible exactly when 2W' = 0 or 2W' = 2n'm' lets the
        # distinct variant reject. At one-sided alpha = 1/2 the threshold is
        # exactly 1/2, and n'm'/(nm) = 1/2 lies on it without rejecting
        assert not feasibility(1, 2, 1, 1, 0.5, Alternative.X_GREATER).feasible
        for n in range(1, 9):
            for m in range(1, 9):
                for alpha in (0.01, 0.05, 0.3, 0.5, 0.7, 0.9):
                    for alt in Alternative:
                        rej = _DistinctRejection(n, m, alpha, alt)
                        for n1 in range(1, n + 1):
                            for m1 in range(1, m + 1):
                                reachable = (rej.rejects_doubled(n1, m1, 0)
                                             or rej.rejects_doubled(n1, m1, 2 * n1 * m1))
                                got = feasibility(n, m, n1, m1, alpha, alt).feasible
                                assert got == reachable, (n, m, n1, m1, alpha, alt)

    def test_alpha_near_zero_gives_a_finite_threshold(self):
        for alpha in (1e-16, 1e-300):
            for alt in Alternative:
                report = feasibility(10, 10, 10, 10, alpha, alt)
                assert math.isfinite(report.threshold) and report.threshold > 1.0
                assert not report.feasible

    def test_threshold_never_below_half(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 5000))
            m = int(rng.integers(2, 5000))
            alpha = float(rng.uniform(0.001, 0.999))
            assert feasibility(n, m, n, m, alpha).threshold >= 0.5

    def test_input_validation(self):
        with pytest.raises(DomainError):
            feasibility(10, 10, 0, 5)
        with pytest.raises(DomainError):
            feasibility(10, 10, 11, 5)
