import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankguard import (
    Alternative,
    BoundaryCounts,
    DomainError,
    Sample,
    StatBounds,
    Support,
    VarBounds,
    p_value_bounds,
    robust_test_distinct,
    robust_test_general,
    stat_bounds_general,
    tie_corrected_variance,
    tie_profile,
    variance_bounds,
    wmw_statistic,
)

from oracles import (
    all_multisets,
    distinct_completions,
    grid_completions,
    oracle_corner_p_range,
    oracle_p,
    oracle_tie_variance,
    oracle_two_sided_p,
    oracle_wmw,
)

X7 = (1.0, 2.0, 3.0, 2.0, 2.0, 1.0, 1.0)
Y6 = (3.0,) * 6


def enumerated_stats(x: Sample, y: Sample, grid):
    return [
        oracle_wmw(cx, cy)
        for cx, cy in grid_completions(x.observed, y.observed, x.n_missing, y.n_missing, grid)
    ]


def oracle_rank_sum(x, y) -> Fraction:
    """Rank sum of x in the pool of x and y: pair count plus n(n+1)/2."""
    return oracle_wmw(x, y) + Fraction(len(x) * (len(x) + 1), 2)


def shifted_distinct_bounds(x_obs, y_obs, n, m):
    """Extreme rank sums of the full x sample: the distinct statistic bounds
    shifted by n(n+1)/2."""
    x = Sample(tuple(x_obs), n - len(x_obs))
    y = Sample(tuple(y_obs), m - len(y_obs))
    b = stat_bounds_general(x, y, Support())
    shift = Fraction(n * (n + 1), 2)
    return b.w_min + shift, b.w_max + shift


class TestRankSumBoundsDistinct:
    def test_no_missing_degenerates_to_observed_rank_sum(self):
        x, y = [1.0, 5.0], [2.0, 8.0]
        lo, hi = shifted_distinct_bounds(x, y, 2, 2)
        assert lo == hi == oracle_rank_sum(x, y)

    def test_two_point_example(self):
        lo, hi = shifted_distinct_bounds([1.0], [2.0], 2, 1)
        assert (lo, hi) == (3, 4)

    def test_two_point_example_matches_enumeration(self):
        sums = [oracle_rank_sum(cx, cy) for cx, cy in distinct_completions([1.0], [2.0], 1, 0)]
        lo, hi = shifted_distinct_bounds([1.0], [2.0], 2, 1)
        assert min(sums) == lo and max(sums) == hi

    @given(
        st.sets(st.integers(0, 30), min_size=2, max_size=5),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_on_random_instances(self, values, miss_x, miss_y):
        values = sorted(values)
        split = max(1, len(values) // 2)
        x_obs = [float(v) for v in values[:split]]
        y_obs = [float(v) for v in values[split:]]
        if not y_obs:
            return
        n, m = len(x_obs) + miss_x, len(y_obs) + miss_y
        sums = [
            oracle_rank_sum(cx, cy)
            for cx, cy in distinct_completions(x_obs, y_obs, miss_x, miss_y)
        ]
        lo, hi = shifted_distinct_bounds(x_obs, y_obs, n, m)
        assert min(sums) == lo
        assert max(sums) == hi


class TestStatBoundsDistinct:
    def test_no_missing(self):
        x = Sample((1.0, 4.0))
        y = Sample((2.0, 3.0))
        b = stat_bounds_general(x, y, Support())
        w = wmw_statistic(x.observed, y.observed)
        assert b.w_min == b.w_max == w

    def test_large_example(self):
        x = Sample(tuple(float(i) for i in range(80)), n_missing=20)
        y = Sample(tuple(float(i) + 0.5 for i in range(100, 180)), n_missing=20)
        b = stat_bounds_general(x, y, Support())
        assert (b.w_min, b.w_max) == (0, 3600)

    def test_width_law(self):
        x = Sample((1.0, 3.0), n_missing=2)
        y = Sample((2.0,), n_missing=1)
        b = stat_bounds_general(x, y, Support())
        assert b.w_max - b.w_min == b.n * b.m - b.n_obs_x * b.n_obs_y

    @given(
        st.sets(st.integers(0, 40), min_size=2, max_size=6),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, values, miss_x, miss_y):
        values = sorted(values)
        split = max(1, len(values) - 2)
        x_obs = tuple(float(v) for v in values[:split])
        y_obs = tuple(float(v) for v in values[split:])
        if not y_obs:
            return
        x, y = Sample(x_obs, miss_x), Sample(y_obs, miss_y)
        stats = [
            oracle_wmw(cx, cy)
            for cx, cy in distinct_completions(x_obs, y_obs, miss_x, miss_y)
        ]
        b = stat_bounds_general(x, y, Support())
        assert min(stats) == b.w_min
        assert max(stats) == b.w_max

    def test_monotone_degradation_superset(self):
        x = Sample((1.0, 7.0), n_missing=1)
        y = Sample((3.0, 9.0), n_missing=0)
        before = stat_bounds_general(x, y, Support())
        after = stat_bounds_general(Sample(x.observed, 2), y, Support())
        assert after.w_min <= before.w_min and after.w_max >= before.w_max


class TestStatBoundsGeneral:
    def test_worked_example(self):
        b = stat_bounds_general(Sample(X7), Sample(Y6, 1), Support(1, 4))
        assert (b.w_min, b.w_max) == (3, Fraction(17, 2))

    def test_reduces_to_distinct_when_no_boundary_ties(self):
        x = Sample((1.5, 2.5), 1)
        y = Sample((3.5,), 1)
        support = Support(0, 10)
        general = stat_bounds_general(x, y, support)
        distinct = stat_bounds_general(x, y, Support())
        assert (general.w_min, general.w_max) == (distinct.w_min, distinct.w_max)

    def test_observed_outside_support(self):
        with pytest.raises(DomainError):
            stat_bounds_general(Sample((5.0,)), Sample((1.0,)), Support(0, 2))

    def test_boundary_counts(self):
        counts = BoundaryCounts.from_observed(X7, Y6, Support(1, 4))
        assert (counts.x_at_lower, counts.x_at_upper) == (3, 0)
        assert (counts.y_at_lower, counts.y_at_upper) == (0, 0)

    def test_width_never_shrinks_with_more_missing(self):
        support = Support(1, 4)
        x = Sample((1.0, 2.0, 4.0), 1)
        y = Sample((1.0, 4.0), 1)

        def width(a, b):
            bounds = stat_bounds_general(a, b, support)
            return bounds.w_max - bounds.w_min

        base = width(x, y)
        more_x = width(Sample(x.observed, 2), y)
        more_y = width(x, Sample(y.observed, 2))
        assert more_x >= base and more_y >= base

    def test_half_bounded_zeroes_absent_endpoint(self):
        # lower endpoint only: values at the max observed value do not tighten
        x = Sample((0.0, 3.0), 1)
        y = Sample((3.0,), 1)
        b = stat_bounds_general(x, y, Support(lower=0))
        w = wmw_statistic(x.observed, y.observed)
        # T1 has no x-at-upper term, T2 has no y-at-upper term
        assert b.w_min == w
        assert b.w_max == w + (3 * 2 - 2 * 1) - Fraction(1 * 1, 2)

    def test_exhaustive_small_grid(self):
        grid = (1.0, 2.0, 3.0)
        support = Support(1, 3)
        for n_obs in range(1, 4):
            for m_obs in range(1, 4):
                for x_obs in all_multisets(grid, n_obs):
                    for y_obs in all_multisets(grid, m_obs):
                        for miss_x, miss_y in ((1, 0), (0, 1), (1, 1), (2, 1)):
                            x = Sample(x_obs, miss_x)
                            y = Sample(y_obs, miss_y)
                            stats = enumerated_stats(x, y, grid)
                            b = stat_bounds_general(x, y, support)
                            assert min(stats) == b.w_min
                            assert max(stats) == b.w_max


class TestVarianceBounds:
    def test_nothing_missing_collapses(self):
        x, y = Sample(X7), Sample(Y6 + (4.0,))
        vb = variance_bounds(x, y)
        exact = tie_corrected_variance(7, 7, tie_profile(list(X7) + list(Y6) + [4.0]))
        assert vb.sigma2_min == vb.sigma2_max == exact

    def test_worked_example(self):
        vb = variance_bounds(Sample(X7), Sample(Y6, 1))
        assert vb.sigma2_max == Fraction(114954, 2184)
        assert vb.sigma2_min == Fraction(106722, 2184)
        assert vb.d_max == 8

    def test_enumerated_variances_inside(self):
        grid = (1.0, 2.0, 3.0, 4.0)
        x = Sample((1.0, 2.0, 2.0), 2)
        y = Sample((3.0, 3.0), 1)
        vb = variance_bounds(x, y)
        for cx, cy in grid_completions(x.observed, y.observed, 2, 1, grid):
            v = oracle_tie_variance(len(cx), len(cy), cx + cy)
            assert vb.sigma2_min <= v <= vb.sigma2_max

    def test_equal_sized_sides_are_pooled_not_added(self):
        # two equal-length arrays added with + would sum element by element
        vb = variance_bounds(Sample((1.0, 2.0)), Sample((2.0, 3.0)))
        expected = oracle_tie_variance(2, 2, [1.0, 2.0, 2.0, 3.0])
        assert vb.sigma2_min == vb.sigma2_max == expected
        assert expected != oracle_tie_variance(2, 2, [3.0, 5.0])

    def test_fully_tied_completion_reaches_zero(self):
        x = Sample((2.0,), 1)
        y = Sample((2.0,), 0)
        vb = variance_bounds(x, y)
        assert vb.sigma2_min == 0

    def test_both_bounds_are_attained(self):
        # sigma2_max: the missing values are fresh singletons; sigma2_min:
        # they all join one largest observed tie group
        grid = (1.0, 2.0, 3.0)
        for x_obs in all_multisets(grid, 2):
            for y_obs in all_multisets(grid, 3):
                for miss_x, miss_y in ((1, 0), (0, 2), (2, 1), (3, 3)):
                    x, y = Sample(x_obs, miss_x), Sample(y_obs, miss_y)
                    vb = variance_bounds(x, y)
                    n, m = x.total, y.total
                    fresh = [100.0 + i for i in range(miss_x + miss_y)]
                    fresh_pool = list(x_obs) + list(y_obs) + fresh
                    assert oracle_tie_variance(n, m, fresh_pool) == vb.sigma2_max
                    mode = Counter(x_obs + y_obs).most_common(1)[0][0]
                    piled_pool = list(x_obs) + list(y_obs) + [mode] * (miss_x + miss_y)
                    assert oracle_tie_variance(n, m, piled_pool) == vb.sigma2_min
                    assert Counter(piled_pool)[mode] == vb.d_max

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.0]), max_size=8),
        st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.0]), max_size=8),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    def test_extremes_equal_the_oracle(self, x_obs, y_obs, miss_x, miss_y):
        if not (x_obs or y_obs) or len(x_obs) + miss_x < 1 or len(y_obs) + miss_y < 1:
            return
        x, y = Sample(x_obs, miss_x), Sample(y_obs, miss_y)
        self._assert_extremes(x, y)

    def test_extremes_equal_the_oracle_past_int64_cube(self):
        # n + m > 2**21: the piled group's d^3 no longer fits in int64
        missing = 2**21
        x, y = Sample((1.0, 1.0, 2.0), missing), Sample((2.0, 3.0))
        assert x.total + y.total > 2**21 and (2 + missing) ** 3 > 2**63
        self._assert_extremes(x, y)

    @staticmethod
    def _assert_extremes(x: Sample, y: Sample) -> None:
        """sigma2_max is the variance with every missing value fresh and
        distinct; sigma2_min the one with all of them on a largest group."""
        n, m = x.total, y.total
        pool = x.observed.tolist() + y.observed.tolist()
        missing = x.n_missing + y.n_missing
        mode, count = Counter(pool).most_common(1)[0]
        vb = variance_bounds(x, y)
        fresh = [max(pool) + 1.0 + i for i in range(missing)]
        assert vb.sigma2_max == oracle_tie_variance(n, m, pool + fresh)
        assert vb.sigma2_min == oracle_tie_variance(n, m, pool + [mode] * missing)
        assert vb.d_max == count + missing

    def test_group_size_past_int64_cube(self):
        # d_max = 3,000,002 > 2,097,151, so d^3 no longer fits in int64
        missing = 3_000_000
        vb = variance_bounds(Sample((1.0, 1.0, 2.0), missing), Sample((2.0,)))
        n, m = 3 + missing, 1
        N = n + m
        d = 2 + missing
        assert vb.d_max == d
        assert d**3 > 2**63
        scale = Fraction(n * m, 12 * N * (N - 1))
        plain = Fraction(n * m * (N + 1), 12)
        assert vb.sigma2_max == plain - scale * (2 * (2**3 - 2))
        assert vb.sigma2_min == plain - scale * ((d**3 - d) + (2**3 - 2))


class TestPValueBounds:
    def test_centered_interval_is_flat(self):
        x = Sample((1.0, 4.0))
        y = Sample((2.0, 3.0))
        b = stat_bounds_general(x, y, Support())
        assert b.w_min == b.w_max == Fraction(b.n * b.m, 2)
        vb = variance_bounds(x, y)
        p_low, p_high, same_sign = p_value_bounds(b, vb)
        assert p_low == p_high == 1.0
        assert same_sign

    def test_degenerate_pool(self):
        # the fully tied completion has zero variance; at that point-mass
        # limit an interval straddling the mean gives p from 0 to 1
        x = Sample((2.0,), 1)
        y = Sample((2.0,), 0)
        b = stat_bounds_general(x, y, Support(0, 5))
        assert p_value_bounds(b, variance_bounds(x, y)) == (0.0, 1.0, False)

    def test_worked_example_orders_and_needs_sigma_min(self):
        x, y = Sample(X7), Sample(Y6, 1)
        b = stat_bounds_general(x, y, Support(1, 4))
        vb = variance_bounds(x, y)
        p_low, p_high, same_sign = p_value_bounds(b, vb)
        assert same_sign
        # the middle completion (one more 3) standardises more extremely than
        # either endpoint under its own variance, so sigma_min must enter
        enum_ps = [
            oracle_two_sided_p(cx, cy)
            for cx, cy in grid_completions(X7, Y6, 0, 1, (1.0, 2.0, 3.0, 4.0))
        ]
        endpoint_min = min(
            oracle_two_sided_p(list(X7), list(Y6) + [4.0]),
            oracle_two_sided_p(list(X7), list(Y6) + [1.0]),
        )
        assert min(enum_ps) < endpoint_min
        for p in enum_ps:
            assert p_low <= p <= p_high

    def test_float_extremes_over_every_corner(self):
        # scipy's normal CDF is not monotone at one-ulp steps, so tail_p is
        # not monotone in the variance there: at q = -9/2 the variance one
        # ulp below gives the larger two-sided p, where monotonicity would
        # name it for p_min
        bounds = StatBounds(Fraction(0), Fraction(0), 3, 3, 3, 3)
        var = VarBounds(Fraction(16.124693289488846), Fraction(16.12469328948885), 1)
        two_sided = Alternative.TWO_SIDED
        assert p_value_bounds(bounds, var, two_sided)[:2] == oracle_corner_p_range(
            bounds, var, two_sided) == (0.26244040345955855, 0.26244040345955866)
        # sigma2_min one or two ulps below sigma2_max, endpoints at |z| < 2
        rng = random.Random(0)
        for _ in range(2000):
            n, m = rng.randint(1, 1000), rng.randint(1, 1000)
            s_max = n * m * (n + m + 1) / 12 * rng.uniform(0.01, 1.0)
            s_min = math.nextafter(s_max, 0.0)
            if rng.random() < 0.5:
                s_min = math.nextafter(s_min, 0.0)
            # twice w = nm/2 + z sigma, clipped to [0, 2nm]
            ends = [round(n * m + 2 * rng.uniform(-2, 2) * math.sqrt(s_max)) for _ in range(2)]
            ends = [min(max(end, 0), 2 * n * m) for end in ends]
            if rng.random() < 0.3:
                ends[1] = ends[0]
            lo2, hi2 = sorted(ends)
            bounds = StatBounds(Fraction(lo2, 2), Fraction(hi2, 2), n, m, n, m)
            var = VarBounds(Fraction(s_min), Fraction(s_max), 1)
            for alt in Alternative:
                assert p_value_bounds(bounds, var, alt)[:2] == oracle_corner_p_range(
                    bounds, var, alt), (bounds, var, alt)

    def test_sandwich_on_small_grid(self):
        grid = (1.0, 2.0, 3.0)
        support = Support(1, 3)
        for x_obs in all_multisets(grid, 2):
            for y_obs in all_multisets(grid, 2):
                for miss_x, miss_y in ((1, 0), (1, 1), (0, 2)):
                    x, y = Sample(x_obs, miss_x), Sample(y_obs, miss_y)
                    vb = variance_bounds(x, y)
                    if vb.sigma2_min == 0:
                        continue
                    b = stat_bounds_general(x, y, support)
                    for alt in Alternative:
                        p_low, p_high, _ = p_value_bounds(b, vb, alt)
                        for cx, cy in grid_completions(x_obs, y_obs, miss_x, miss_y, grid):
                            p = oracle_p(cx, cy, alt)
                            assert p_low - 1e-12 <= p <= p_high + 1e-12

    def test_kernel_reproduces_robust_reports_on_small_grid(self):
        grid = (1.0, 2.0, 3.0)
        support = Support(1, 3)
        for x_obs in all_multisets(grid, 2):
            for y_obs in all_multisets(grid, 2):
                for miss_x, miss_y in ((1, 0), (1, 1), (0, 2)):
                    x, y = Sample(x_obs, miss_x), Sample(y_obs, miss_y)
                    general = variance_bounds(x, y).sigma2_max > 0
                    for alt in Alternative:
                        reports = [robust_test_distinct(x, y, alternative=alt)]
                        if general:
                            reports.append(robust_test_general(x, y, support, alternative=alt))
                        for r in reports:
                            assert p_value_bounds(r.w_bounds, r.variance, alt) == (
                                r.p_min,
                                r.p_max,
                                r.condition_same_sign,
                            )
