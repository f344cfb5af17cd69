import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankguard import (
    Alternative,
    DegenerateDataError,
    DomainError,
    Sample,
    impute_hot_deck,
    impute_mean,
    normal_cdf,
    normal_quantile,
    wmw_statistic,
    wmw_test,
)
from rankguard.wmw import tail_p

from oracles import oracle_tie_variance, oracle_wmw

# tied values, signed zeros, and arbitrary finite reals
VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-1e6, 1e6)


class TestNormalCdfQuantile:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for z in np.linspace(-6, 6, 25):
            assert normal_cdf(-z) == pytest.approx(1.0 - normal_cdf(z), abs=1e-15)

    def test_against_high_precision_oracle(self):
        # independent oracle: mpmath's erfc at 50 digits
        import mpmath

        mpmath.mp.dps = 50
        for z in np.linspace(-8, 8, 33):
            exact = float(0.5 * mpmath.erfc(-z / mpmath.sqrt(2)))
            assert abs(normal_cdf(float(z)) - exact) < 1e-12

    def test_quantile_by_bisection_on_cdf(self):
        # the quantile must invert the implemented CDF itself
        for p in (0.025, 0.1, 0.5, 0.9, 0.975, 0.999):
            lo, hi = -10.0, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if normal_cdf(mid) < p:
                    lo = mid
                else:
                    hi = mid
            assert abs(normal_quantile(p) - 0.5 * (lo + hi)) < 1e-10

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                normal_quantile(p)


class TestWmwTest:
    @settings(deadline=None)
    @given(st.lists(VALUES, min_size=1, max_size=30), st.lists(VALUES, min_size=1, max_size=30))
    def test_p_equals_the_fraction_route_bit_for_bit(self, x, y):
        n, m = len(x), len(y)
        sigma2 = oracle_tie_variance(n, m, x + y)
        q = oracle_wmw(x, y) - Fraction(n * m, 2)
        for alternative in Alternative:
            if sigma2 == 0:
                with pytest.raises(DegenerateDataError):
                    wmw_test(x, y, alternative)
            else:
                assert wmw_test(x, y, alternative) == (q + Fraction(n * m, 2),
                                                       tail_p(q, sigma2, alternative))

    def test_a_non_finite_value_is_refused_as_sample_refuses_it(self):
        for bad in (math.nan, math.inf, -math.inf):
            for statistic in (wmw_test, wmw_statistic):
                with pytest.raises(DomainError, match=f"non-finite value: {bad}"):
                    statistic([1.0, bad], [2.0, 3.0])
                with pytest.raises(DomainError, match="non-finite"):
                    statistic(np.array([2.0, 3.0]), (bad,))
                # an empty side is refused first
                with pytest.raises(DegenerateDataError):
                    statistic([], [bad])

    def test_fully_tied_pair_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            wmw_test([3.0], [3.0])

    def test_centered_statistic_has_p_one(self):
        w, p = wmw_test([1.0, 4.0], [2.0, 3.0])
        assert w == 2 and p == pytest.approx(1.0)

    def test_one_sided_directions(self):
        x = [5.0, 6.0, 7.0]
        y = [1.0, 2.0, 3.0]
        _, p_greater = wmw_test(x, y, Alternative.X_GREATER)
        _, p_less = wmw_test(x, y, Alternative.X_LESS)
        assert p_greater < 0.1 < p_less
        assert p_greater + p_less == pytest.approx(1.0)

    def test_swap_invariance_two_sided(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = list(rng.normal(size=rng.integers(2, 12)))
            y = list(rng.normal(size=rng.integers(2, 12)))
            _, pxy = wmw_test(x, y)
            _, pyx = wmw_test(y, x)
            assert abs(pxy - pyx) < 1e-12

    def test_monotone_in_distance_from_center(self):
        # fixed sizes, pushing W outward can only shrink the two-sided p
        n = m = 6
        base = [float(i) for i in range(1, 7)]
        previous = None
        for shift in (0.0, 0.5, 1.5, 3.0, 6.0):
            x = [v + shift for v in base]
            _, p = wmw_test(x, base)
            if previous is not None:
                assert p <= previous + 1e-12
            previous = p

    def test_matches_scipy_asymptotic_no_continuity(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(11)
        cases = [
            (
                rng.integers(0, 6, size=rng.integers(3, 15)).astype(float),
                rng.integers(0, 6, size=rng.integers(3, 15)).astype(float),
            )
            for _ in range(40)
        ]
        # fully separated samples: the two-sided p lies far out in the tail
        low, high = np.arange(100.0), np.arange(100.0, 200.0)
        cases += [(low, high), (high, low)]
        for x, y in cases:
            if len(set(x.tolist() + y.tolist())) == 1:
                continue
            w, p = wmw_test(list(x), list(y))
            ref = scipy_stats.mannwhitneyu(
                x, y, alternative="two-sided", method="asymptotic", use_continuity=False
            )
            assert float(w) == pytest.approx(ref.statistic)
            assert p == pytest.approx(ref.pvalue, rel=1e-10, abs=0)

    def test_far_tail_matches_scipy_for_every_alternative(self):
        # x_greater on separated samples lies far out in the upper tail,
        # where 1 - Phi(z) would cancel
        scipy_stats = pytest.importorskip("scipy.stats")
        low, high = np.arange(40.0), np.arange(100.0, 140.0)
        names = {
            Alternative.TWO_SIDED: "two-sided",
            Alternative.X_GREATER: "greater",
            Alternative.X_LESS: "less",
        }
        for x, y in ((high, low), (low, high)):
            for alternative, name in names.items():
                _, p = wmw_test(list(x), list(y), alternative)
                ref = scipy_stats.mannwhitneyu(
                    x, y, alternative=name, method="asymptotic", use_continuity=False
                )
                assert p == pytest.approx(ref.pvalue, rel=1e-10, abs=0)

    def test_null_rejection_rate_is_calibrated(self):
        # continuous data, no missingness, alpha = 0.05
        rng = np.random.default_rng(2024)
        trials = 5000
        rejections = 0
        for _ in range(trials):
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            _, p = wmw_test(list(x), list(y))
            rejections += p < 0.05
        assert 0.04 <= rejections / trials <= 0.065


class TestImputation:
    def test_mean_imputation(self):
        assert impute_mean(Sample((1.0, 3.0), 2)).tolist() == [1.0, 3.0, 2.0, 2.0]
        assert impute_mean(Sample((0.0, 0.0, 6.0), 1)).tolist() == [0.0, 0.0, 6.0, 2.0]
        assert impute_mean(Sample((4.0,), 0)).tolist() == [4.0]

    def test_mean_requires_observations(self):
        with pytest.raises(DegenerateDataError):
            impute_mean(Sample((), 2))

    def test_hot_deck_single_donor(self):
        rng = np.random.default_rng(0)
        assert impute_hot_deck(Sample((7.0,), 3), rng).tolist() == [7.0] * 4

    def test_hot_deck_no_missing(self):
        rng = np.random.default_rng(0)
        assert impute_hot_deck(Sample((1.0, 2.0), 0), rng).tolist() == [1.0, 2.0]

    def test_hot_deck_fixed_seed_regression(self):
        out = impute_hot_deck(Sample((1.0, 2.0), 4), np.random.default_rng(1234))
        assert out.tolist() == [1.0, 2.0, 2.0, 2.0, 2.0, 1.0]

    def test_hot_deck_requires_observations(self):
        with pytest.raises(DegenerateDataError):
            impute_hot_deck(Sample((), 1), np.random.default_rng(0))


class TestStrategyTest:
    """The classical test after each standard missing-data workaround."""

    def test_all_strategies_agree_without_missing_data(self):
        x = Sample((1.0, 5.0, 9.0))
        y = Sample((2.0, 4.0, 8.0))
        rng = np.random.default_rng(3)
        reference = wmw_test(x.observed, y.observed)
        assert wmw_test(impute_mean(x), impute_mean(y)) == reference
        assert wmw_test(impute_hot_deck(x, rng), impute_hot_deck(y, rng)) == reference

    def test_mcar_ignore_keeps_level(self):
        # null data, 10 percent missing completely at random
        rng = np.random.default_rng(99)
        trials = 2000
        rejections = 0
        for _ in range(trials):
            x = rng.normal(size=100)
            y = rng.normal(size=100)
            x_s = Sample(tuple(np.delete(x, rng.choice(100, 10, replace=False))), 10)
            y_s = Sample(tuple(np.delete(y, rng.choice(100, 10, replace=False))), 10)
            _, p = wmw_test(x_s.observed, y_s.observed)
            rejections += p < 0.05
        assert 0.03 <= rejections / trials <= 0.07

    def test_informative_missingness_breaks_imputation_level(self):
        # null data, but only positive values can go missing: imputation
        # underfills the upper tail and overstates the group difference
        rng = np.random.default_rng(17)
        trials = 1000
        inflated = {"mean": 0, "hot_deck": 0}
        for _ in range(trials):
            x = rng.normal(size=100)
            y = rng.normal(size=100)

            def drop_positive(values):
                pos = values > 0
                q = min(1.0, 0.2 * len(values) / max(1, int(pos.sum())))
                gone = pos & (rng.random(len(values)) < q)
                return Sample(tuple(values[~gone]), int(gone.sum()))

            x_s, y_s = drop_positive(x), drop_positive(y)
            _, p = wmw_test(impute_mean(x_s), impute_mean(y_s))
            inflated["mean"] += p < 0.05
            _, p = wmw_test(impute_hot_deck(x_s, rng), impute_hot_deck(y_s, rng))
            inflated["hot_deck"] += p < 0.05
        assert inflated["mean"] / trials > 0.065
        assert inflated["hot_deck"] / trials > 0.065
