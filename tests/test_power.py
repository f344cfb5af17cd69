import math

import pytest

from rankguard import (
    DomainError,
    MissingnessSpec,
    PairProbs,
    PowerInputs,
    PowerLimit,
    ScenarioSpec,
    asymptotic_class,
    make_distribution,
    mcar_power,
    normal_cdf,
    pair_probs,
    run_scenario,
)

N01 = make_distribution("normal(0,1)")

_PAIR_CACHE: dict[float, PairProbs] = {}


def shifted(delta):
    return make_distribution(f"normal({delta},1)")


def pair_for(delta: float) -> PairProbs:
    if delta not in _PAIR_CACHE:
        _PAIR_CACHE[delta] = pair_probs(N01, shifted(delta))
    return _PAIR_CACHE[delta]


def power_at(n, delta, s, alpha=0.05):
    return mcar_power(
        PowerInputs(n, n, n * (1.0 - s), n * (1.0 - s), alpha, pair_for(delta))
    )


class TestPairProbs:
    def test_equal_distributions_are_exchangeable(self):
        pair = pair_probs(N01, N01)
        assert pair.p1 == pytest.approx(0.5, abs=1e-9)
        # X1 is the minimum of three i.i.d. values with probability 1/3
        assert pair.p2 == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert pair.p3 == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_normal_shift_closed_form(self):
        assert pair_probs(N01, shifted(1)).p1 == pytest.approx(
            normal_cdf(1 / math.sqrt(2)), abs=1e-9
        )
        assert pair_probs(N01, shifted(2)).p1 == pytest.approx(
            normal_cdf(math.sqrt(2)), abs=1e-9
        )
        assert normal_cdf(1 / math.sqrt(2)) == pytest.approx(0.7602, abs=5e-5)
        assert normal_cdf(math.sqrt(2)) == pytest.approx(0.9214, abs=5e-5)

    def test_uniform_exponential_supports(self):
        pair = pair_probs(make_distribution("uniform(0,1)"), make_distribution("exponential(1)"))
        assert 0.0 < pair.p1 < 1.0

    def test_discrete_is_rejected(self):
        with pytest.raises(DomainError):
            pair_probs(N01, make_distribution("poisson(2)"))

    def test_identical_point_masses_rejected_via_p1_bounds(self):
        with pytest.raises(DomainError):
            PairProbs(p1=1.0, p2=0.9, p3=0.9)


class TestMcarPower:
    def test_reference_cells(self):
        assert power_at(100, 1.0, 0.10) == pytest.approx(0.89, abs=0.01)
        assert power_at(50, 2.0, 0.20) == pytest.approx(0.10, abs=0.01)
        assert power_at(100, 0.0, 0.0) == pytest.approx(0.05, abs=0.01)

    def test_null_power_equals_level_without_missingness(self):
        for n in (50, 100, 200):
            for alpha in (0.01, 0.05, 0.1):
                assert power_at(n, 0.0, 0.0, alpha) == pytest.approx(alpha, abs=0.01)

    def test_nonincreasing_in_missing_fraction(self):
        for delta in (0.0, 0.5, 1.0, 2.0):
            values = [power_at(100, delta, s) for s in (0.0, 0.05, 0.1, 0.15, 0.2, 0.3)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_alpha_near_zero_is_defined(self):
        for alpha in (1e-17, 1e-300):
            assert 0.0 <= power_at(100, 1.0, 0.1, alpha) <= 1.0

    def test_fractional_observed_counts_are_accepted(self):
        pair = pair_probs(N01, shifted(0.5))
        value = mcar_power(PowerInputs(50, 50, 47.5, 47.5, 0.05, pair))
        assert 0.0 <= value <= 1.0

    def test_monte_carlo_agreement(self):
        # empirical power of the full harness within 0.03 of theory
        cells = [(100, 1.0, 0.10), (50, 2.0, 0.20)]
        for n, delta, s in cells:
            spec = ScenarioSpec(
                dist_x="normal(0,1)",
                dist_y=f"normal({delta},1)",
                n=n,
                m=n,
                missingness=(MissingnessSpec("mcar", s),),
                methods=("proposed",),
                trials=1000,
                seed=77,
            )
            rate = run_scenario(spec).outcomes["proposed"].rate
            n_obs = n - math.ceil(s * n - 0.5)
            theory = mcar_power(PowerInputs(n, n, n_obs, n_obs, 0.05, pair_for(delta)))
            assert abs(rate - theory) <= 0.03


class TestAsymptoticClass:
    def test_reference_cases(self):
        assert asymptotic_class(0.9, 0.9, 0.1) is PowerLimit.POWER_TO_ONE
        assert asymptotic_class(0.5, 0.5, 0.5) is PowerLimit.POWER_TO_ZERO
        assert asymptotic_class(0.9, 0.9, 0.9) is PowerLimit.POWER_TO_ONE

    def test_boundary_is_an_error(self):
        # lambda_x lambda_y p1 = 1/2 exactly
        with pytest.raises(DomainError):
            asymptotic_class(1.0, 1.0, 0.5)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            asymptotic_class(0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            asymptotic_class(0.5, 0.5, 1.0)

    def test_zero_class_trend_with_growing_samples(self):
        # observed fraction 0.875, small shift: classified power-to-zero,
        # and the theoretical rejection rate indeed decays as n grows
        pair = pair_for(0.5)
        lam = 0.875
        assert asymptotic_class(lam, lam, pair.p1) is PowerLimit.POWER_TO_ZERO
        values = [
            mcar_power(PowerInputs(n, n, lam * n, lam * n, 0.05, pair))
            for n in (100, 400, 1600)
        ]
        assert values[0] > values[1] > values[2]

    def test_one_class_trend_with_growing_samples(self):
        pair = pair_for(0.5)
        lam = 0.95
        assert asymptotic_class(lam, lam, pair.p1) is PowerLimit.POWER_TO_ONE
        values = [
            mcar_power(PowerInputs(n, n, lam * n, lam * n, 0.05, pair))
            for n in (400, 1600, 6400)
        ]
        assert values[0] < values[1] < values[2]
