import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankguard import (
    DegenerateDataError,
    DomainError,
    Sample,
    Support,
    TieProfile,
    midrank,
    null_variance,
    rank_sum,
    robust_test_general,
    tie_corrected_variance,
    tie_profile,
    wmw_statistic,
)

from oracles import all_multisets, oracle_midranks, oracle_permutation_variance, oracle_wmw

# the worked multiset reused across several tests
X7 = [1, 2, 3, 2, 2, 1, 1]
Y6 = [3, 3, 3, 3, 3, 3]
POOL13 = X7 + Y6


class TestSample:
    def test_sorted_and_counted(self):
        s = Sample((3.0, 1.0, 2.0), n_missing=2)
        assert s.observed == (1.0, 2.0, 3.0)
        assert s.n_observed == 3
        assert s.total == 5

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            Sample((1.0, float("nan")))
        with pytest.raises(DomainError):
            Sample((float("inf"),))

    def test_rejects_negative_missing_and_empty_total(self):
        with pytest.raises(DomainError):
            Sample((1.0,), n_missing=-1)
        with pytest.raises(DomainError):
            Sample((), n_missing=0)

    def test_all_missing_is_allowed(self):
        assert Sample((), n_missing=3).total == 3

    def test_fractional_missing_count_is_rejected(self):
        with pytest.raises(DomainError):
            Sample((1.0, 2.0), 0.5)

    def test_numpy_missing_count_becomes_int(self):
        x = Sample((1.0, 2.0), np.int64(1))
        assert type(x.n_missing) is int
        report = robust_test_general(x, Sample((3.0,)), Support())
        json.dumps(report.to_dict())


class TestSupport:
    def test_kinds(self):
        assert Support().kind == "unbounded"
        assert Support(lower=0).kind == "half_bounded"
        assert Support(lower=0, upper=1).kind == "bounded"

    def test_requires_lower_below_upper(self):
        with pytest.raises(DomainError):
            Support(lower=2, upper=2)


class TestMidrank:
    def test_single_element(self):
        assert midrank([5], 5) == 1

    def test_worked_multiset(self):
        assert midrank(POOL13, 2) == 5
        assert midrank(POOL13, 3) == 10

    def test_absent_value_is_an_error(self):
        with pytest.raises(DomainError):
            midrank([1, 2], 3)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=30))
    def test_midranks_sum_to_full_rank_sum(self, pool):
        total = sum(midrank(pool, z) for z in pool)
        n = len(pool)
        assert total == Fraction(n * (n + 1), 2)

    def test_agrees_with_position_average_oracle(self):
        # every multiset of size <= 8 over {1, 2, 3}
        for size in range(1, 9):
            for pool in all_multisets([1, 2, 3], size):
                expected = oracle_midranks(pool)
                for z in set(pool):
                    assert midrank(pool, z) == expected[z]


class TestRankSum:
    def test_full_pool_identity(self):
        pool = [4, 4, 7, 1, 2, 2]
        assert rank_sum(pool, pool) == Fraction(6 * 7, 2)

    def test_worked_subset(self):
        assert rank_sum([1, 1, 1, 2, 2, 2, 3], POOL13) == 31

    def test_smallest_case(self):
        assert rank_sum([1], [1, 2]) == 1

    def test_containment_violation(self):
        with pytest.raises(DomainError):
            rank_sum([1, 1], [1, 2])


class TestWmwStatistic:
    def test_extremes_with_distinct_values(self):
        assert wmw_statistic([1, 2], [3, 4, 5]) == 0
        assert wmw_statistic([3, 4, 5], [1, 2]) == Fraction(3 * 2)

    def test_worked_example(self):
        assert wmw_statistic(X7, Y6) == 3

    def test_empty_side_errors(self):
        with pytest.raises(DegenerateDataError):
            wmw_statistic([], [1.0])

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=8),
        st.lists(st.integers(1, 4), min_size=1, max_size=8),
    )
    def test_antisymmetry_exact(self, x, y):
        assert wmw_statistic(x, y) + wmw_statistic(y, x) == len(x) * len(y)

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=7),
        st.lists(st.integers(1, 4), min_size=1, max_size=7),
    )
    def test_matches_pair_counting_oracle(self, x, y):
        assert wmw_statistic(x, y) == oracle_wmw(x, y)


class TestTieProfile:
    def test_no_ties(self):
        assert tie_profile([1, 2, 3]).multiplicities == (1, 1, 1)

    def test_simple_tie(self):
        assert tie_profile([1, 1, 2]).multiplicities == (2, 1)

    def test_worked_pool_with_extra_value(self):
        assert tie_profile(POOL13 + [4]).multiplicities == (3, 3, 7, 1)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            tie_profile([])

    def test_total(self):
        profile = tie_profile([2, 2, 9])
        assert profile.total == 3 and profile.n_distinct == 2 and profile.has_ties


class TestTieCorrectedVariance:
    def test_minimal_distinct_pair(self):
        assert tie_corrected_variance(1, 1, TieProfile((1, 1))) == Fraction(1, 4)

    def test_worked_candidates(self):
        # the three completions of the worked multiset; exact rationals
        assert tie_corrected_variance(7, 7, TieProfile((3, 3, 7, 1))) == Fraction(114954, 2184)
        assert tie_corrected_variance(7, 7, TieProfile((4, 3, 7))) == Fraction(113190, 2184)
        assert tie_corrected_variance(7, 7, TieProfile((3, 3, 8))) == Fraction(106722, 2184)

    def test_profile_size_mismatch(self):
        with pytest.raises(DomainError):
            tie_corrected_variance(2, 2, TieProfile((1, 1, 1)))

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.integers(1, 3), min_size=1, max_size=10),
    )
    def test_never_exceeds_untied_variance(self, n, m, mults):
        total = sum(mults)
        if total != n + m:
            return
        var = tie_corrected_variance(n, m, TieProfile(tuple(mults)))
        assert var <= null_variance(n, m)
        if all(d == 1 for d in mults):
            assert var == null_variance(n, m)
        else:
            assert var < null_variance(n, m)

    @pytest.mark.parametrize(
        "pool,n",
        [
            ((1, 1, 2, 3, 3), 2),
            ((1, 2, 3, 4), 2),
            ((2, 2, 2, 5, 5, 7), 3),
            ((1, 1, 1, 1, 2), 2),
            ((1, 2, 2, 3, 3, 3, 4), 3),
        ],
    )
    def test_equals_exact_permutation_variance(self, pool, n):
        # the formula is the exact variance of the statistic over all splits
        m = len(pool) - n
        mean, var = oracle_permutation_variance(pool, n)
        assert mean == Fraction(n * m, 2)
        assert tie_corrected_variance(n, m, tie_profile(pool)) == var
