import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankguard import (
    DegenerateDataError,
    DomainError,
    Sample,
    Support,
    null_variance,
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
        assert s.observed.tolist() == [1.0, 2.0, 3.0]
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

    def test_observed_is_read_only(self):
        s = Sample([2.0, 1.0])
        assert s.observed.dtype == np.float64 and not s.observed.flags.writeable
        with pytest.raises(ValueError):
            s.observed[0] = 5.0

    def test_caller_array_is_copied(self):
        values = np.array([3.0, 1.0, 2.0])
        s = Sample(values, 1)
        values[:] = 9.0
        assert s.observed.tolist() == [1.0, 2.0, 3.0]
        assert s == Sample((1.0, 2.0, 3.0), 1) and hash(s) == hash(Sample([3, 2, 1], 1))
        assert s != Sample((1.0, 2.0, 3.0), 2) and s != Sample((1.0, 2.0), 1)
        assert Sample([-0.0]) == Sample([0.0]) and hash(Sample([-0.0])) == hash(Sample([0.0]))

    def test_every_zero_is_stored_as_positive_zero(self):
        values = [2.0, 5.0, 2.0, 4.0, 2.0, 0.0, -0.0, 1.0, 1.0, 3.0, 0.0, 0.0, 3.0, 2.0,
                  0.0, 3.0, 0.0, 5.0, 2.0, 3.0, 5.0, 3.0, 0.0, 2.0, 4.0, -0.0, -1.0]
        expected = [v + 0.0 for v in sorted(values)]
        for given_as in (list, np.array):
            observed = Sample(given_as(values)).observed.tolist()
            assert list(map(repr, observed)) == list(map(repr, expected))
        assert repr(Sample([-0.0, -0.0], 1).observed.tolist()) == "[0.0, 0.0]"

    def test_two_dimensional_input_is_rejected(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            Sample(np.ones((2, 2)))

    def test_error_messages_print_plain_floats(self):
        # exact messages, so no np.float64(...) repr slips in
        with pytest.raises(DomainError) as info:
            Sample(np.array([1.0, np.inf]))
        assert str(info.value) == "observed contains a non-finite value: inf"
        for x_obs, shown in (([-1.5, 2.0, 7.25], "-1.5"), ([1.0, 7.25, 8.0], "7.25")):
            with pytest.raises(DomainError) as info:
                robust_test_general(Sample(np.array(x_obs)), Sample([1.0]), Support(0, 5))
            assert str(info.value) == f"observed x value {shown} lies outside the support"


class TestSupport:
    def test_requires_lower_below_upper(self):
        with pytest.raises(DomainError):
            Support(lower=2, upper=2)

    def test_an_infinite_end_is_an_open_end(self):
        assert Support(lower=-math.inf) == Support() == Support(None, math.inf)
        assert (Support().lower, Support().upper) == (-math.inf, math.inf)

    @pytest.mark.parametrize("lower, upper", [
        (math.inf, None), (None, -math.inf), (math.nan, None), (None, math.nan), (0, math.nan),
    ])
    def test_refuses_an_end_on_the_wrong_side_or_nan(self, lower, upper):
        with pytest.raises(DomainError, match="lower < upper"):
            Support(lower=lower, upper=upper)


class TestWmwStatistic:
    def test_extremes_with_distinct_values(self):
        assert wmw_statistic([1, 2], [3, 4, 5]) == 0
        assert wmw_statistic([3, 4, 5], [1, 2]) == Fraction(3 * 2)

    def test_worked_example(self):
        assert wmw_statistic(X7, Y6) == 3

    def test_empty_side_errors(self):
        with pytest.raises(DegenerateDataError):
            wmw_statistic([], [1.0])

    def test_an_empty_side_is_refused_before_a_non_finite_value(self):
        for x, y in (([], [math.nan]), ([math.nan], [])):
            with pytest.raises(DegenerateDataError, match="at least one value"):
                wmw_statistic(x, y)
        # then the first non-finite value in input order, named as Sample names it
        for x, y, shown in (([1.0, math.nan], [2.0], "nan"),
                            ([1.0, -math.inf], [math.nan], "-inf")):
            with pytest.raises(DomainError) as info:
                wmw_statistic(x, y)
            assert str(info.value) == f"observed contains a non-finite value: {shown}"

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

    def test_rank_sum_matches_position_average_oracle(self):
        # every split of every multiset of size <= 8 over {1, 2, 3}: the
        # statistic plus n(n+1)/2 is the midrank sum of x in the pool
        for size in range(2, 9):
            for pool in all_multisets([1, 2, 3], size):
                midranks = oracle_midranks(pool)
                for n in range(1, size):
                    for chosen in itertools.combinations(range(size), n):
                        x = [pool[i] for i in chosen]
                        y = [pool[i] for i in range(size) if i not in chosen]
                        expected = sum(midranks[v] for v in x)
                        assert wmw_statistic(x, y) + Fraction(n * (n + 1), 2) == expected


class TestTieProfile:
    def test_no_ties(self):
        assert tie_profile([1, 2, 3]).tolist() == [1, 1, 1]

    def test_simple_tie(self):
        assert tie_profile([1, 1, 2]).tolist() == [2, 1]

    def test_worked_pool_with_extra_value(self):
        assert tie_profile(POOL13 + [4]).tolist() == [3, 3, 7, 1]

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            tie_profile([])

    def test_total(self):
        sizes = tie_profile([2, 2, 9])
        assert sizes.sum() == 3 and (sizes > 1).any()


class TestGroupSizes:
    # signed zeros tie
    @settings(deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ))
    def test_equal_numpy_unique_counts(self, pool):
        expected = np.unique(np.array(pool), return_counts=True)[1].tolist()
        assert tie_profile(pool).tolist() == expected
        assert tie_profile(np.array(pool)).tolist() == expected

    @pytest.mark.parametrize("pool, shown", [
        ([1.0, math.nan, 2.0], "nan"),
        ([math.inf, 1.0, math.nan], "inf"),
        ([0.0, -math.inf, math.inf], "-inf"),
        ([math.nan, math.nan], "nan"),
    ])
    def test_refuses_a_non_finite_value_as_sample_does(self, pool, shown):
        # the first non-finite value in input order, as Sample names it
        message = f"observed contains a non-finite value: {shown}"
        for given_as in (list, np.array):
            with pytest.raises(DomainError) as info:
                tie_profile(given_as(pool))
            assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            Sample(pool)
        assert str(info.value) == message


class TestTieCorrectedVariance:
    def test_minimal_distinct_pair(self):
        assert tie_corrected_variance(1, 1, (1, 1)) == Fraction(1, 4)

    def test_worked_candidates(self):
        # the three completions of the worked multiset; exact rationals
        assert tie_corrected_variance(7, 7, (3, 3, 7, 1)) == Fraction(114954, 2184)
        assert tie_corrected_variance(7, 7, (4, 3, 7)) == Fraction(113190, 2184)
        assert tie_corrected_variance(7, 7, (3, 3, 8)) == Fraction(106722, 2184)

    def test_profile_size_mismatch(self):
        with pytest.raises(DomainError):
            tie_corrected_variance(2, 2, (1, 1, 1))

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.integers(1, 3), min_size=1, max_size=10),
    )
    def test_never_exceeds_untied_variance(self, n, m, mults):
        total = sum(mults)
        if total != n + m:
            return
        var = tie_corrected_variance(n, m, mults)
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
