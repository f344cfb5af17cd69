import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankguard import DomainError, holm_adjust


class TestHolmAdjust:
    def test_single_p_is_unchanged(self):
        assert holm_adjust([0.03]) == [0.03]

    def test_all_ones(self):
        assert holm_adjust([1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_step_down_path_in_a_family_of_seven(self):
        raw = [1.0, 1.0, 1.0, 0.112, 0.072, 0.011, 1.4e-4]
        adjusted = holm_adjust(raw)
        # smallest gets multiplier 7, next 6, with a running maximum
        assert adjusted[6] == pytest.approx(7 * 1.4e-4)
        assert adjusted[5] == pytest.approx(max(6 * 0.011, 7 * 1.4e-4))
        assert adjusted[4] == pytest.approx(5 * 0.072)
        assert adjusted[3] == pytest.approx(4 * 0.112)
        assert adjusted[:3] == [1.0, 1.0, 1.0]

    def test_published_family_reproduced_to_rounding(self):
        # the same family as above was reported with adjusted values
        # computed from unrounded inputs; rounded inputs land within 0.005
        raw = [1.0, 1.0, 1.0, 0.112, 0.072, 0.011, 1.4e-4]
        published = [1.0, 1.0, 1.0, 0.450, 0.358, 0.064, 9.4e-4]
        for ours, theirs in zip(holm_adjust(raw), published):
            assert ours == pytest.approx(theirs, abs=0.005)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            holm_adjust([0.2, 1.0001])
        with pytest.raises(DomainError):
            holm_adjust([-0.1])
        with pytest.raises(DomainError):
            holm_adjust([float("nan")])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_bounds_and_dominates_raw(self, pvals):
        adjusted = holm_adjust(pvals)
        for raw, adj in zip(pvals, adjusted):
            assert raw <= adj <= 1.0

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_never_exceeds_bonferroni(self, pvals):
        k = len(pvals)
        bonferroni = [min(1.0, k * p) for p in pvals]
        for adj, bonf in zip(holm_adjust(pvals), bonferroni):
            assert adj <= bonf + 1e-12

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_monotone_after_sorting_by_raw(self, pvals):
        adjusted = holm_adjust(pvals)
        paired = sorted(zip(pvals, adjusted))
        for (_, a), (_, b) in zip(paired, paired[1:]):
            assert a <= b + 1e-12

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=10), st.randoms())
    def test_permutation_equivariance(self, pvals, rnd):
        order = list(range(len(pvals)))
        rnd.shuffle(order)
        shuffled = [pvals[i] for i in order]
        direct = holm_adjust(pvals)
        via_shuffle = holm_adjust(shuffled)
        for slot, original_index in enumerate(order):
            assert via_shuffle[slot] == direct[original_index]

