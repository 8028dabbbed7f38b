import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyrank import (RankingError, rank_and_bucket, rank_rmse,
                       spearman_correlation, top_fraction_indices)
from proxyrank.ranking import top_count

floats_unique = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4,
                         max_size=60, unique=True)


class TestRankAndBucket:
    def test_equal_buckets(self):
        rng = np.random.default_rng(0)
        rc = rank_and_bucket(rng.standard_normal(10_000), 4)
        assert np.bincount(rc.level)[1:].tolist() == [2500] * 4

    def test_one_per_bucket(self):
        rc = rank_and_bucket(np.array([3.0, 1.0, 4.0, 2.0]), 4)
        np.testing.assert_array_equal(rc.level, [3, 1, 4, 2])
        np.testing.assert_array_equal(rc.rank, [2, 4, 1, 3])

    def test_highest_ite_gets_rank_one_and_top_level(self):
        rc = rank_and_bucket(np.array([0.0, 10.0, 5.0, 2.0]), 2)
        assert rc.rank[1] == 1
        assert rc.level[1] == 2
        assert rc.level[0] == 1

    def test_remainder_goes_to_lower_levels(self):
        rc = rank_and_bucket(np.arange(10.0), 4)
        sizes = np.bincount(rc.level)[1:]
        assert sizes.tolist() == [3, 3, 2, 2]

    def test_tie_break_deterministic_across_runs(self):
        ite = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 0.5])
        r1 = rank_and_bucket(ite, 3)
        r2 = rank_and_bucket(ite.copy(), 3)
        np.testing.assert_array_equal(r1.rank, r2.rank)
        np.testing.assert_array_equal(r1.level, r2.level)
        # ties broken by ascending original index in the descending order
        assert r1.rank[1] < r1.rank[2] < r1.rank[3]

    def test_too_few_units(self):
        with pytest.raises(RankingError):
            rank_and_bucket(np.array([1.0, 2.0]), 4)

    @settings(max_examples=30, deadline=None)
    @given(values=floats_unique, L=st.integers(1, 4))
    def test_monotone_transform_invariance(self, values, L):
        from hypothesis import assume
        ite = np.asarray(values)
        if len(ite) < L:
            return
        base = rank_and_bucket(ite, L)
        # scaling by a power of two is exact, so strict order is preserved
        doubled = rank_and_bucket(4.0 * ite, L)
        np.testing.assert_array_equal(base.rank, doubled.rank)
        np.testing.assert_array_equal(base.level, doubled.level)
        affine = 3.0 * ite + 7.0
        assume(len(np.unique(affine)) == len(affine))  # no float collapse
        transformed = rank_and_bucket(affine, L)
        np.testing.assert_array_equal(base.rank, transformed.rank)
        np.testing.assert_array_equal(base.level, transformed.level)


class TestRankRmse:
    def test_identity(self):
        levels = np.array([1, 2, 3, 4])
        assert rank_rmse(levels, levels) == 0.0

    def test_exact_reversal_arithmetic(self):
        predicted = np.array([4, 3, 2, 1])
        truth = np.array([1, 2, 3, 4])
        assert rank_rmse(predicted, truth) == pytest.approx(np.sqrt(5.0))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(1, 5, 100)
        b = rng.integers(1, 5, 100)
        assert rank_rmse(a, b) == rank_rmse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(RankingError):
            rank_rmse(np.array([1, 2]), np.array([1, 2, 3]))


class TestTopPercentile:
    def test_full_selection(self):
        rc = rank_and_bucket(np.arange(20.0), 4)
        assert len(top_fraction_indices(rc.ite, 100.0)) == 20

    def test_half_selection_consistent_with_ranks(self):
        rng = np.random.default_rng(2)
        rc = rank_and_bucket(rng.standard_normal(10_000), 4)
        top = top_fraction_indices(rc.ite, 50.0)
        assert len(top) == 5000
        assert rc.rank[top].max() == 5000
        untouched = np.setdiff1d(np.arange(10_000), top)
        assert rc.rank[untouched].min() == 5001

    def test_ceil_count(self):
        rc = rank_and_bucket(np.arange(10.0), 2)
        assert len(top_fraction_indices(rc.ite, 25.0)) == 3  # ceil(2.5)

    def test_bad_k(self):
        rc = rank_and_bucket(np.arange(10.0), 2)
        for bad in (0.0, -5.0, 101.0):
            with pytest.raises(RankingError):
                top_fraction_indices(rc.ite, bad)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-1e6, 1e6),
                           min_size=1, max_size=60),
           k=st.sampled_from([0.01, 12.5, 33.3, 50.0, 100.0])
           | st.floats(0.0, 100.0, exclude_min=True),
           n_levels=st.integers(1, 4))
    def test_top_count_by_rank_equals_indices(self, values, k, n_levels):
        """ranking.csv flags the units ranked 1 to ``top_count``: the set of
        ``top_fraction_indices``, ties (signed zeros too) included."""
        values = values + [0.0] * max(0, n_levels - len(values))
        rc = rank_and_bucket(np.asarray(values), n_levels)
        flagged = np.flatnonzero(rc.rank <= top_count(rc.n, k))
        assert flagged.tolist() == top_fraction_indices(rc.ite, k).tolist()

    def test_top_count_bad_k(self):
        for bad in (0.0, -5.0, 101.0):
            with pytest.raises(RankingError):
                top_count(10, bad)

    @settings(max_examples=30, deadline=None)
    @given(values=floats_unique, k1=st.floats(1, 100), k2=st.floats(1, 100))
    def test_nestedness(self, values, k1, k2):
        ite = np.asarray(values)
        rc = rank_and_bucket(ite, 1)
        lo, hi = sorted([k1, k2])
        s_lo = set(top_fraction_indices(rc.ite, lo))
        s_hi = set(top_fraction_indices(rc.ite, hi))
        assert s_lo <= s_hi


class TestSpearman:
    def test_perfect_and_reversed(self):
        x = np.arange(10.0)
        assert spearman_correlation(x, x) == pytest.approx(1.0)
        assert spearman_correlation(x, -x) == pytest.approx(-1.0)

    def test_ties_handled(self):
        assert abs(spearman_correlation(np.array([1.0, 1.0, 2.0, 2.0]),
                                        np.array([1.0, 2.0, 1.0, 2.0]))) < 1e-9
