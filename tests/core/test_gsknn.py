"""Unit tests for the fused GSKNN kernel (fast path and exact loops)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BlockingParams, TEST_BLOCKING
from repro.core.gsknn import GsknnStats, gsknn, gsknn_exact_loops
from repro.core.variants import Variant
from repro.errors import ValidationError

from ..conftest import brute_force_knn


class TestGsknnCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_matches_brute_force(self, small_cloud, rng, k):
        q = rng.integers(0, 300, 40)
        r = rng.permutation(300)[:120]
        res = gsknn(small_cloud, q, r, k, block_m=16, block_n=32)
        truth_d, _ = brute_force_knn(small_cloud, q, r, k)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    @pytest.mark.parametrize("variant", [1, 5, 6, "var1", "var6", Variant.VAR1])
    def test_all_executable_variants_agree(self, small_cloud, rng, variant):
        q = rng.integers(0, 300, 25)
        r = rng.permutation(300)[:90]
        res = gsknn(small_cloud, q, r, 5, variant=variant, block_m=7, block_n=13)
        truth_d, _ = brute_force_knn(small_cloud, q, r, 5)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    @pytest.mark.parametrize("norm,p", [("l1", 1.0), ("linf", np.inf), (2.5, 2.5)])
    def test_lp_norms(self, small_cloud, rng, norm, p):
        q = rng.integers(0, 300, 12)
        r = rng.permutation(300)[:60]
        res = gsknn(small_cloud, q, r, 4, norm=norm, block_m=5, block_n=11)
        truth_d, _ = brute_force_knn(small_cloud, q, r, 4, p=p)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    def test_results_sorted_ascending(self, small_cloud, rng):
        res = gsknn(small_cloud, rng.integers(0, 300, 10), np.arange(300), 8)
        assert res.is_sorted()

    def test_indices_are_global(self, small_cloud):
        """Returned ids must be values of r_idx, not positions within it."""
        r = np.array([250, 100, 42, 7])
        res = gsknn(small_cloud, np.array([0]), r, 2)
        assert set(res.indices[0]).issubset(set(r.tolist()))

    def test_duplicate_references(self, small_cloud):
        """Duplicated reference ids may fill several slots, exactly like
        brute force over the duplicated list."""
        r = np.array([5, 5, 5, 9])
        res = gsknn(small_cloud, np.array([5]), r, 3)
        assert res.distances[0, 0] == 0.0
        truth_d, _ = brute_force_knn(small_cloud, [5], r, 3)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-12)

    def test_query_equals_reference_self_distance_zero(self, small_cloud):
        res = gsknn(small_cloud, np.arange(20), np.arange(20), 1)
        np.testing.assert_allclose(res.distances, 0.0, atol=1e-9)
        np.testing.assert_array_equal(res.indices.ravel(), np.arange(20))

    def test_k_equals_n(self, small_cloud, rng):
        r = rng.permutation(300)[:9]
        res = gsknn(small_cloud, np.arange(4), r, 9)
        truth_d, _ = brute_force_knn(small_cloud, np.arange(4), r, 9)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    def test_precomputed_x2(self, small_cloud, rng):
        X2 = (small_cloud**2).sum(axis=1)
        q, r = np.arange(10), np.arange(100)
        with_x2 = gsknn(small_cloud, q, r, 5, X2=X2)
        without = gsknn(small_cloud, q, r, 5)
        np.testing.assert_allclose(with_x2.distances, without.distances, atol=1e-12)

    def test_single_point_problem(self):
        X = np.array([[1.0, 2.0]])
        res = gsknn(X, np.array([0]), np.array([0]), 1)
        assert res.distances[0, 0] == 0.0

    def test_block_sizes_of_one(self, small_cloud, rng):
        q = rng.integers(0, 300, 6)
        r = rng.permutation(300)[:10]
        res = gsknn(small_cloud, q, r, 3, block_m=1, block_n=1)
        truth_d, _ = brute_force_knn(small_cloud, q, r, 3)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)


class TestGsknnValidation:
    def test_k_too_large(self, small_cloud):
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.arange(3), np.arange(5), 6)

    def test_k_zero(self, small_cloud):
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.arange(3), np.arange(5), 0)

    def test_nan_coordinates_rejected(self, small_cloud):
        bad = small_cloud.copy()
        bad[3, 2] = np.nan
        with pytest.raises(ValidationError):
            gsknn(bad, np.arange(3), np.arange(5), 2)

    def test_inf_coordinates_rejected(self, small_cloud):
        bad = small_cloud.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValidationError):
            gsknn(bad, np.arange(3), np.arange(5), 2)

    def test_out_of_range_indices(self, small_cloud):
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.array([500]), np.arange(5), 2)
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.array([-1]), np.arange(5), 2)

    def test_empty_indices(self, small_cloud):
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.array([], dtype=int), np.arange(5), 2)

    def test_non_viable_variant_rejected(self, small_cloud):
        for variant in (2, 3, 4):
            with pytest.raises(ValidationError):
                gsknn(small_cloud, np.arange(3), np.arange(10), 2, variant=variant)

    def test_unknown_variant(self, small_cloud):
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.arange(3), np.arange(10), 2, variant="banana")

    def test_bad_block_sizes(self, small_cloud):
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.arange(3), np.arange(10), 2, block_m=0)

    def test_bad_x2_shape(self, small_cloud):
        with pytest.raises(ValidationError):
            gsknn(small_cloud, np.arange(3), np.arange(10), 2, X2=np.ones(5))

    def test_fortran_ordered_input_accepted(self, rng):
        X = np.asfortranarray(rng.random((50, 8)))
        res = gsknn(X, np.arange(10), np.arange(50), 3)
        truth_d, _ = brute_force_knn(np.ascontiguousarray(X), np.arange(10), np.arange(50), 3)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)


class TestVariantSelection:
    def test_auto_small_k_picks_var1(self, small_cloud):
        _, stats = gsknn(
            small_cloud, np.arange(50), np.arange(300), 4, return_stats=True
        )
        assert stats.variant is Variant.VAR1

    def test_auto_huge_k_picks_var6(self, rng):
        X = rng.random((1500, 8))
        _, stats = gsknn(
            X, np.arange(500), np.arange(1500), 1400, return_stats=True
        )
        assert stats.variant is Variant.VAR6

    def test_paper_rule(self, rng):
        X = rng.random((1500, 8))
        _, stats = gsknn(
            X, np.arange(100), np.arange(1500), 600, variant="paper",
            return_stats=True,
        )
        assert stats.variant is Variant.VAR6

    def test_stats_discard_fraction(self, rng):
        X = rng.random((2000, 4))
        _, stats = gsknn(
            X, np.arange(100), np.arange(2000), 4,
            variant=1, block_n=100, return_stats=True,
        )
        assert 0.0 < stats.discard_fraction <= 1.0
        assert stats.blocks == 20


class TestExactLoops:
    @pytest.mark.parametrize(
        "blocking",
        [
            TEST_BLOCKING,
            BlockingParams(m_r=3, n_r=2, d_c=4, m_c=6, n_c=7),
            BlockingParams(m_r=1, n_r=1, d_c=1, m_c=1, n_c=1),
            BlockingParams(m_r=8, n_r=8, d_c=64, m_c=64, n_c=64),
        ],
    )
    def test_matches_brute_force_any_blocking(self, rng, blocking):
        X = rng.random((60, 9))
        q = rng.integers(0, 60, 11)
        r = rng.permutation(60)[:31]
        res = gsknn_exact_loops(X, q, r, 4, blocking=blocking)
        truth_d, _ = brute_force_knn(X, q, r, 4)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    def test_var6_matches(self, rng):
        X = rng.random((40, 5))
        res = gsknn_exact_loops(X, np.arange(10), np.arange(40), 6, variant=6)
        truth_d, _ = brute_force_knn(X, np.arange(10), np.arange(40), 6)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    @pytest.mark.parametrize("variant", [2, 3, 5])
    def test_all_buffered_placements_match(self, rng, variant):
        """Var#2/3/5 differ from Var#1 only in where selection runs —
        results must be identical (the refactoring-preserves-semantics
        property at every placement)."""
        X = rng.random((50, 7))
        q = rng.integers(0, 50, 11)
        r = rng.permutation(50)[:30]
        res = gsknn_exact_loops(X, q, r, 4, variant=variant)
        truth_d, _ = brute_force_knn(X, q, r, 4)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    def test_var4_rejected(self, rng):
        X = rng.random((10, 3))
        with pytest.raises(ValidationError):
            gsknn_exact_loops(X, np.arange(5), np.arange(10), 2, variant=4)

    def test_heap_arity_override(self, rng):
        X = rng.random((30, 4))
        res = gsknn_exact_loops(
            X, np.arange(8), np.arange(30), 3, heap_arity=4
        )
        truth_d, _ = brute_force_knn(X, np.arange(8), np.arange(30), 3)
        np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)

    def test_agrees_with_fast_path(self, rng):
        X = rng.random((50, 7))
        q = rng.integers(0, 50, 9)
        r = rng.permutation(50)[:23]
        exact = gsknn_exact_loops(X, q, r, 5)
        fast = gsknn(X, q, r, 5, block_m=4, block_n=9)
        np.testing.assert_allclose(exact.distances, fast.distances, atol=1e-9)


class TestWarmStart:
    """gsknn(initial=...) — the paper's update-the-lists semantics."""

    def _two_phase(self, rng, k=6):
        X = rng.random((400, 9))
        q = rng.integers(0, 400, 50)
        r1 = rng.permutation(400)[:150]
        r2 = rng.permutation(400)[:200]
        return X, q, r1, r2, k

    def test_equals_merge_of_separate_solves(self, rng):
        from repro.core.neighbors import merge_neighbor_lists

        X, q, r1, r2, k = self._two_phase(rng)
        first = gsknn(X, q, r1, k)
        warm = gsknn(X, q, r2, k, initial=first, block_n=37)
        cold = merge_neighbor_lists(first, gsknn(X, q, r2, k))
        np.testing.assert_allclose(
            np.sort(warm.distances, 1), np.sort(cold.distances, 1), atol=1e-12
        )

    def test_matches_single_solve_over_union(self, rng):
        X, q, r1, r2, k = self._two_phase(rng)
        first = gsknn(X, q, r1, k)
        warm = gsknn(X, q, r2, k, initial=first, block_n=41)
        union = np.unique(np.concatenate([r1, r2]))
        whole = gsknn(X, q, union, k)
        np.testing.assert_allclose(warm.distances, whole.distances, atol=1e-12)

    def test_improves_discard_fraction(self, rng):
        X, q, r1, r2, k = self._two_phase(rng)
        first = gsknn(X, q, r1, k)
        _, warm_stats = gsknn(
            X, q, r2, k, initial=first, block_n=32, return_stats=True
        )
        _, cold_stats = gsknn(X, q, r2, k, block_n=32, return_stats=True)
        assert warm_stats.discard_fraction >= cold_stats.discard_fraction

    def test_shape_validated(self, rng):
        from repro.core.neighbors import KnnResult

        X, q, r1, r2, k = self._two_phase(rng)
        bad = KnnResult(np.zeros((3, k)), np.zeros((3, k), dtype=np.intp))
        with pytest.raises(ValidationError):
            gsknn(X, q, r2, k, initial=bad)

    def test_unfilled_initial_rows_accepted(self, rng):
        from repro.core.neighbors import KnnResult

        X, q, r1, r2, k = self._two_phase(rng)
        empty = KnnResult(
            np.full((q.size, k), np.inf), np.full((q.size, k), -1, dtype=np.intp)
        )
        warm = gsknn(X, q, r2, k, initial=empty)
        plain = gsknn(X, q, r2, k)
        np.testing.assert_allclose(warm.distances, plain.distances, atol=1e-12)

    def test_var6_with_initial(self, rng):
        from repro.core.neighbors import merge_neighbor_lists

        X, q, r1, r2, k = self._two_phase(rng)
        first = gsknn(X, q, r1, k)
        warm = gsknn(X, q, r2, k, variant=6, initial=first)
        cold = merge_neighbor_lists(first, gsknn(X, q, r2, k, variant=6))
        np.testing.assert_allclose(
            np.sort(warm.distances, 1), np.sort(cold.distances, 1), atol=1e-12
        )


class TestStatsCounters:
    def test_counters_exposed(self, small_cloud, rng):
        _, stats = gsknn(
            small_cloud, np.arange(20), np.arange(200), 5,
            variant=1, block_n=50, return_stats=True,
        )
        counters = stats.counters()
        assert counters.flops == (2 * 17 + 3) * 20 * 200
        assert counters.heap_updates + counters.discarded == stats.candidates_offered
        assert counters.slow_writes == 0  # Var#1 stores nothing

    def test_var6_accounts_matrix_store(self, small_cloud):
        _, stats = gsknn(
            small_cloud, np.arange(10), np.arange(100), 5,
            variant=6, return_stats=True,
        )
        counters = stats.counters()
        assert counters.slow_writes == 10 * 100

    def test_warm_start_with_l1_norm(self, rng):
        from repro.core.neighbors import merge_neighbor_lists

        X = rng.random((400, 9))
        q = rng.integers(0, 400, 50)
        r1 = rng.permutation(400)[:150]
        r2 = rng.permutation(400)[:200]
        k = 6
        first = gsknn(X, q, r1, k, norm="l1")
        warm = gsknn(X, q, r2, k, norm="l1", initial=first, block_n=23)
        cold = merge_neighbor_lists(first, gsknn(X, q, r2, k, norm="l1"))
        np.testing.assert_allclose(
            np.sort(warm.distances, 1), np.sort(cold.distances, 1), atol=1e-12
        )
