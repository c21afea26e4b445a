"""Unit tests for KnnResult and neighbor-list merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.neighbors import KnnResult, merge_neighbor_lists, recall
from repro.errors import ValidationError

from ..conftest import loop_merge


def _result(dist, idx):
    return KnnResult(np.asarray(dist, float), np.asarray(idx))


class TestKnnResult:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            KnnResult(np.ones((2, 3)), np.ones((2, 2), dtype=np.intp))

    def test_sorted(self):
        res = _result([[3.0, 1.0, 2.0]], [[3, 1, 2]])
        assert not res.is_sorted()
        s = res.sorted()
        assert s.is_sorted()
        np.testing.assert_array_equal(s.indices, [[1, 2, 3]])

    def test_m_k(self):
        res = _result(np.zeros((4, 2)), np.zeros((4, 2), dtype=np.intp))
        assert res.m == 4 and res.k == 2


class TestMergeNeighborLists:
    def test_keeps_k_smallest_union(self):
        a = _result([[1.0, 4.0]], [[10, 40]])
        b = _result([[2.0, 3.0]], [[20, 30]])
        merged = merge_neighbor_lists(a, b)
        np.testing.assert_allclose(merged.distances, [[1.0, 2.0]])
        np.testing.assert_array_equal(merged.indices, [[10, 20]])

    def test_dedupes_ids(self):
        a = _result([[1.0, 4.0]], [[10, 40]])
        b = _result([[1.0, 2.0]], [[10, 20]])
        merged = merge_neighbor_lists(a, b)
        np.testing.assert_array_equal(merged.indices, [[10, 20]])

    def test_unfilled_slots_lose(self):
        a = _result([[np.inf, np.inf]], [[-1, -1]])
        b = _result([[5.0, np.inf]], [[7, -1]])
        merged = merge_neighbor_lists(a, b)
        np.testing.assert_array_equal(merged.indices, [[7, -1]])
        assert merged.distances[0, 0] == 5.0

    def test_multiple_unfilled_slots_preserved(self):
        a = _result([[np.inf, np.inf, np.inf]], [[-1, -1, -1]])
        b = _result([[1.0, np.inf, np.inf]], [[3, -1, -1]])
        merged = merge_neighbor_lists(a, b)
        assert (merged.indices[0] == [3, -1, -1]).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            merge_neighbor_lists(
                _result(np.zeros((1, 2)), np.zeros((1, 2), dtype=int)),
                _result(np.zeros((2, 2)), np.zeros((2, 2), dtype=int)),
            )


class TestMergeFastAgreesWithSlow:
    def test_random_lists(self, rng):
        m, k = 20, 8
        # ids unique within each list, distances consistent across lists
        pool_dist = rng.random(1000)
        def make():
            ids = rng.choice(1000, size=(m, k), replace=False).reshape(m, k)
            return KnnResult(pool_dist[ids], ids)
        a, b = make(), make()
        slow = loop_merge(a, b)
        fast = merge_neighbor_lists(a, b)
        np.testing.assert_array_equal(fast.distances, slow.distances)
        np.testing.assert_array_equal(fast.indices, slow.indices)

    def test_with_unfilled_slots(self, rng):
        a = _result([[np.inf, np.inf, np.inf]], [[-1, -1, -1]])
        b = _result([[0.5, 0.7, np.inf]], [[5, 7, -1]])
        slow = loop_merge(a, b)
        fast = merge_neighbor_lists(a, b)
        np.testing.assert_array_equal(fast.distances, slow.distances)
        np.testing.assert_array_equal(fast.indices, slow.indices)

    def test_overlapping_ids(self, rng):
        ids = np.array([[1, 2, 3]])
        dist = np.array([[0.1, 0.2, 0.3]])
        a = KnnResult(dist, ids)
        b = KnnResult(dist.copy(), ids.copy())
        fast = merge_neighbor_lists(a, b)
        np.testing.assert_array_equal(np.sort(fast.indices), [[1, 2, 3]])
        np.testing.assert_allclose(np.sort(fast.distances), dist)


class TestRecall:
    def test_perfect(self):
        truth = _result([[1.0, 2.0]], [[1, 2]])
        assert recall(truth, truth) == 1.0

    def test_partial(self):
        truth = _result([[1.0, 2.0]], [[1, 2]])
        cand = _result([[1.0, 9.0]], [[1, 9]])
        assert recall(cand, truth) == 0.5

    def test_order_independent(self):
        truth = _result([[1.0, 2.0]], [[1, 2]])
        cand = _result([[2.0, 1.0]], [[2, 1]])
        assert recall(cand, truth) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            recall(
                _result(np.zeros((1, 2)), np.zeros((1, 2), dtype=int)),
                _result(np.zeros((1, 3)), np.zeros((1, 3), dtype=int)),
            )


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        res = KnnResult(rng.random((5, 3)), rng.integers(0, 100, (5, 3)))
        path = res.save(tmp_path / "result")
        loaded = KnnResult.load(path)
        np.testing.assert_array_equal(loaded.distances, res.distances)
        np.testing.assert_array_equal(loaded.indices, res.indices)

    def test_suffix_added(self, tmp_path):
        res = KnnResult(np.zeros((1, 1)), np.zeros((1, 1), dtype=np.intp))
        assert res.save(tmp_path / "noext").suffix == ".npz"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            KnnResult.load(tmp_path / "nope.npz")

    def test_wrong_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(ValidationError):
            KnnResult.load(path)

    def test_inf_and_sentinels_survive(self, tmp_path):
        res = KnnResult(
            np.array([[1.0, np.inf]]), np.array([[3, -1]])
        )
        loaded = KnnResult.load(res.save(tmp_path / "r"))
        assert np.isinf(loaded.distances[0, 1])
        assert loaded.indices[0, 1] == -1
