"""Unit tests for the batched vectorized neighbor lists."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arena import WorkspaceArena
from repro.errors import ValidationError
from repro.select import ArenaNeighborLists, merge_topk
from repro.select.heap import BinaryMaxHeap


class TestMergeBlock:
    """merge_topk over a list and a block of candidates laid side by side."""

    def test_keeps_k_smallest_union(self, rng):
        values = rng.random((4, 3))
        ids = np.arange(12).reshape(4, 3)
        cand = rng.random((4, 6))
        cand_ids = np.broadcast_to(np.arange(100, 106), (4, 6))
        new_values, new_ids = merge_topk(
            np.hstack([values, cand]), np.hstack([ids, cand_ids]), 3
        )
        for i in range(4):
            union = np.concatenate([values[i], cand[i]])
            np.testing.assert_array_equal(new_values[i], np.sort(union)[:3])

    def test_2d_candidate_ids(self, rng):
        values = np.full((2, 2), np.inf)
        ids = np.full((2, 2), -1)
        cand = np.array([[1.0, 2.0], [3.0, 4.0]])
        cand_ids = np.array([[10, 20], [30, 40]])
        _, new_ids = merge_topk(
            np.hstack([values, cand]), np.hstack([ids, cand_ids]), 2
        )
        np.testing.assert_array_equal(new_ids, [[10, 20], [30, 40]])

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            merge_topk(np.ones((2, 4)), np.ones((3, 4), dtype=np.intp), 2)

    def test_k_wider_than_union_unsupported_shapes(self):
        # a merge never asks for more than its concatenated width
        with pytest.raises(ValidationError):
            merge_topk(np.ones((1, 3)), np.arange(3)[None, :], 4)
        new_values, new_ids = merge_topk(
            np.array([[np.inf, np.inf, np.inf, 1.0]]),
            np.array([[-1, -1, -1, 7]]),
            3,
        )
        np.testing.assert_array_equal(new_values, [[1.0, np.inf, np.inf]])
        np.testing.assert_array_equal(new_ids, [[7, -1, -1]])


def _lists(m, k, **kwargs):
    return ArenaNeighborLists(m, k, WorkspaceArena(), **kwargs)


def _reference(values, ids, k):
    """Row-wise k smallest (value, id) pairs by a full two-key sort."""
    order = np.lexsort((ids, values), axis=1)[:, :k]
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(ids, order, axis=1),
    )


class TestBatchedNeighborLists:
    """Tile-by-tile behaviour of the lists from cold (all-empty) rows."""

    def test_matches_per_row_heaps(self, rng):
        """The batch structure must agree with scalar heap semantics."""
        m, k, n = 7, 4, 50
        lists = _lists(m, k)
        heaps = [BinaryMaxHeap(k) for _ in range(m)]
        ids = np.arange(n)
        for start in range(0, n, 13):
            block_ids = ids[start : start + 13]
            tile = rng.random((m, block_ids.size))
            lists.update(0, tile, block_ids)
            for i in range(m):
                heaps[i].update_many(tile[i], block_ids)
        dist, _ = lists.sorted()
        for i in range(m):
            np.testing.assert_allclose(dist[i], heaps[i].sorted_pairs()[0])

    def test_partial_row_update(self, rng):
        lists = _lists(10, 2)
        tile = rng.random((4, 5))
        lists.update(3, tile, np.arange(5))
        # rows outside [3, 7) untouched
        assert (lists.ids[:3] == -1).all()
        assert (lists.ids[7:] == -1).all()
        assert (lists.ids[3:7] >= 0).all()

    def test_row_range_validation(self):
        lists = _lists(4, 2)
        with pytest.raises(ValidationError):
            lists.update(3, np.ones((2, 2)), np.arange(2))

    def test_id_count_validation(self):
        lists = _lists(2, 2)
        with pytest.raises(ValidationError):
            lists.update(0, np.ones((2, 3)), np.arange(2))

    def test_early_discard_skips_blocks(self):
        lists = _lists(2, 2)
        lists.update(0, np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, 1]))
        merged_before = lists.stats.rows_merged
        # all candidates worse than current max: nothing merges
        lists.update(0, np.array([[5.0, 6.0], [7.0, 8.0]]), np.array([2, 3]))
        assert lists.stats.rows_merged == merged_before
        assert lists.stats.rows_offered == 4

    def test_discard_fraction_increases_with_stream(self, rng):
        lists = _lists(8, 4)
        for start in range(0, 400, 40):
            tile = rng.random((8, 40))
            lists.update(0, tile, np.arange(start, start + 40))
        assert lists.stats.discard_fraction > 0.5

    def test_is_complete(self, rng):
        lists = _lists(3, 2)
        assert not lists.is_complete()
        lists.update(0, rng.random((3, 4)), np.arange(4))
        assert lists.is_complete()

    def test_sorted_rows_ascending(self, rng):
        lists = _lists(5, 6)
        lists.update(0, rng.random((5, 30)), np.arange(30))
        dist, idx = lists.sorted()
        assert (np.diff(dist, axis=1) >= 0).all()
        assert (idx >= 0).all()

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            _lists(0, 3)
        with pytest.raises(ValidationError):
            _lists(3, 0)

    def test_candidate_tile_must_be_2d(self):
        lists = _lists(2, 2)
        with pytest.raises(ValidationError):
            lists.update(0, np.ones(3), np.arange(3))


class TestArenaNeighborLists:
    def test_streaming_matches_batched(self, rng):
        """Open rows take the tile's k-th bound, full rows the root filter;
        the final lists equal one sort over every candidate, ties by id."""
        m, k, n = 9, 4, 160
        lists = _lists(m, k)
        tiles = []
        for start in range(0, n, 23):
            ids = np.arange(start, min(start + 23, n))
            tile = rng.integers(0, 6, (m, ids.size)).astype(float)
            lists.update(0, tile, ids)
            tiles.append(tile)
        want = _reference(
            np.hstack(tiles), np.broadcast_to(np.arange(n), (m, n)), k
        )
        got = lists.sorted()
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_warm_seeded_thresholds_match(self, rng):
        """Seeded lists filter at the seed's worst pair and merge into it."""
        m, k = 6, 3
        seed_d = np.full((m, k), 0.25)
        seed_i = np.tile(np.array([50, 41, 45]), (m, 1))
        lists = _lists(m, k)
        lists.seed(seed_d, seed_i)
        tile = rng.integers(0, 8, (m, 40)) / 16.0
        ids = np.arange(40)
        lists.update(0, tile, ids)
        want = _reference(
            np.hstack([seed_d, tile]),
            np.hstack([seed_i, np.broadcast_to(ids, (m, 40))]),
            k,
        )
        np.testing.assert_array_equal(lists.values, want[0])
        np.testing.assert_array_equal(lists.ids, want[1])

    def test_zero_survivors_merge_nothing(self):
        m, k = 3, 2
        lists = _lists(m, k)
        lists.seed(np.full((m, k), 0.1), np.tile(np.array([9, 8]), (m, 1)))
        lists.update(0, np.full((m, 5), 9.0), np.arange(5))
        assert lists.stats.rows_merged == 0
        np.testing.assert_array_equal(lists.ids, np.tile([8, 9], (m, 1)))

    def test_partial_row_update_falls_back(self, rng):
        """Rows outside the update window stay empty; rows inside hold the
        tile's best pairs."""
        lists = _lists(10, 2)
        tile = rng.random((4, 5))
        lists.update(3, tile, np.arange(5))
        assert (lists.ids[:3] == -1).all() and (lists.ids[7:] == -1).all()
        want = _reference(tile, np.broadcast_to(np.arange(5), (4, 5)), 2)
        np.testing.assert_array_equal(lists.values[3:7], want[0])
        np.testing.assert_array_equal(lists.ids[3:7], want[1])
