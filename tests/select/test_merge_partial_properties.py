"""Property tests: merging disjoint partial top-k lists is lossless.

:func:`repro.select.vectorized.merge_topk` is the gather step of the
scatter/gather shard router: each shard returns its partition's
top ``k_part`` and the router must recover exactly the global top-k.
These tests generate random partitions of a global candidate pool —
ragged per-shard sizes, duplicate distances, shards that own nothing —
and assert the merge equals the ground truth computed on the unsplit
pool, and equals folding the scalar two-finger
:func:`~repro.select.mergeselect.merge_sorted_lists` over the partials.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ValidationError
from repro.select import merge_topk
from repro.select.mergeselect import merge_sorted_lists

# a coarse grid of distances forces plenty of exact duplicates, the
# case where the (distance, id) tie policy actually matters
tied_floats = st.integers(min_value=0, max_value=12).map(lambda v: v / 4.0)
unique_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def partitioned_pool(
    draw, elements, max_rows=3, max_pool=48, max_shards=5, unique=False
):
    """A random (m, n) candidate pool cut column-wise into R shards.

    Returns the global pool plus each shard's padded partial top-k,
    concatenated the way the router's gather step lays them out.
    """
    m = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_pool))
    R = draw(st.integers(min_value=1, max_value=max_shards))
    k = draw(st.integers(min_value=1, max_value=n))
    dist = draw(arrays(np.float64, shape=(m, n), elements=elements, unique=unique))
    owner = draw(
        arrays(np.int64, shape=n, elements=st.integers(0, R - 1))
    )
    # per-shard partial top-k: sorted by (distance, id), padded to a
    # common width with +inf / -1 — ragged partitions exercise the pads
    width = min(k, n)
    parts_d, parts_i = [], []
    for r in range(R):
        ids = np.flatnonzero(owner == r)
        pd = np.full((m, width), np.inf)
        pi = np.full((m, width), -1, dtype=np.intp)
        if ids.size:
            local = dist[:, ids]
            order = np.lexsort(
                (np.broadcast_to(ids, local.shape), local), axis=1
            )[:, :width]
            take = order.shape[1]
            pd[:, :take] = np.take_along_axis(local, order, axis=1)
            pi[:, :take] = ids[order]
        parts_d.append(pd)
        parts_i.append(pi)
    return {
        "dist": dist,
        "k": k,
        "cat_d": np.concatenate(parts_d, axis=1),
        "cat_i": np.concatenate(parts_i, axis=1),
        "n_shards": R,
        "width": width,
    }


def global_topk(dist: np.ndarray, k: int):
    """Ground truth on the unsplit pool: (distance, id) lexsort."""
    m, n = dist.shape
    ids = np.broadcast_to(np.arange(n), (m, n))
    order = np.lexsort((ids, dist), axis=1)[:, :k]
    rows = np.arange(m)[:, None]
    return dist[rows, order], np.take_along_axis(np.asarray(ids), order, 1)


@given(partitioned_pool(elements=unique_floats))
@settings(max_examples=120, deadline=None)
def test_disjoint_partials_recover_global_topk(case):
    got_d, got_i = merge_topk(case["cat_d"], case["cat_i"], case["k"])
    want_d, want_i = global_topk(case["dist"], case["k"])
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_i, want_i)


@given(partitioned_pool(elements=tied_floats))
@settings(max_examples=120, deadline=None)
def test_duplicate_distances_break_ties_by_id(case):
    """With heavy distance ties the merge must still be deterministic:
    equal distances order by ascending reference id, independent of
    which shard owned which id."""
    got_d, got_i = merge_topk(case["cat_d"], case["cat_i"], case["k"])
    want_d, want_i = global_topk(case["dist"], case["k"])
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_i, want_i)
    # ascending distance, and ascending id within every distance tie
    assert (np.diff(got_d, axis=1) >= 0).all()
    same = got_d[:, 1:] == got_d[:, :-1]
    assert (got_i[:, 1:][same] > got_i[:, :-1][same]).all()


@given(partitioned_pool(elements=unique_floats, unique=True))
@settings(max_examples=80, deadline=None)
def test_matches_folded_merge_sorted_lists(case):
    """The vectorized lexsort merge is the batch twin of folding the
    scalar two-finger merge over the partials (tie-free distances: the
    scalar merge resolves ties by fold order, not id)."""
    got_d, got_i = merge_topk(case["cat_d"], case["cat_i"], case["k"])
    k, width = case["k"], case["width"]
    for row in range(case["dist"].shape[0]):
        acc_v = np.empty(0)
        acc_i = np.empty(0, dtype=np.intp)
        for r in range(case["n_shards"]):
            seg_v = case["cat_d"][row, r * width : (r + 1) * width]
            seg_i = case["cat_i"][row, r * width : (r + 1) * width]
            real = seg_i >= 0
            acc_v, acc_i = merge_sorted_lists(
                acc_v, acc_i, seg_v[real], seg_i[real], k
            )
        np.testing.assert_array_equal(got_d[row, : acc_v.size], acc_v)
        np.testing.assert_array_equal(got_i[row, : acc_i.size], acc_i)
        # columns past the real candidates are padding
        np.testing.assert_array_equal(got_i[row, acc_i.size :], -1)
        assert np.isinf(got_d[row, acc_v.size :]).all()


class TestMergePartialTopkEdges:
    def test_all_partials_empty(self):
        d = np.full((2, 6), np.inf)
        i = np.full((2, 6), -1, dtype=np.intp)
        got_d, got_i = merge_topk(d, i, 3)
        assert np.isinf(got_d).all()
        np.testing.assert_array_equal(got_i, -1)

    def test_fewer_real_candidates_than_k(self):
        d = np.array([[0.5, np.inf, np.inf, np.inf]])
        i = np.array([[7, -1, -1, -1]])
        got_d, got_i = merge_topk(d, i, 3)
        np.testing.assert_array_equal(got_i, [[7, -1, -1]])
        np.testing.assert_array_equal(got_d[:, 1:], np.inf)

    def test_single_shard_identity(self):
        d = np.array([[0.1, 0.4, 0.9]])
        i = np.array([[3, 1, 2]])
        got_d, got_i = merge_topk(d, i, 3)
        np.testing.assert_array_equal(got_d, d)
        np.testing.assert_array_equal(got_i, i)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            merge_topk(np.zeros((2, 4)), np.zeros((2, 3)), 2)

    def test_1d_rejected(self):
        with pytest.raises(ValidationError):
            merge_topk(np.zeros(4), np.zeros(4), 2)

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValidationError):
            merge_topk(np.zeros((1, 6)), np.zeros((1, 6)), k)
