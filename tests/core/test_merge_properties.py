"""Property-based tests for neighbor-list merging."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbors import KnnResult, merge_neighbor_lists

from ..conftest import loop_merge


@st.composite
def consistent_lists(draw):
    """Two (m, k) lists over a shared (id -> distance) table, with some
    overlap and some unfilled slots — the solvers' exact situation."""
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    pool = rng.random(64)

    def make():
        dist = np.full((m, k), np.inf)
        idx = np.full((m, k), -1, dtype=np.intp)
        for i in range(m):
            fill = int(rng.integers(0, k + 1))
            ids = rng.choice(64, size=fill, replace=False)
            order = np.argsort(pool[ids])
            dist[i, :fill] = pool[ids][order]
            idx[i, :fill] = ids[order]
        return KnnResult(dist, idx)

    return make(), make(), pool


@given(consistent_lists())
@settings(max_examples=80, deadline=None)
def test_fast_merge_matches_slow_merge(data):
    a, b, _pool = data
    slow = loop_merge(a, b)
    fast = merge_neighbor_lists(a, b)
    np.testing.assert_array_equal(fast.distances, slow.distances)
    np.testing.assert_array_equal(fast.indices, slow.indices)


@given(consistent_lists())
@settings(max_examples=60, deadline=None)
def test_merge_is_commutative(data):
    a, b, _ = data
    ab = merge_neighbor_lists(a, b)
    ba = merge_neighbor_lists(b, a)
    np.testing.assert_allclose(ab.distances, ba.distances)


@given(consistent_lists())
@settings(max_examples=60, deadline=None)
def test_merge_is_idempotent(data):
    a, b, _ = data
    once = merge_neighbor_lists(a, b)
    twice = merge_neighbor_lists(once, b)
    np.testing.assert_allclose(once.distances, twice.distances)


@given(consistent_lists())
@settings(max_examples=60, deadline=None)
def test_merge_never_worsens_any_slot(data):
    a, b, _ = data
    merged = merge_neighbor_lists(a, b)
    # row-wise: merged slot j is <= both inputs' slot j (sorted lists)
    a_sorted = np.sort(a.distances, axis=1)
    merged_sorted = np.sort(merged.distances, axis=1)
    assert (merged_sorted <= a_sorted + 1e-12).all()


@given(consistent_lists())
@settings(max_examples=60, deadline=None)
def test_merged_ids_unique_per_row(data):
    a, b, _ = data
    merged = merge_neighbor_lists(a, b)
    for i in range(merged.m):
        real = [j for j in merged.indices[i] if j >= 0]
        assert len(real) == len(set(real))
