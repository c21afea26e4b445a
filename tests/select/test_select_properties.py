"""Property-based tests: all selection algorithms agree with sorting."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.arena import WorkspaceArena
from repro.select import (
    ArenaNeighborLists,
    BinaryMaxHeap,
    DHeap,
    heap_select_smallest,
    merge_select,
    quickselect_smallest,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def values_and_k(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    values = draw(
        arrays(np.float64, shape=n, elements=finite_floats)
    )
    k = draw(st.integers(min_value=1, max_value=n))
    return values, k


@given(values_and_k())
@settings(max_examples=80, deadline=None)
def test_heap_select_matches_sort(data):
    values, k = data
    got, _ = heap_select_smallest(values, k)
    np.testing.assert_allclose(got, np.sort(values)[:k])


@given(values_and_k(), st.sampled_from([3, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_dheap_select_matches_sort(data, arity):
    values, k = data
    got, _ = heap_select_smallest(values, k, arity=arity)
    np.testing.assert_allclose(got, np.sort(values)[:k])


@given(values_and_k())
@settings(max_examples=80, deadline=None)
def test_quickselect_matches_sort(data):
    values, k = data
    got, _ = quickselect_smallest(values, k)
    np.testing.assert_allclose(got, np.sort(values)[:k])


@given(values_and_k())
@settings(max_examples=80, deadline=None)
def test_merge_select_matches_sort(data):
    values, k = data
    got, _ = merge_select(values, k)
    np.testing.assert_allclose(got, np.sort(values)[:k])


@given(
    st.integers(min_value=1, max_value=8),   # k
    st.lists(                                 # a stream of update batches
        st.lists(finite_floats, min_size=1, max_size=20),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_heap_invariant_under_arbitrary_streams(k, batches):
    heap = BinaryMaxHeap(k)
    dheap = DHeap(k, arity=4)
    everything = []
    ident = 0
    for batch in batches:
        for value in batch:
            heap.update(value, ident)
            dheap.update(value, ident)
            everything.append(value)
            ident += 1
        assert heap.is_valid()
        assert dheap.is_valid()
    want = np.sort(np.array(everything))[:k]
    got = heap.sorted_pairs()[0][: len(want)]
    np.testing.assert_allclose(got, want)
    np.testing.assert_allclose(dheap.sorted_pairs()[0][: len(want)], want)


@given(
    st.integers(min_value=1, max_value=5),    # m
    st.integers(min_value=1, max_value=6),    # k
    st.integers(min_value=1, max_value=40),   # n
    st.integers(min_value=1, max_value=11),   # block width
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_batched_lists_match_heaps_for_any_blocking(m, k, n, width, random):
    rng = np.random.default_rng(random.randint(0, 2**31))
    values = rng.random((m, n))
    lists = ArenaNeighborLists(m, k, WorkspaceArena())
    heaps = [BinaryMaxHeap(k) for _ in range(m)]
    for start in range(0, n, width):
        block = values[:, start : start + width]
        ids = np.arange(start, start + block.shape[1])
        lists.update(0, block, ids)
        for i in range(m):
            heaps[i].update_many(block[i], ids)
    dist, _ = lists.sorted()
    for i in range(m):
        np.testing.assert_allclose(dist[i], heaps[i].sorted_pairs()[0])
