"""Chunked merge-sort selection (paper §2.2, "Merge sort").

The candidate stream is cut into ``ceil(n/k)`` chunks of length ``k``;
each chunk is sorted (k log k) and merged into the running neighbor list,
keeping only the first ``k`` elements at every merge. Complexity is
Theta(n log k) in best *and* worst case, with perfectly sequential memory
access (the property that makes it bitonic-merge vectorizable on SIMD
hardware). The paper rejects it for GSKNN because the fixed log k factor
is too expensive for the small-``n`` updates the fused kernel performs,
and because updating an existing list always costs O(k log k).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .counters import SelectionStats

__all__ = ["merge_select", "merge_sorted_lists"]


def merge_sorted_lists(
    a_values: np.ndarray,
    a_ids: np.ndarray,
    b_values: np.ndarray,
    b_ids: np.ndarray,
    k: int,
    *,
    stats: SelectionStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two ascending (value, id) lists, keeping the k smallest.

    The scalar two-finger merge; every step is one comparison plus one
    sequential move, which is what a bitonic merge network vectorizes.
    """
    stats = stats if stats is not None else SelectionStats()
    out_n = min(k, a_values.size + b_values.size)
    out_values = np.empty(out_n, dtype=np.float64)
    out_ids = np.empty(out_n, dtype=np.intp)
    i = j = 0
    for pos in range(out_n):
        take_a = j >= b_values.size or (
            i < a_values.size and a_values[i] <= b_values[j]
        )
        if i < a_values.size and j < b_values.size:
            stats.comparisons += 1
        stats.sequential_accesses += 1
        stats.moves += 1
        if take_a:
            out_values[pos] = a_values[i]
            out_ids[pos] = a_ids[i]
            i += 1
        else:
            out_values[pos] = b_values[j]
            out_ids[pos] = b_ids[j]
            j += 1
    return out_values, out_ids


def merge_select(
    values: np.ndarray,
    k: int,
    *,
    stats: SelectionStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Select the ``k`` smallest values (and positions), sorted ascending.

    Implements the paper's chunked scheme: sort k-length chunks, then fold
    them into the running top-k list one merge at a time.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if k < 1 or k > values.size:
        raise ValidationError(f"k must be in [1, {values.size}], got {k}")
    stats = stats if stats is not None else SelectionStats()
    n = values.size
    ids = np.arange(n, dtype=np.intp)

    best_values: np.ndarray | None = None
    best_ids: np.ndarray | None = None
    for start in range(0, n, k):
        chunk_values = values[start : start + k]
        chunk_ids = ids[start : start + k]
        order = np.argsort(chunk_values, kind="stable")
        # a comparison sort of c elements costs ~c log2 c comparisons
        c = chunk_values.size
        stats.comparisons += int(c * max(np.log2(max(c, 2)), 1))
        stats.sequential_accesses += c
        stats.moves += c
        sorted_values = chunk_values[order]
        sorted_ids = chunk_ids[order]
        if best_values is None:
            best_values, best_ids = sorted_values.copy(), sorted_ids.copy()
        else:
            best_values, best_ids = merge_sorted_lists(
                best_values, best_ids, sorted_values, sorted_ids, k, stats=stats
            )
    assert best_values is not None and best_ids is not None
    return best_values, best_ids
