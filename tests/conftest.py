"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.neighbors import KnnResult


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_cloud(rng) -> np.ndarray:
    """A 300-point, 17-dimensional cloud (odd sizes exercise ragged edges)."""
    return rng.random((300, 17))


def brute_force_knn(
    X: np.ndarray,
    q_idx: np.ndarray,
    r_idx: np.ndarray,
    k: int,
    p: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth kNN: full distance matrix + argsort.

    Returns ``(distances, global_ids)``, rows ascending. Squared l2 for
    p == 2, true p-norm otherwise — the library's distance conventions.
    """
    Q = X[np.asarray(q_idx, dtype=np.intp)]
    R = X[np.asarray(r_idx, dtype=np.intp)]
    diff = np.abs(Q[:, None, :] - R[None, :, :])
    if p == 2.0:
        D = (diff**2).sum(axis=2)
    elif np.isinf(p):
        D = diff.max(axis=2)
    elif p == 1.0:
        D = diff.sum(axis=2)
    else:
        D = (diff**p).sum(axis=2) ** (1.0 / p)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    rows = np.arange(Q.shape[0])[:, None]
    return D[rows, order], np.asarray(r_idx, dtype=np.intp)[order]


def loop_merge(a: KnnResult, b: KnnResult) -> KnnResult:
    """Per-row Python reference: walk the union in (distance, id) order,
    keep each real id's first (smallest) occurrence, stop at k."""
    m, k = a.distances.shape
    dist = np.concatenate([a.distances, b.distances], axis=1)
    idx = np.concatenate([a.indices, b.indices], axis=1)
    out_d = np.full((m, k), np.inf)
    out_i = np.full((m, k), -1, dtype=np.intp)
    for i in range(m):
        seen: set[int] = set()
        pos = 0
        for j in np.lexsort((idx[i], dist[i])):
            ident = int(idx[i, j])
            if ident < 0 or ident in seen:
                continue
            seen.add(ident)
            out_d[i, pos], out_i[i, pos] = dist[i, j], ident
            pos += 1
            if pos == k:
                break
    return KnnResult(out_d, out_i)


def assert_knn_equal(result, truth_dist, truth_ids, X=None, atol=1e-9):
    """Distances must match exactly (up to fp); ids may differ on ties.

    Where distances are tied, any id attaining the tied distance is
    accepted: :func:`brute_force_knn` orders ties by position in
    ``r_idx``, the kernels by id (tests/core/test_tie_order.py pins the
    ids).
    """
    got = np.sort(result.distances, axis=1)
    want = np.sort(truth_dist, axis=1)
    np.testing.assert_allclose(got, want, atol=atol)
    # every reported id must actually attain its reported distance
    if X is not None:
        for i in range(result.m):
            for dist, ident in zip(result.distances[i], result.indices[i]):
                assert ident >= 0
