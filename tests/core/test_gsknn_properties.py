"""Property-based tests: GSKNN equals brute force for arbitrary shapes."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gsknn import gsknn, gsknn_exact_loops
from repro.core.neighbors import merge_neighbor_lists, KnnResult
from repro.core.ref_kernel import ref_knn
from repro.config import BlockingParams

from ..conftest import brute_force_knn


@st.composite
def knn_problem(draw):
    n_points = draw(st.integers(min_value=2, max_value=60))
    d = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    X = rng.random((n_points, d))
    m = draw(st.integers(min_value=1, max_value=min(20, n_points)))
    n = draw(st.integers(min_value=1, max_value=n_points))
    q = rng.integers(0, n_points, m)
    r = rng.choice(n_points, size=n, replace=False)
    k = draw(st.integers(min_value=1, max_value=n))
    return X, q, r, k


@given(knn_problem(), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=17))
@settings(max_examples=60, deadline=None)
def test_gsknn_matches_brute_force_any_blocking(problem, block_m, block_n):
    X, q, r, k = problem
    res = gsknn(X, q, r, k, block_m=block_m, block_n=block_n)
    truth_d, _ = brute_force_knn(X, q, r, k)
    np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)
    assert res.is_sorted()


@given(knn_problem(), st.sampled_from([1, 5, 6]))
@settings(max_examples=40, deadline=None)
def test_all_variants_agree(problem, variant):
    X, q, r, k = problem
    res = gsknn(X, q, r, k, variant=variant, block_m=4, block_n=7)
    truth_d, _ = brute_force_knn(X, q, r, k)
    np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)


@given(knn_problem())
@settings(max_examples=30, deadline=None)
def test_ref_kernel_matches_brute_force(problem):
    X, q, r, k = problem
    res = ref_knn(X, q, r, k)
    truth_d, _ = brute_force_knn(X, q, r, k)
    np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)


@given(
    knn_problem(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_exact_loops_any_register_blocking(problem, m_r, n_r, d_c):
    X, q, r, k = problem
    blocking = BlockingParams(
        m_r=m_r, n_r=n_r, d_c=d_c, m_c=max(m_r * 2, 4), n_c=max(n_r * 2, 5)
    )
    res = gsknn_exact_loops(X, q, r, k, blocking=blocking)
    truth_d, _ = brute_force_knn(X, q, r, k)
    np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)


@given(knn_problem(), st.sampled_from([1.0, 2.0, np.inf]))
@settings(max_examples=30, deadline=None)
def test_norms_match_brute_force(problem, p):
    X, q, r, k = problem
    res = gsknn(X, q, r, k, norm=p, block_m=5, block_n=6)
    truth_d, _ = brute_force_knn(X, q, r, k, p=p)
    np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)


@given(knn_problem())
@settings(max_examples=30, deadline=None)
def test_split_reference_merge_equals_whole(problem):
    """min-k associativity: solving reference halves and merging equals
    solving the whole reference set (the invariant behind reference-side
    parallelism and the iterative solvers)."""
    X, q, r, k = problem
    if r.size < 2:
        return
    half = r.size // 2
    if half < 1:
        return
    whole = gsknn(X, q, r, k)

    def padded(sub):
        kk = min(k, sub.size)
        res = gsknn(X, q, sub, kk)
        if kk == k:
            return res
        pad = k - kk
        return KnnResult(
            np.pad(res.distances, ((0, 0), (0, pad)), constant_values=np.inf),
            np.pad(res.indices, ((0, 0), (0, pad)), constant_values=-1),
        )

    merged = merge_neighbor_lists(padded(r[:half]), padded(r[half:]))
    np.testing.assert_allclose(merged.distances, whole.distances, atol=1e-9)


@given(knn_problem(), st.sampled_from([1, 2, 3, 5, 6]))
@settings(max_examples=25, deadline=None)
def test_exact_loops_all_placements_agree(problem, variant):
    """Every executable selection placement of Algorithm 2.2 computes the
    same answer — the paper's refactoring claim, property-tested."""
    X, q, r, k = problem
    res = gsknn_exact_loops(X, q, r, k, variant=variant)
    truth_d, _ = brute_force_knn(X, q, r, k)
    np.testing.assert_allclose(res.distances, truth_d, atol=1e-9)
