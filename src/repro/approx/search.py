"""Greedy beam search over a built k-NN graph, batched in lockstep.

Online queries against a :class:`~repro.approx.nndescent.GraphIndex`.
The classic best-first graph search (HNSW's layer-0 ``ef`` loop) keeps
a per-query candidate pool; each step expands the nearest unexpanded
pool entry and scores its adjacency list. Run per query in Python that
is all interpreter overhead, so this implementation advances **every
query in the batch one hop at a time**: a hop selects up to ``expand``
unexpanded frontier nodes per query, gathers all their adjacency lists
into one candidate matrix, and evaluates the whole thing with a single
blocked fused call (:func:`~repro.approx.blockeval.candidate_distances`
— the same norm-trick GEMM the gsknn kernel uses), then folds the
results into the pools with the vectorized dedup-merge. Queries whose
pools are fully expanded drop out of the gather; the hop loop ends when
every query is done (or ``max_hops``).

The hop loop runs in **float32 with int32 ids**: traversal only ranks
candidates, so half-width arithmetic halves the gather/GEMM traffic
and sort widths without touching the answer's precision. Per-query
``visited``/``expanded`` bitmaps over the reference set replace id
dedup sorts: candidates are filtered to never-scored ids before the
fused evaluation, so pools fold with a cheap partition+sort instead of
a full-width id argsort, and no id is ever evaluated twice for the
same query. The bitmaps are one byte per (query, reference) pair, so
:func:`beam_search` internally splits large query sets into row blocks
sized to a fixed state budget (``chunk_rows`` overrides): peak bitmap
memory is O(chunk x n) however many queries arrive, the per-block
results concatenate losslessly (queries never interact), and the
returned :class:`SearchStats` aggregates all blocks.

The ``rerank`` pass is TPU-KNN's approximate-then-rerank split: the
final pool is re-scored **exactly in float64** in one fused evaluation
and the top ``k`` selected from that, so the reported distances carry
full precision and any duplicate pool slots are dropped. With
``rerank=False`` the answer keeps the float32 hop metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.neighbors import KnnResult, merge_topk
from ..core.norms import squared_norms
from ..errors import ValidationError
from ..obs import trace as _trace
from ..obs.metrics import get_registry as _get_registry
from ..validation import as_coordinate_table, check_finite, check_k
from .blockeval import _PANEL_ELEMENTS, candidate_distances
from .nndescent import GraphIndex

__all__ = ["SearchStats", "beam_search"]

#: Default cap on per-call visited/expanded bitmap memory. The state
#: array is one byte per (query row, reference id), so query batches
#: are processed in blocks of ``_STATE_BUDGET_BYTES // (n + 1)`` rows.
_STATE_BUDGET_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class SearchStats:
    """Work accounting for one batched beam search."""

    queries: int
    hops: int
    entry_evals: int
    candidate_evals: int
    rerank_evals: int

    @property
    def total_evals(self) -> int:
        return self.entry_evals + self.candidate_evals + self.rerank_evals

    @property
    def rerank_fraction(self) -> float:
        total = self.total_evals
        return self.rerank_evals / total if total else 0.0


def _hop_distances(
    X17: np.ndarray,
    Q17: np.ndarray,
    Q2a: np.ndarray,
    C: np.ndarray,
) -> np.ndarray:
    """Blocked unmasked float32 hop evaluation.

    ``X17``/``Q17`` are the fused layouts from
    ``GraphIndex.hop_arrays``: the extra column pair (``x^2``, -0.5)
    folds the reference norm into the einsum, so a hop is exactly one
    gather and one batched GEMM. ``C`` is sentinel-padded: padding
    slots gather the virtual infinite-norm row and come back ``+inf``
    with no mask anywhere on the hot path.
    """
    a, L = C.shape
    D = np.empty((a, L), dtype=np.float32)
    d17 = X17.shape[1]
    block = max(64, _PANEL_ELEMENTS // max(L * d17, 1))
    for lo in range(0, a, block):
        hi = min(lo + block, a)
        # np.take on raveled ids hits numpy's contiguous fast path (the
        # 2-D fancy-index gather costs ~2x more), and the batched
        # matmul against (b, d, 1) runs as strided GEMV
        panel = np.take(X17, C[lo:hi].ravel(), axis=0).reshape(
            hi - lo, L, d17
        )
        dots = (panel @ Q17[lo:hi, :, None])[:, :, 0]
        Db = Q2a[lo:hi, None] - 2.0 * dots
        np.maximum(Db, 0.0, out=Db)
        D[lo:hi] = Db
    return D


def _pool_topk(
    cat_d: np.ndarray, cat_i: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest ``width`` columns of each row, sorted ascending.

    The hop-path pool fold: inputs are already duplicate-free across
    pool/candidates (the visited bitmap guarantees it), so no id
    argsort — just a partition and a short sort.
    """
    if cat_d.shape[1] > width:
        part = np.argpartition(cat_d, width - 1, axis=1)[:, :width]
        cat_d = np.take_along_axis(cat_d, part, axis=1)
        cat_i = np.take_along_axis(cat_i, part, axis=1)
    order = np.argsort(cat_d, axis=1, kind="stable")
    return (
        np.take_along_axis(cat_d, order, axis=1),
        np.take_along_axis(cat_i, order, axis=1),
    )


def _search_block(
    index: GraphIndex,
    Q: np.ndarray,
    k: int,
    ef: int,
    expand: int,
    max_hops: int,
    rerank: bool,
) -> tuple[np.ndarray, np.ndarray, int, int, int, int]:
    """One bounded block of queries through the full seed/hop/select
    pipeline. Returns ``(out_d, out_i, hops, entry_evals,
    candidate_evals, rerank_evals)``; blocks are independent (queries
    never interact), so callers concatenate results losslessly."""
    n = index.n
    m = Q.shape[0]
    X17, N33 = index.hop_arrays()
    Q32 = np.ascontiguousarray(Q, dtype=np.float32)
    Q2_32 = squared_norms(Q32)
    Q17 = np.concatenate(
        [Q32, np.full((m, 1), -0.5, dtype=np.float32)], axis=1
    )
    sent = np.int32(n)  # the sentinel id (see GraphIndex.hop_arrays)

    # --- seed every pool from the index's fixed entry points: one
    # sgemm against the cached fused panel (norm column folded in)
    E32, XE17 = index.entry_arrays()
    D0 = Q2_32[:, None] - 2.0 * (Q17 @ XE17.T)
    entry_evals = m * E32.size
    pool_d, pool_i = _pool_topk(
        D0, np.broadcast_to(E32, (m, E32.size)), ef
    )
    np.maximum(pool_d, 0.0, out=pool_d)
    if pool_d.shape[1] < ef:
        pad = ef - pool_d.shape[1]
        pool_d = np.concatenate(
            [pool_d, np.full((m, pad), np.inf, dtype=pool_d.dtype)],
            axis=1,
        )
        pool_i = np.concatenate(
            [pool_i, np.full((m, pad), sent, dtype=np.int32)],
            axis=1,
        )

    # one byte of state per (query, reference id): 0 = untouched,
    # 1 = scored (never score twice), 3 = scored + adjacency
    # fetched (a pool slot is frontier until then). Only pool ids
    # are marked at seed time — rejected entry points can in
    # principle be re-scored by a hop, which is cheaper than
    # scattering the whole entry panel into the bitmap. Width n+1:
    # the sentinel column absorbs padding reads and writes.
    state = np.zeros((m, n + 1), dtype=np.uint8)
    rows = np.arange(m)
    pf = pool_i.ravel()
    pok = pf != sent
    prr = np.repeat(rows, pool_i.shape[1])
    state[prr[pok], pf[pok]] = 1
    hops = 0
    candidate_evals = 0
    done = np.zeros(m, dtype=bool)
    width = N33.shape[1]
    rep_expand = np.repeat(rows, expand)
    rep_cols = np.repeat(rows, expand * width)
    for hop in range(max_hops):
        frontier = np.isfinite(pool_d) & (
            state[rows[:, None], pool_i] < 2
        )
        has_frontier = frontier.any(axis=1)
        # the classic ef-search stop: once a query's pool is full
        # and its nearest unexpanded candidate is farther than its
        # worst pool entry, expanding cannot improve the pool
        first_col = np.argmax(frontier, axis=1)
        nearest_frontier = np.where(
            has_frontier, pool_d[rows, first_col], np.inf
        )
        done |= ~has_frontier | (nearest_frontier > pool_d[:, ef - 1])
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        hops = hop + 1
        # while every query is live (the common case in the short
        # latency-tuned hop budgets), skip the row-subset copies
        full = active.size == m
        f_act = frontier if full else frontier[active]
        # pools are sorted ascending, so a stable sort of the
        # not-frontier mask lists each row's nearest unexpanded
        # slots first
        cols = np.argsort(~f_act, axis=1, kind="stable")[:, :expand]
        chosen_ok = np.take_along_axis(f_act, cols, axis=1)
        hubs = np.take_along_axis(
            pool_i if full else pool_i[active], cols, axis=1
        )
        hubs = np.where(chosen_ok, hubs, sent)
        act_rep = rep_expand if full else np.repeat(active, expand)
        hub_flat = hubs.ravel()
        hub_ok = hub_flat != sent
        state[act_rep[hub_ok], hub_flat[hub_ok]] = 3
        # sentinel hubs gather the sentinel's self-adjacency, so no
        # masking: padding propagates through the gather untouched
        C = N33[hubs].reshape(active.size, -1)
        # drop every candidate this query has already scored
        seen = state[(rows if full else active)[:, None], C] != 0
        C = np.where(seen, sent, C)
        c_flat = C.ravel()
        c_ok = c_flat != sent
        evals = int(c_ok.sum())
        candidate_evals += evals
        arep = rep_cols if full else np.repeat(active, C.shape[1])
        state[arep[c_ok], c_flat[c_ok]] = 1
        with _trace.span(
            "approx.search.hop",
            hop=hop,
            active=int(active.size),
            candidates=evals,
        ):
            D = _hop_distances(
                X17,
                Q17 if full else Q17[active],
                Q2_32 if full else Q2_32[active],
                C,
            )
            new_d, new_i = _pool_topk(
                np.concatenate(
                    [pool_d if full else pool_d[active], D], axis=1
                ),
                np.concatenate(
                    [pool_i if full else pool_i[active], C], axis=1
                ),
                ef,
            )
        if full:
            pool_d, pool_i = new_d, new_i
        else:
            pool_d[active] = new_d
            pool_i[active] = new_i

    # --- select the answer from the pool
    rerank_evals = 0
    pool_ip = np.where(pool_i == sent, -1, pool_i).astype(np.intp)
    if rerank:
        rerank_evals = int((pool_ip >= 0).sum())
        X2 = index.squared_norms()
        Q2 = squared_norms(Q)
        D = candidate_distances(index.X, Q, pool_ip, X2=X2, Q2=Q2)
        out_d, out_i = merge_topk(D, pool_ip, k)
    else:
        out_d, out_i = merge_topk(pool_d.astype(np.float64), pool_ip, k)
    return out_d, out_i, hops, entry_evals, candidate_evals, rerank_evals


def beam_search(
    index: GraphIndex,
    Q: np.ndarray,
    k: int,
    *,
    ef: int | None = None,
    expand: int = 4,
    max_hops: int | None = None,
    rerank: bool = True,
    validate: bool = True,
    return_stats: bool = False,
    chunk_rows: int | None = None,
) -> KnnResult | tuple[KnnResult, SearchStats]:
    """Approximate k nearest neighbors of query rows ``Q`` via the graph.

    Parameters
    ----------
    ef:
        Candidate pool width (>= k; default ``max(2 * k, 32)``). The
        recall/latency knob: the planner's calibrated operating points
        are ef values.
    expand:
        Frontier nodes expanded per query per hop. Each hop is one
        fused evaluation of ``expand * adjacency_width`` candidates per
        active query.
    max_hops:
        Hop budget (default ``max(8, 2 * log2(n))``); search usually
        terminates earlier, when every pool entry has been expanded.
    rerank:
        Re-score the final pool exactly in one fused pass before
        selecting the top k (see module docstring).
    chunk_rows:
        Query rows searched per block (each block's visited bitmap is
        ``chunk_rows x (n + 1)`` bytes). Default: sized so the bitmap
        stays within a fixed ~64 MiB budget. Blocks are independent, so
        the answer is identical at any chunking.
    """
    Q = np.atleast_2d(np.asarray(Q))
    if validate:
        Q = as_coordinate_table(Q)
        check_finite(Q)
    else:
        Q = np.asarray(Q, dtype=np.float64)
    if Q.shape[1] != index.d:
        raise ValidationError(
            f"query width {Q.shape[1]} != index dimension {index.d}"
        )
    n = index.n
    k = check_k(k, n)
    if ef is None:
        ef = max(2 * k, 32)
    ef = int(ef)
    if ef < k:
        raise ValidationError(f"ef ({ef}) must be >= k ({k})")
    if expand < 1:
        raise ValidationError(f"expand must be >= 1, got {expand}")
    if max_hops is None:
        max_hops = max(8, int(2 * np.log2(max(n, 2))))
    if max_hops < 0:
        raise ValidationError(f"max_hops must be >= 0, got {max_hops}")
    if chunk_rows is None:
        chunk_rows = max(1, _STATE_BUDGET_BYTES // (n + 1))
    elif chunk_rows < 1:
        raise ValidationError(f"chunk_rows must be >= 1, got {chunk_rows}")

    m = Q.shape[0]
    registry = _get_registry()
    n_blocks = -(-m // chunk_rows) if m else 1
    with _trace.span(
        "approx.search", queries=m, k=k, ef=ef, expand=expand,
        blocks=n_blocks,
    ):
        hops = 0
        entry_evals = candidate_evals = rerank_evals = 0
        parts_d: list[np.ndarray] = []
        parts_i: list[np.ndarray] = []
        for lo in range(0, max(m, 1), chunk_rows):
            block_d, block_i, b_hops, b_entry, b_cand, b_rerank = (
                _search_block(
                    index, Q[lo : lo + chunk_rows], k, ef, expand,
                    max_hops, rerank,
                )
            )
            parts_d.append(block_d)
            parts_i.append(block_i)
            # evals sum across blocks; hops is the longest chain any
            # query walked, which max preserves
            hops = max(hops, b_hops)
            entry_evals += b_entry
            candidate_evals += b_cand
            rerank_evals += b_rerank
        out_d = parts_d[0] if len(parts_d) == 1 else np.concatenate(parts_d)
        out_i = parts_i[0] if len(parts_i) == 1 else np.concatenate(parts_i)

        stats = SearchStats(
            queries=m,
            hops=hops,
            entry_evals=entry_evals,
            candidate_evals=candidate_evals,
            rerank_evals=rerank_evals,
        )
        if registry.enabled:
            registry.inc("approx.search.queries", m)
            registry.inc("approx.search.candidates", stats.candidate_evals)
            registry.observe("approx.search.hops", stats.hops)
            registry.observe("approx.search.beam_width", ef)
            registry.gauge("approx.search.rerank_fraction").set(
                stats.rerank_fraction
            )
    result = KnnResult(out_d, out_i)
    if return_stats:
        return result, stats
    return result
