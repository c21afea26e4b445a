"""Vectorized, batched neighbor-list maintenance — the numpy fast path.

The scalar heaps in :mod:`repro.select.heap` reproduce the paper's
per-query max-heap semantics exactly, but looping them per candidate from
Python would bury the algorithm in interpreter overhead. This module is
the numpy analogue GSKNN's fast path uses: all ``m`` query rows are
updated *as a batch* against a tile of candidate distances, with the two
ingredients the paper's fused kernel depends on preserved:

* **root filter / early discard** — a per-row threshold (the worst
  retained pair, i.e. the heap root) rejects whole rows of a candidate
  tile with one reduction and the rest with one vectorized compare;
  nothing that fails it is ever copied;
* **O(k + survivors) update** — the few surviving candidates of a row are
  merged with its retained list in a narrow strip instead of the whole
  tile width.

Every list is kept in ``(distance, id)`` lexicographic order: a row holds
the k smallest pairs of that order seen so far, so equal distances are
resolved by ascending reference id on every path. :func:`select_topk`
picks a row's k best pairs in that order and :func:`merge_topk`, the one
top-k merge, adds id deduplication (see docs/PERF.md, "Tie order").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

__all__ = ["ArenaNeighborLists", "merge_topk", "select_topk"]


def _lex_order(values: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Column order of each row's first ``k`` pairs in ``(value, id)`` order.

    The k + 1 smallest values (of a row wider than twice that) are
    partitioned off and sorted by value, which is exact for rows with
    no equal finite values among them. Only
    rows with such ties take every value up to their k-th and sort those
    by id as well. Equal ``+inf`` entries are padding and stay unordered.
    """
    m, w = values.shape
    k = min(k, w)
    rows = np.arange(m)[:, None]
    if w > 2 * (k + 1):
        order = np.argpartition(values, k, axis=1)[:, : k + 1]
        order = order[rows, np.argsort(values[rows, order], axis=1)]
    else:
        order = np.argsort(values, axis=1)
    head = values[rows, order]
    tied = (head[:, 1:] == head[:, :-1]) & (head[:, 1:] < np.inf)
    tie_rows = np.flatnonzero(tied.any(axis=1))
    if tie_rows.size:
        sub_values = values[tie_rows]
        kth = head[tie_rows, k - 1 : k]
        width = int((sub_values <= kth).sum(axis=1).max())
        if width < w:
            sub = np.argpartition(sub_values, width - 1, axis=1)[:, :width]
        else:
            sub = np.broadcast_to(np.arange(w), sub_values.shape)
        fix = np.lexsort(
            (
                ids[tie_rows[:, None], sub],
                np.take_along_axis(sub_values, sub, axis=1),
            ),
            axis=1,
        )
        order[tie_rows, :k] = np.take_along_axis(sub, fix[:, :k], axis=1)
    return order[:, :k]


def select_topk(
    values: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest ``(value, id)`` pairs of each row, in that order.

    ``ids`` is ``(m, W)`` or one length-``W`` vector shared by every row.
    The pairs are a multiset: a repeated id may fill several slots (see
    :func:`merge_topk` for the deduplicating merge).
    """
    if ids.ndim == 1:
        ids = np.broadcast_to(ids, values.shape)
    order = _lex_order(values, ids, k)
    rows = np.arange(values.shape[0])[:, None]
    return values[rows, order], ids[rows, order]


def merge_topk(
    distances: np.ndarray, indices: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-``k`` of concatenated neighbor lists, ids deduplicated.

    ``distances`` / ``indices`` are ``(m, W)``: any number of lists for
    the same ``m`` queries laid side by side (shard partials, an old and
    a new solve, a pool and a batch of candidates). Each id counts once
    per row — the smaller distance wins — ``-1`` marks an empty slot that
    never beats a real candidate, and the result is the ``k`` smallest
    pairs in ``(distance, id)`` order, padded with ``(+inf, -1)`` where a
    row has fewer than ``k`` distinct candidates.
    """
    dist = np.asarray(distances, dtype=np.float64)
    ids = np.asarray(indices)
    if dist.ndim != 2 or dist.shape != ids.shape:
        raise ValidationError(
            "distances/indices must be matching 2-D arrays, got "
            f"{dist.shape} and {ids.shape}"
        )
    width = dist.shape[1]
    if k < 1 or k > width:
        raise ValidationError(f"k must be in [1, {width}], got {k}")
    ids = ids.astype(np.intp, copy=False)
    dist = np.where(ids < 0, np.inf, dist)
    # group each row's copies of an id, then give each group's first slot
    # the group's smallest distance and blank the rest
    rows = np.arange(dist.shape[0])[:, None]
    by_id = np.argsort(ids, axis=1, kind="stable")
    ids = ids[rows, by_id]
    starts = np.ones(ids.shape, dtype=bool)
    starts[:, 1:] = ids[:, 1:] != ids[:, :-1]
    starts = np.flatnonzero(starts)  # column 0 always starts: no run spans rows
    group_min = np.minimum.reduceat(dist[rows, by_id].ravel(), starts)
    dist = np.full(ids.shape, np.inf)
    dist.ravel()[starts] = group_min
    out_d, out_i = select_topk(dist, ids, k)
    out_i[np.isinf(out_d)] = -1
    return out_d, out_i


@dataclass
class BlockUpdateStats:
    """Tallies of the early-discard filter's effectiveness.

    ``rows_offered`` / ``rows_merged`` count row-tiles seen vs. row-tiles
    that had at least one surviving candidate; their gap is distance data
    discarded straight from "registers" (never concatenated, never
    partitioned) — the memory saving at the heart of Var#1.
    """

    rows_offered: int = 0
    rows_merged: int = 0
    candidates_offered: int = 0
    candidates_surviving: int = 0

    @property
    def discard_fraction(self) -> float:
        """Fraction of candidate distances rejected by the root filter."""
        if self.candidates_offered == 0:
            return 0.0
        return 1.0 - self.candidates_surviving / self.candidates_offered


class ArenaNeighborLists:
    """(m, k) neighbor lists updated tile-by-tile with a root filter.

    The structure the fused kernel threads through Algorithm 2.2's loop
    nest: ``update`` consumes one tile of distances (a row-slice of
    queries x a column-block of references) and folds it into the
    retained lists. All state lives in a
    :class:`~repro.core.arena.WorkspaceArena`, so repeated executions
    reuse the same buffers.

    Rows stay sorted in ``(distance, id)`` order, so a row's threshold is
    its last pair ``(d_k, id_k)`` and a candidate ``(d, id)`` enters iff
    ``(d, id) < (d_k, id_k)``. An open row — one not yet full — has no
    such threshold; its bound is then the tile's own k-th smallest
    distance, since k candidates of the tile already beat anything
    farther. Survivors are extracted with one ``tile <= threshold``
    compare, scattered into a narrow strip and merged with the row.

    The candidate stream is a multiset: a reference id passed twice (a
    duplicated ``r_idx`` entry) may fill two slots. Only :meth:`seed`ed
    lists deduplicate, against the seed. ``root_filter=False`` (Var#5's
    wholesale slab merge) treats every row as open.
    """

    def __init__(
        self, m: int, k: int, arena, *, root_filter: bool = True
    ) -> None:
        if m < 1 or k < 1:
            raise ValidationError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
        self.m = int(m)
        self.k = int(k)
        self._arena = arena
        self._root_filter = bool(root_filter)
        self.values = arena.take_c("lists.values", (m, k), np.float64)
        self.values.fill(np.inf)
        self.ids = arena.take_c("lists.ids", (m, k), np.intp)
        self.ids.fill(-1)
        self._dedup = False
        # set when a dedup overwrite changed a seeded value
        self.seed_changed = False
        self.stats = BlockUpdateStats()

    def seed(self, distances: np.ndarray, indices: np.ndarray) -> None:
        """Start from existing ``(m, k)`` lists (the kernel's update semantics).

        Candidates then merge directly into the seed, so no separate
        merge pass against it is needed. Seeding switches the lists into
        dedup mode: a candidate whose id already sits in its row (the
        same pair, recomputed by the exact kernel over one table) must
        not enter twice. Unfilled seed slots are ``(+inf, -1)``.
        """
        if distances.shape != (self.m, self.k):
            raise ValidationError(
                f"seed must be shape ({self.m}, {self.k}), got {distances.shape}"
            )
        dist = np.where(indices < 0, np.inf, distances)
        self.values[:], self.ids[:] = select_topk(
            dist, np.asarray(indices), self.k
        )
        self.ids[np.isinf(self.values)] = -1
        # an all-empty seed has nothing to deduplicate against
        self._dedup = bool((self.ids >= 0).any())

    def update(
        self,
        row_start: int,
        cand_values: np.ndarray,
        cand_ids: np.ndarray,
    ) -> None:
        """Fold a (m_b, n_b) tile of candidates into rows starting at ``row_start``.

        ``cand_ids`` is the length-``n_b`` global reference-id vector for
        the tile's columns.
        """
        cand_values = np.asarray(cand_values, dtype=np.float64)
        if cand_values.ndim != 2:
            raise ValidationError("candidate tile must be 2-D")
        m_b, n_b = cand_values.shape
        if row_start < 0 or row_start + m_b > self.m:
            raise ValidationError(
                f"rows [{row_start}, {row_start + m_b}) out of range for m={self.m}"
            )
        cand_ids = np.asarray(cand_ids, dtype=np.intp).ravel()
        if cand_ids.size != n_b:
            raise ValidationError(
                f"tile has {n_b} columns but {cand_ids.size} reference ids"
            )
        k = self.k
        rows = slice(row_start, row_start + m_b)
        self.stats.rows_offered += m_b
        self.stats.candidates_offered += m_b * n_b

        if self._root_filter:
            thr = self.values[rows, k - 1].copy()
        else:
            thr = np.full(m_b, np.inf)
        is_open = thr == np.inf
        open_rows = np.flatnonzero(is_open)
        if open_rows.size and n_b > k:
            # An open row's bound is the tile's own k-th smallest distance:
            # k candidates of this tile already beat anything farther.
            if open_rows.size < m_b:
                thr[open_rows] = np.partition(
                    cand_values[open_rows], k - 1, axis=1
                )[:, k - 1]
            else:
                # every row open (a first tile, a Var#5 slab, Var#6
                # rows): the first k of a partition at k are exactly the
                # survivors unless the (k+1)-th smallest ties the k-th
                part = np.argpartition(cand_values, k, axis=1)
                picked = cand_values[np.arange(m_b)[:, None], part[:, : k + 1]]
                thr = picked[:, :k].max(axis=1)
                if not self._dedup and (picked[:, k] > thr).all():
                    self.stats.rows_merged += m_b
                    self.stats.candidates_surviving += m_b * k
                    self._fold(
                        np.arange(row_start, row_start + m_b),
                        picked[:, :k],
                        cand_ids[part[:, :k]],
                    )
                    return

        # Stage 1: a row whose best candidate does not reach its threshold
        # is discarded whole, at one reduction's cost; rows are then
        # masked only where a survivor is possible.
        live = None
        if open_rows.size < m_b:
            live = np.flatnonzero(cand_values.min(axis=1) <= thr)
            if live.size == 0:
                return
            if 2 * live.size >= m_b:
                # dense-live tile: a dead row yields no survivors anyway,
                # so mask the whole tile and skip the subset copy
                live = None
        if live is None:
            target, t = cand_values, thr
        else:
            target, t = cand_values[live], thr[live]
        mask = self._arena.take_c("lists.mask", target.shape, np.bool_)
        np.less_equal(target, t[:, None], out=mask)
        # flatnonzero on the dense mask is several times faster than the
        # generic 2-D nonzero, and divmod keeps the row-major order
        surv_rows, surv_cols = np.divmod(np.flatnonzero(mask), n_b)
        if live is not None:
            # `live` is ascending, so row-major grouping is preserved
            surv_rows = live[surv_rows]
        surv_values = cand_values[surv_rows, surv_cols]
        surv_ids = cand_ids[surv_cols]
        # the tie rule at a full row's threshold: an equal distance enters
        # only with a smaller id than the row's worst retained pair
        at = surv_values == thr[surv_rows]
        if at.any():
            worst_id = self.ids[surv_rows + row_start, k - 1]
            keep = ~at | is_open[surv_rows] | (surv_ids < worst_id)
            surv_rows = surv_rows[keep]
            surv_values = surv_values[keep]
            surv_ids = surv_ids[keep]
        if self._dedup and surv_rows.size:
            surv_rows, surv_values, surv_ids = self._drop_seeded(
                row_start, surv_rows, surv_values, surv_ids
            )
        if surv_rows.size == 0:
            return
        # row-major order: survivors group by row without sorting
        counts = np.bincount(surv_rows, minlength=m_b)
        live_rows = np.flatnonzero(counts)
        counts = counts[live_rows]
        self.stats.rows_merged += int(live_rows.size)
        self.stats.candidates_surviving += int(surv_rows.size)

        # Scatter the ragged survivors into a dense strip padded with
        # (+inf, -1), at least k wide, and fold it into the rows.
        nlive = int(live_rows.size)
        width = max(k, int(counts.max()))
        strip_values = self._arena.take_c(
            "lists.strip_values", (nlive, width), np.float64
        )
        strip_ids = self._arena.take_c("lists.strip_ids", (nlive, width), np.intp)
        strip_values.fill(np.inf)
        strip_ids.fill(-1)
        ends = np.cumsum(counts)
        pos = np.arange(surv_rows.size) - np.repeat(ends - counts, counts)
        row_of = np.repeat(np.arange(nlive), counts)
        strip_values[row_of, pos] = surv_values
        strip_ids[row_of, pos] = surv_ids
        self._fold(live_rows + row_start, strip_values, strip_ids)

    def _fold(self, abs_rows, cand_values, cand_ids) -> None:
        """Keep the k best of each row's list and its ``(n, >= k)`` candidates."""
        if (self.ids[abs_rows, 0] >= 0).any():
            cand_values = np.concatenate(
                [self.values[abs_rows], cand_values], axis=1
            )
            cand_ids = np.concatenate([self.ids[abs_rows], cand_ids], axis=1)
        self.values[abs_rows], self.ids[abs_rows] = select_topk(
            cand_values, cand_ids, self.k
        )

    def _drop_seeded(self, row_start, surv_rows, surv_values, surv_ids):
        """Drop survivors whose id is already retained in their row.

        The fresh distance overwrites the retained copy (recomputing a
        pair in a different block can shift the BLAS reduction order by
        an ulp) and the row is re-sorted.
        """
        abs_r = surv_rows + row_start
        eq = self.ids[abs_r] == surv_ids[:, None]
        dup = eq.any(axis=1)
        if not dup.any():
            return surv_rows, surv_values, surv_ids
        at = (abs_r[dup], eq.argmax(axis=1)[dup])
        fresh = surv_values[dup]
        changed = self.values[at] != fresh
        if changed.any():
            self.seed_changed = True
            self.values[at] = fresh
            moved = np.unique(at[0][changed])
            self.values[moved], self.ids[moved] = select_topk(
                self.values[moved], self.ids[moved], self.k
            )
        keep = ~dup
        return surv_rows[keep], surv_values[keep], surv_ids[keep]

    def sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Return copies of (distances, ids), each row in (distance, id) order."""
        return self.values.copy(), self.ids.copy()

    def is_complete(self) -> bool:
        """True when every slot has been filled with a real candidate."""
        return bool((self.ids >= 0).all())
