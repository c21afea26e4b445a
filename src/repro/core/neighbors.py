"""Neighbor-list result container and merge utilities.

Every kernel returns a :class:`KnnResult`: per-query distances and
*global* reference ids (values of the caller's ``r_idx``, exactly like
the paper's ``N(i, :)`` holds global indices ``r(j)``). The approximate
outer solvers (:mod:`repro.trees`) repeatedly merge kernel results from
different groupings — :func:`merge_neighbor_lists` implements that
update with id-level deduplication so a reference seen in two iterations
cannot occupy two slots of the same list. Every merge is
:func:`~repro.select.vectorized.merge_topk`: ``(distance, id)`` order,
ids deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..select.vectorized import merge_topk

__all__ = [
    "KnnResult",
    "merge_neighbor_lists",
    "merge_topk",
    "intersection_counts",
    "recall",
]


@dataclass(frozen=True)
class KnnResult:
    """k nearest neighbors for ``m`` queries.

    Attributes
    ----------
    distances:
        ``(m, k)`` float64, each row ascending. Squared distances for
        the l2 kernel; natural distances otherwise. Unfilled slots (only
        possible mid-iteration in approximate solvers) hold ``+inf``.
    indices:
        ``(m, k)`` intp of global reference ids; ``-1`` marks unfilled.
    """

    distances: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        dist = np.asarray(self.distances, dtype=np.float64)
        idx = np.asarray(self.indices, dtype=np.intp)
        if dist.ndim != 2 or dist.shape != idx.shape:
            raise ValidationError(
                f"distances {dist.shape} and indices {idx.shape} must be "
                "equal 2-D shapes"
            )
        object.__setattr__(self, "distances", dist)
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return self.distances.shape[0]

    @property
    def k(self) -> int:
        return self.distances.shape[1]

    def is_sorted(self) -> bool:
        # direct comparison, not np.diff: inf - inf is nan, but
        # inf >= inf is True (unfilled tails are legitimately "sorted")
        return bool(
            (self.distances[:, 1:] >= self.distances[:, :-1]).all()
        )

    def sorted(self) -> "KnnResult":
        """Rows re-sorted ascending by distance (stable)."""
        order = np.argsort(self.distances, axis=1, kind="stable")
        rows = np.arange(self.m)[:, None]
        return KnnResult(self.distances[rows, order], self.indices[rows, order])

    def save(self, path) -> "Path":
        """Persist to an ``.npz`` archive (see :meth:`load`)."""
        from pathlib import Path

        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        np.savez_compressed(
            path, distances=self.distances, indices=self.indices
        )
        return path

    @classmethod
    def load(cls, path) -> "KnnResult":
        """Reload a result written by :meth:`save`."""
        from pathlib import Path

        path = Path(path)
        if not path.exists():
            raise ValidationError(f"result file not found: {path}")
        with np.load(path) as archive:
            if "distances" not in archive or "indices" not in archive:
                raise ValidationError(f"{path} is not a KnnResult archive")
            return cls(archive["distances"], archive["indices"])


def merge_neighbor_lists(a: KnnResult, b: KnnResult) -> KnnResult:
    """Merge two neighbor lists for the same queries, deduplicating ids.

    Keeps, per query, the k smallest ``(distance, id)`` pairs over the
    union of both lists, counting each reference id at most once (the
    smaller distance wins). ``-1`` (unfilled) entries never win over
    real candidates. A :class:`KnnResult` view of :func:`merge_topk`.
    """
    if a.distances.shape != b.distances.shape:
        raise ValidationError(
            f"cannot merge neighbor lists of shapes {a.distances.shape} "
            f"and {b.distances.shape}"
        )
    return KnnResult(
        *merge_topk(
            np.concatenate([a.distances, b.distances], axis=1),
            np.concatenate([a.indices, b.indices], axis=1),
            a.k,
        )
    )


def intersection_counts(want: np.ndarray, got: np.ndarray) -> np.ndarray:
    """Per-row ``|set(want[i]) & set(got[i])|`` for two 2-D id arrays.

    Set semantics: duplicates within a row collapse, and any shared
    value — including the ``-1`` sentinel — counts once. Vectorized by
    offsetting each row's ids into a disjoint range so one global
    membership test answers every row at once.
    """
    if want.ndim != 2 or got.ndim != 2 or want.shape[0] != got.shape[0]:
        raise ValidationError(
            f"want {want.shape} and got {got.shape} must be 2-D with "
            "equal row counts"
        )
    m = want.shape[0]
    if m == 0 or want.shape[1] == 0 or got.shape[1] == 0:
        return np.zeros(m, dtype=np.int64)
    lo = int(min(want.min(), got.min()))
    span = int(max(want.max(), got.max())) - lo + 1
    base = np.arange(m, dtype=np.int64)[:, None] * span
    w = want.astype(np.int64) - lo + base
    g = got.astype(np.int64) - lo + base
    sw = np.sort(w, axis=1)
    dup = np.zeros(sw.shape, dtype=bool)
    dup[:, 1:] = sw[:, 1:] == sw[:, :-1]
    hits = np.isin(sw, g) & ~dup
    return hits.sum(axis=1, dtype=np.int64)


def recall(candidate: KnnResult, truth: KnnResult) -> float:
    """Mean fraction of true neighbors present in the candidate lists.

    The standard accuracy metric for approximate all-NN solvers; id-based
    (hit iff the true neighbor's id appears anywhere in the row).
    """
    if candidate.indices.shape != truth.indices.shape:
        raise ValidationError(
            "candidate and truth must have identical shapes, got "
            f"{candidate.indices.shape} and {truth.indices.shape}"
        )
    m, k = truth.indices.shape
    hits = int(intersection_counts(truth.indices, candidate.indices).sum())
    return hits / (m * k)
