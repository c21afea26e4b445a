"""Tie-tolerant exact oracle.

Coordinates from :mod:`inputs` are integers once scaled by
``GRID_SCALE``. The oracle works on those integers: squared distances
are integers far below 2**53, so the float64 BLAS products it uses are
exact in any summation order (the bound is checked, not assumed). No
square roots are taken, so nothing rounds.

Neighbor ids are not compared with the oracle's: among equal distances
any id is a correct answer until the program fixes one tie order. A row
is right when its ids are valid and distinct, each reported distance is
the exact distance to its id, and (on exact workloads) the sorted
distances equal the oracle's ``k`` smallest.
"""

from __future__ import annotations

import numpy as np

from inputs import GRID_SCALE


def to_grid_units(A: np.ndarray) -> np.ndarray:
    """``A * GRID_SCALE`` as integer-valued float64; refuses off-grid input."""
    scaled = np.asarray(A, dtype=np.float64) * GRID_SCALE
    snapped = np.rint(scaled)
    if not np.array_equal(snapped, scaled):
        raise ValueError("input is not on the 1/GRID_SCALE grid")
    return snapped


class Oracle:
    """Exact brute-force neighbor distances against one table."""

    def __init__(self, X: np.ndarray, chunk: int = 128) -> None:
        self.Xg = to_grid_units(X)
        self.Xi = self.Xg.astype(np.int64)
        n, d = self.Xg.shape
        peak = float(np.abs(self.Xg).max())
        # |q|^2 + |x|^2 + 2|q.x| <= 4 d peak^2 bounds every intermediate
        if 4.0 * d * peak * peak >= 2.0**53:
            raise ValueError("table magnitude too large for exact float64 sums")
        self.x2 = np.einsum("ij,ij->i", self.Xg, self.Xg)
        self.chunk = chunk

    def kth_sorted(self, Q: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` smallest squared distances of each row of ``Q``, in
        squared grid units, ascending."""
        Qg = to_grid_units(Q)
        out = np.empty((Qg.shape[0], k), dtype=np.float64)
        for s in range(0, Qg.shape[0], self.chunk):
            q = Qg[s : s + self.chunk]
            D = self.x2[None, :] - 2.0 * (q @ self.Xg.T)
            D += np.einsum("ij,ij->i", q, q)[:, None]
            part = np.partition(D, k - 1, axis=1)[:, :k]
            out[s : s + q.shape[0]] = np.sort(part, axis=1)
        return out

    def check(
        self,
        Q: np.ndarray,
        distances: np.ndarray,
        indices: np.ndarray,
        truth: np.ndarray,
        *,
        exact: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(right, recall)`` for one answer.

        ``truth`` is :meth:`kth_sorted` for the same rows. ``recall`` is
        the share of returned neighbors no farther than the true k-th
        distance — id recall that does not penalize a tie broken the
        other way.
        """
        rows, k = indices.shape
        Qi = to_grid_units(Q).astype(np.int64)
        ids = np.asarray(indices)
        in_range = (ids >= 0) & (ids < self.Xi.shape[0])
        valid = in_range.all(axis=1)
        safe = np.where(in_range, ids, 0)
        srt = np.sort(safe, axis=1)
        distinct = (np.diff(srt, axis=1) != 0).all(axis=1)
        diff = self.Xi[safe] - Qi[:, None, :]
        exact_d = np.einsum("rkd,rkd->rk", diff, diff).astype(np.float64)
        reported = np.asarray(distances, dtype=np.float64) * float(GRID_SCALE**2)
        consistent = (exact_d == reported).all(axis=1)
        right = valid & distinct & consistent
        if exact:
            right &= (reported == truth).all(axis=1)
        recall = (np.where(in_range, exact_d, np.inf) <= truth[:, -1:]).sum(
            axis=1
        ) / k
        return right, recall
