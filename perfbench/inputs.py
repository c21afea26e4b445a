"""Seeded input generators: every table, query batch, request and due time.

All randomness lives here, derived from the workload seed; the program
under test only ever receives the generated arrays. Every coordinate is
a multiple of ``1 / GRID_SCALE`` with a small magnitude, so squared
distances are exact in float64 both in the program's GEMM expansion and
in the oracle (see :mod:`oracle`), and ties are real ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Every coordinate is an integer multiple of ``1 / GRID_SCALE``.
GRID_SCALE = 1024


def rngs(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators spawned from one workload seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def grid_with_duplicates(
    rng: np.random.Generator, n: int, d: int, levels: int, dup_share: float
) -> np.ndarray:
    """Points on the integer grid ``{0..levels-1}^d``; ``dup_share`` of the
    rows are overwritten with exact copies of other rows."""
    X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    n_dup = int(n * dup_share)
    targets = rng.choice(n, n_dup, replace=False)
    keep = np.setdiff1d(np.arange(n), targets)
    X[targets] = X[rng.choice(keep, n_dup)]
    return X


def clustered(
    rng: np.random.Generator,
    n: int,
    d: int,
    clusters: int,
    spread: float,
    chunk: int = 4096,
) -> np.ndarray:
    """Gaussian clusters, snapped to the ``1 / GRID_SCALE`` grid.

    Built chunk by chunk so the generator's temporaries stay small next
    to the table (peak RSS is a reported metric).
    """
    centers = rng.normal(0.0, 1.0, size=(clusters, d))
    labels = rng.integers(0, clusters, size=n)
    X = np.empty((n, d), dtype=np.float64)
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        block = centers[labels[s:e]] + rng.normal(0.0, spread, size=(e - s, d))
        np.rint(block * GRID_SCALE, out=block)
        X[s:e] = block / GRID_SCALE
    return X


def uniform_grid(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    """Uniform points in ``[0, 1)^d`` on the ``1 / GRID_SCALE`` grid."""
    return rng.integers(0, GRID_SCALE, size=(rows, d)) / GRID_SCALE


def query_batches(
    rng: np.random.Generator, n: int, m: int, count: int
) -> list[np.ndarray]:
    """``count`` batches of ``m`` distinct table rows each."""
    return [np.sort(rng.choice(n, m, replace=False)) for _ in range(count)]


@dataclass(frozen=True)
class Request:
    """One served request: table indices (``kind == "idx"``) or literal
    rows (``kind == "rows"``), its ``k``, tenant, and whether the
    oracle checks its answer."""

    kind: str
    payload: np.ndarray
    k: int
    tenant: str
    check: bool

    @property
    def rows(self) -> int:
        return int(self.payload.shape[0])


def bursts(
    rng: np.random.Generator,
    count: int,
    n: int,
    d: int,
    *,
    ks: tuple[int, ...],
    tenants: dict[str, float],
    max_requests: int,
    max_rows: int,
    check_share: float,
) -> list[list[Request]]:
    """``count`` bursts of 1..``max_requests`` requests, each of
    1..``max_rows`` rows, half index-shaped and half literal-row-shaped,
    ``k`` drawn from ``ks`` and the tenant by the given shares."""
    names = list(tenants)
    shares = np.array([tenants[t] for t in names], dtype=np.float64)
    shares /= shares.sum()
    out = []
    for _ in range(count):
        burst = []
        for _ in range(int(rng.integers(1, max_requests + 1))):
            rows = int(rng.integers(1, max_rows + 1))
            if rng.random() < 0.5:
                kind, payload = "idx", rng.integers(0, n, size=rows)
            else:
                kind, payload = "rows", uniform_grid(rng, rows, d)
            burst.append(
                Request(
                    kind=kind,
                    payload=payload,
                    k=int(rng.choice(ks)),
                    tenant=names[int(rng.choice(len(names), p=shares))],
                    check=bool(rng.random() < check_share),
                )
            )
        out.append(burst)
    return out
