"""NN-descent k-NN graph construction seeded from randomized KD-trees.

Builds the approximate tier's search graph (Dong et al.'s NN-descent,
the construction "Fast Single-Core K-Nearest Neighbor Graph
Computation" accelerates with blocked evaluation):

1. **Initialization** — instead of random lists, the graph starts from
   :func:`~repro.trees.allknn.all_nearest_neighbors` over a couple of
   :class:`~repro.trees.rkdtree.RandomizedKDForest` trees: every leaf
   solve runs through the fused gsknn kernel (plan-cached panels,
   arena-backed workspaces), so the starting lists already carry most
   of the local structure.
2. **Refinement rounds** — the NN-descent observation: a neighbor of a
   neighbor is probably a neighbor. Each round builds, for every point,
   a candidate id matrix from its neighbors' lists (plus a sample of
   *reverse* neighbors, so directed edges propagate both ways), then
   evaluates **all** candidate distances with
   :func:`~repro.approx.blockeval.candidate_distances` — blocked
   batched GEMMs, never per-pair Python math — and folds them into the
   lists with the vectorized dedup-merge. Rounds stop when the fraction
   of updated lists drops below ``tol``.

Lists follow the repo's all-kNN convention: a point's own id appears in
its list (distance 0), exactly as the exact kernels return it, so the
built graph's lists ARE an approximate all-kNN answer and recall is
directly comparable against :func:`exact_all_knn` truth.

Everything is deterministic from ``seed``: the forest init, the
reverse-neighbor sample, and the candidate subsampling all derive from
one seeded generator.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.neighbors import KnnResult, intersection_counts, merge_topk
from ..core.norms import squared_norms
from ..errors import ValidationError
from ..obs import trace as _trace
from ..obs.metrics import get_registry as _get_registry
from ..validation import as_coordinate_table, check_finite, check_k
from .blockeval import candidate_distances

__all__ = ["GraphBuildReport", "GraphIndex", "build_graph_index"]


@dataclass(frozen=True)
class GraphBuildReport:
    """How one NN-descent build went (attached to the index)."""

    rounds: int
    converged: bool
    init_seconds: float
    refine_seconds: float
    total_seconds: float
    candidate_evals: int
    update_fractions: list[float] = field(default_factory=list)
    recall_curve: list[float] = field(default_factory=list)

    @property
    def total_build_seconds(self) -> float:
        return self.total_seconds


@dataclass
class GraphIndex:
    """A built k-NN graph: adjacency lists + fixed entry points.

    ``neighbors``/``distances`` are ``(n, k_build)`` in the
    :class:`~repro.core.neighbors.KnnResult` convention (rows ascending,
    ``-1``/``+inf`` padding, self-id included). ``entry_points`` are the
    seeded starting nodes every beam search begins from — fixed at
    build time so queries are deterministic.
    """

    X: np.ndarray
    neighbors: np.ndarray
    distances: np.ndarray
    entry_points: np.ndarray
    k_build: int
    seed: int
    build_report: GraphBuildReport | None = None
    adjacency: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.neighbors = np.asarray(self.neighbors, dtype=np.intp)
        self.distances = np.asarray(self.distances, dtype=np.float64)
        self.entry_points = np.asarray(self.entry_points, dtype=np.intp)
        if (
            self.neighbors.shape != self.distances.shape
            or self.neighbors.ndim != 2
            or self.neighbors.shape[0] != self.X.shape[0]
        ):
            raise ValidationError(
                f"graph arrays disagree: X {self.X.shape}, neighbors "
                f"{self.neighbors.shape}, distances {self.distances.shape}"
            )
        if self.adjacency is None:
            self.adjacency = self.neighbors
        else:
            self.adjacency = np.asarray(self.adjacency, dtype=np.intp)
            if (
                self.adjacency.ndim != 2
                or self.adjacency.shape[0] != self.X.shape[0]
            ):
                raise ValidationError(
                    f"adjacency {self.adjacency.shape} does not match "
                    f"X {self.X.shape}"
                )
        self._X2: np.ndarray | None = None
        self._hop: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._entry: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def d(self) -> int:
        return int(self.X.shape[1])

    def squared_norms(self) -> np.ndarray:
        """Reference squared norms, computed once and cached."""
        if self._X2 is None:
            self._X2 = squared_norms(self.X)
        return self._X2

    def hop_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(X17, N33)`` for the beam-search hop loop.

        Graph traversal only ranks candidates — full float64 precision
        buys nothing there, while halving the gather/GEMM traffic and
        sort widths roughly halves hop latency. The exact re-rank pass
        stays float64. ``int32`` ids are safe: indices are < 2**31.

        Both arrays carry a **sentinel row** ``n``: a virtual point at
        the origin with infinite squared norm (so its distance is
        always ``+inf``) whose adjacency is itself. Empty slots hold
        ``n`` instead of ``-1``, which lets every gather in the hop
        loop run unmasked — no ``where`` per hop, padding self-rejects
        by distance.
        """
        if self._hop is None:
            n, d = self.X.shape
            # fused layout: column d carries the squared norm, so one
            # gather + one einsum (against a query row extended with
            # -0.5) yields q.x - x^2/2 and the hop metric needs no
            # separate norm gather
            X17 = np.zeros((n + 1, d + 1), dtype=np.float32)
            X17[:n, :d] = self.X
            X17[:n, d] = squared_norms(self.X)
            X17[n, d] = np.inf
            width = self.adjacency.shape[1]
            N33 = np.full((n + 1, width), n, dtype=np.int32)
            np.copyto(
                N33[:n], self.adjacency, where=self.adjacency >= 0
            )
            self._hop = (X17, N33)
        return self._hop

    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(E32, XE17)`` for beam-search pool seeding.

        Seeding is the one brute-force stage of a search — a plain GEMM
        over the entry-point panel at full BLAS efficiency — so the
        gathered fused panel (same norm-column layout as
        :meth:`hop_arrays`) is cached once rather than re-gathered per
        call.
        """
        if self._entry is None:
            X17, _ = self.hop_arrays()
            self._entry = (
                self.entry_points.astype(np.int32),
                np.ascontiguousarray(X17[self.entry_points]),
            )
        return self._entry

    def as_result(self, k: int | None = None) -> KnnResult:
        """The graph lists as an all-kNN answer (optionally truncated)."""
        k = self.k_build if k is None else int(k)
        if not 1 <= k <= self.k_build:
            raise ValidationError(
                f"k must be in [1, {self.k_build}], got {k}"
            )
        return KnnResult(self.distances[:, :k], self.neighbors[:, :k])

    def save(self, path) -> "Path":
        """Persist to ``.npz`` (coordinates embedded: self-contained)."""
        from pathlib import Path

        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        meta = {"k_build": int(self.k_build), "seed": int(self.seed)}
        if self.build_report is not None:
            meta["build_report"] = asdict(self.build_report)
        np.savez_compressed(
            path,
            X=self.X,
            neighbors=self.neighbors,
            distances=self.distances,
            entry_points=self.entry_points,
            adjacency=self.adjacency,
            meta=np.array(json.dumps(meta)),
        )
        return path

    @classmethod
    def load(cls, path) -> "GraphIndex":
        from pathlib import Path

        path = Path(path)
        if not path.exists():
            raise ValidationError(f"graph index file not found: {path}")
        with np.load(path) as archive:
            required = ("X", "neighbors", "distances", "entry_points", "meta")
            if any(name not in archive for name in required):
                raise ValidationError(f"{path} is not a GraphIndex archive")
            meta = json.loads(str(archive["meta"]))
            report = None
            if "build_report" in meta:
                report = GraphBuildReport(**meta["build_report"])
            return cls(
                X=archive["X"],
                neighbors=archive["neighbors"],
                distances=archive["distances"],
                entry_points=archive["entry_points"],
                adjacency=(
                    archive["adjacency"] if "adjacency" in archive else None
                ),
                k_build=int(meta["k_build"]),
                seed=int(meta["seed"]),
                build_report=report,
            )


def _reverse_sample(ids: np.ndarray, cap: int) -> np.ndarray:
    """Up to ``cap`` reverse neighbors per point, ``(n, cap)``, -1 pad.

    Deterministic: edges are scanned in stable source order. Self-loops
    (the convention's own-id slot) are dropped — they carry no reverse
    information.
    """
    n, kb = ids.shape
    src = np.repeat(np.arange(n, dtype=np.intp), kb)
    dst = ids.ravel()
    valid = (dst >= 0) & (dst != src)
    src, dst = src[valid], dst[valid]
    order = np.argsort(dst, kind="stable")
    dst_s, src_s = dst[order], src[order]
    counts = np.bincount(dst_s, minlength=n)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    take = np.minimum(counts, cap)
    total = int(take.sum())
    rows = np.repeat(np.arange(n, dtype=np.intp), take)
    within = np.arange(total, dtype=np.intp) - np.repeat(
        np.cumsum(take) - take, take
    )
    rev = np.full((n, cap), -1, dtype=np.intp)
    rev[rows, within] = src_s[np.repeat(starts, take) + within]
    return rev


def build_graph_index(
    X: np.ndarray,
    *,
    k_build: int = 16,
    rounds: int = 8,
    tol: float = 2e-3,
    init_trees: int = 2,
    leaf_size: int | None = None,
    candidates_per_point: int | None = None,
    reverse_cap: int | None = None,
    adjacency_reverse_cap: int | None = None,
    n_entry_points: int | None = None,
    seed: int = 0,
    variant: int | str = "auto",
    truth: KnnResult | None = None,
) -> GraphIndex:
    """Build a k-NN graph by tree-seeded NN-descent.

    Parameters
    ----------
    k_build:
        Graph degree (list width). Wider graphs search better and cost
        proportionally more to build; 16 is a good d<=32 default.
    rounds:
        Maximum refinement rounds after the tree initialization.
    tol:
        Convergence: stop when the fraction of points whose list changed
        in a round drops to ``tol`` or below.
    init_trees / leaf_size:
        The initialization forest (``leaf_size`` defaults to
        ``max(8 * k_build, 256)``); every leaf is one fused kernel solve
        through the plan cache.
    candidates_per_point:
        Cap on evaluated candidates per point per round (default
        ``8 * k_build``); the local-join pool is compacted and capped to
        this with the seeded build generator.
    reverse_cap:
        Reverse neighbors sampled per point (default ``k_build // 2``).
    adjacency_reverse_cap:
        Reverse edges folded into the **traversal adjacency** (default
        ``k_build``, 0 disables). The kNN lists stay the answer; search
        hops over lists ∪ reverse edges — the NSW trick that makes the
        directed kNN graph navigable.
    n_entry_points:
        Fixed beam-search entry points (default ``max(32, round(√n))``,
        capped at ``n``). Seeding them is one full-efficiency GEMM, so
        scaling with √n buys closer starts for negligible cost.
    truth:
        Optional exact all-kNN result; records per-round recall in the
        build report (calibration and benchmarks use this).
    """
    X = as_coordinate_table(X)
    check_finite(X)
    n = X.shape[0]
    k_build = check_k(k_build, n)
    if rounds < 0:
        raise ValidationError(f"rounds must be >= 0, got {rounds}")
    if not 0 <= tol < 1:
        raise ValidationError(f"tol must be in [0, 1), got {tol}")
    if n_entry_points is None:
        n_entry_points = max(32, int(round(np.sqrt(n))))
    if n_entry_points < 1:
        raise ValidationError(
            f"n_entry_points must be >= 1, got {n_entry_points}"
        )
    if adjacency_reverse_cap is None:
        adjacency_reverse_cap = k_build
    if adjacency_reverse_cap < 0:
        raise ValidationError(
            "adjacency_reverse_cap must be >= 0, got "
            f"{adjacency_reverse_cap}"
        )
    if leaf_size is None:
        leaf_size = max(8 * k_build, 256)
    leaf_size = min(leaf_size, max(n, 2))
    if leaf_size <= k_build:
        raise ValidationError(
            f"leaf_size ({leaf_size}) must exceed k_build ({k_build})"
        )
    if candidates_per_point is None:
        candidates_per_point = 8 * k_build
    if candidates_per_point < 1:
        raise ValidationError(
            f"candidates_per_point must be >= 1, got {candidates_per_point}"
        )
    if reverse_cap is None:
        reverse_cap = max(2, k_build // 2)
    if truth is not None and truth.m != n:
        raise ValidationError(
            f"truth has {truth.m} rows but X has {n} points"
        )

    registry = _get_registry()
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    with _trace.span(
        "approx.build", n=n, d=X.shape[1], k_build=k_build, rounds=rounds
    ):
        # --- initialization: forest leaf solves through the fused kernel
        from ..trees.allknn import all_nearest_neighbors

        t0 = time.perf_counter()
        if n <= leaf_size:
            # degenerate scale: one exact solve IS the graph
            from ..trees.allknn import exact_all_knn

            current = exact_all_knn(X, k_build)
        else:
            init = all_nearest_neighbors(
                X,
                k_build,
                method="rkdtree",
                leaf_size=leaf_size,
                iterations=init_trees,
                tol=0.0,
                seed=seed,
                variant=variant,
                plan_reuse=True,
            )
            current = init.result
        init_seconds = time.perf_counter() - t0
        cur_d = np.ascontiguousarray(current.distances)
        cur_i = np.ascontiguousarray(current.indices)

        X2 = squared_norms(X)
        own = np.arange(n, dtype=np.intp)[:, None]
        update_fractions: list[float] = []
        recall_curve: list[float] = []
        candidate_evals = 0
        converged = n <= leaf_size
        done_rounds = 0

        def _record_recall() -> None:
            if truth is not None:
                want = truth.indices
                got = cur_i[:, : truth.k] if truth.k <= k_build else cur_i
                hits = int(intersection_counts(want, got).sum())
                recall_curve.append(hits / (truth.m * truth.k))

        _record_recall()

        t0 = time.perf_counter()
        # NN-descent's incremental trick: a candidate pair is only worth
        # evaluating if at least one side joined a list since the last
        # round. Fresh lists start all-new; slots that survive a merge
        # go old, and converged regions stop generating candidates.
        is_new = np.ones((n, k_build), dtype=bool)
        for r in range(rounds):
            if converged:
                break
            # bidirectional adjacency: forward lists + sampled reverse
            # (reverse samples count as new — they are re-drawn each
            # round and carry the freshly-propagated edges)
            rev = _reverse_sample(cur_i, reverse_cap)
            B = np.concatenate([cur_i, rev], axis=1)
            B_new = np.concatenate(
                [is_new, np.ones(rev.shape, dtype=bool)], axis=1
            )
            hub_ok = cur_i >= 0
            safe_hub = np.where(hub_ok, cur_i, 0)
            # local join: hub's whole list if the hub is new, else only
            # the hub's new entries (old-old pairs were already tried)
            keep = hub_ok[:, :, None] & (is_new[:, :, None] | B_new[safe_hub])
            C = np.where(keep, B[safe_hub], -1).reshape(n, -1)
            C = np.concatenate([C, rev], axis=1)
            C = np.where(C == own, -1, C)
            if C.shape[1] > candidates_per_point:
                # compact valid candidates to the front (stable, after a
                # seeded column shuffle so truncation samples the join
                # rather than always keeping the first hubs) and cap
                C = C[:, rng.permutation(C.shape[1])]
                front = np.argsort(C < 0, axis=1, kind="stable")
                C = np.take_along_axis(
                    C, front[:, :candidates_per_point], axis=1
                )
            evals = int((C >= 0).sum())
            candidate_evals += evals
            with _trace.span(
                "approx.build.round", round=r, candidates=evals
            ):
                D = candidate_distances(X, X, C, X2=X2, Q2=X2)
                new_d, new_i = merge_topk(
                    np.concatenate([cur_d, D], axis=1),
                    np.concatenate([cur_i, C], axis=1),
                    k_build,
                )
            changed = float((new_i != cur_i).any(axis=1).mean())
            update_fractions.append(changed)
            is_new = ~(
                (new_i[:, :, None] == cur_i[:, None, :]).any(axis=2)
            ) & (new_i >= 0)
            cur_d, cur_i = new_d, new_i
            done_rounds = r + 1
            _record_recall()
            if registry.enabled:
                registry.inc("approx.build.rounds")
                registry.inc("approx.build.candidates", evals)
                registry.observe("approx.build.update_fraction", changed)
            if changed <= tol:
                converged = True
        refine_seconds = time.perf_counter() - t0

        entry_points = np.sort(
            rng.choice(n, size=min(n_entry_points, n), replace=False)
        ).astype(np.intp)

        # traversal adjacency: forward lists ∪ capped reverse edges,
        # deduplicated per row, self-loops dropped, valid ids compacted
        # to the front (beam search reads this, as_result() does not)
        adjacency = cur_i
        if adjacency_reverse_cap > 0:
            rev2 = _reverse_sample(cur_i, adjacency_reverse_cap)
            A = np.concatenate([cur_i, rev2], axis=1)
            A = np.where(A == own, -1, A)
            order = np.argsort(A, axis=1, kind="stable")
            As = np.take_along_axis(A, order, axis=1)
            dup = np.zeros_like(As, dtype=bool)
            dup[:, 1:] = (As[:, 1:] == As[:, :-1]) & (As[:, 1:] >= 0)
            As = np.where(dup, -1, As)
            front = np.argsort(As < 0, axis=1, kind="stable")
            adjacency = np.take_along_axis(As, front, axis=1)
            width = max(int((adjacency >= 0).sum(axis=1).max()), 1)
            adjacency = np.ascontiguousarray(adjacency[:, :width])
        report = GraphBuildReport(
            rounds=done_rounds,
            converged=converged,
            init_seconds=init_seconds,
            refine_seconds=refine_seconds,
            total_seconds=time.perf_counter() - start,
            candidate_evals=candidate_evals,
            update_fractions=update_fractions,
            recall_curve=recall_curve,
        )
        if registry.enabled:
            registry.observe("approx.build.seconds", report.total_seconds)
    return GraphIndex(
        X=X,
        neighbors=cur_i,
        distances=cur_d,
        entry_points=entry_points,
        adjacency=adjacency,
        k_build=k_build,
        seed=seed,
        build_report=report,
    )
