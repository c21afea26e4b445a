"""Scatter/gather top-k routing over real shard processes.

:class:`ShardedAllKnn` is the multi-process counterpart of one fused
:func:`repro.core.gsknn` call: scatter a query batch to every shard that
owns part of the reference table, run the fused kernel locally per
shard (each shard keeps its panels packed in a warm plan), gather the
partial top-k lists, and merge them with
:func:`repro.select.vectorized.merge_topk`.

Because the shard map never splits a GEMM tile
(:mod:`repro.shard.map`) and every shard pins the same ``norm`` /
``block_m`` / ``block_n`` / resolved variant as the single-process
solve, the merged result is **bit-identical** — indices and distances —
to ``gsknn(X, q_idx, alive_ids, k, block_n=panel_width, ...)`` on the
same membership, which :meth:`ShardedAllKnn.solve_reference` exposes
for exactly that assertion (tests and the CI ``shard-smoke`` job run
it).

Failure semantics (the resilience layer's ladder, applied *per shard*):
a failed shard solve is retried on its restarted worker process up to
``retry.max_attempts`` times (processes rung), then degraded to an
in-parent threaded solve of just that partition (threads rung, faults
still injected so drills exercise it), then to an inline fault-free
serial solve — which cannot be fault-injected, so recovery is
guaranteed and still bit-identical. Healthy shards are never re-solved.
The shared :class:`~repro.resilience.Deadline` bounds every wait.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from ..core.gsknn import _resolve_auto_variant
from ..core.neighbors import KnnResult
from ..core.norms import resolve_norm, squared_norms
from ..core.plan import GsknnPlan
from ..errors import BackendError, ValidationError
from ..obs.metrics import get_registry as _get_registry
from ..obs.trace import get_tracer as _get_tracer
from ..parallel.backends import _absorb_worker_obs
from ..resilience.deadline import Deadline
from ..resilience.faults import FaultPlan
from ..resilience.retry import RetryPolicy, is_retryable
from ..select.vectorized import merge_topk
from ..validation import as_index_array
from .map import ShardMap
from .transport import ShardWorld, resolve_transport

__all__ = ["ShardedAllKnn"]


class ShardedAllKnn:
    """A reference table partitioned across shards, solved scatter/gather.

    Parameters
    ----------
    X:
        ``(n, d)`` float64 reference table. Copied: the router owns its
        table so streaming mutations never alias caller memory.
    n_shards:
        Number of shards (>= 1). With the process transport this is the
        number of long-lived worker processes.
    transport:
        ``"process"`` (real worker processes over shared memory),
        ``"local"`` (in-process twin), or a ready
        :class:`~repro.shard.transport.ShardTransport`.
    norm, variant, block_m, block_n:
        Kernel configuration, pinned across shards; ``block_n`` doubles
        as the shard map's panel width so shard boundaries coincide
        with the kernel's reference-block grid (the bit-identicality
        invariant — see :mod:`repro.shard.map`).
    retry:
        Per-shard :class:`RetryPolicy` for the processes rung.
    deadline:
        Default :class:`Deadline` budget (seconds or instance) applied
        to every solve that does not pass its own.
    fault_plan:
        Spec string or :class:`FaultPlan`; shipped to shard workers
        (scope ``"shard"``) and applied on the parent-side threads rung.
    """

    def __init__(
        self,
        X: np.ndarray,
        n_shards: int,
        *,
        transport: str | Any = "process",
        norm: str | float = "l2",
        variant: int | str = "auto",
        block_m: int = 1024,
        block_n: int = 2048,
        retry: RetryPolicy | None = None,
        deadline: Deadline | float | None = None,
        fault_plan: FaultPlan | str | None = None,
        mp_context: str | None = None,
    ) -> None:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValidationError(
                f"X must be a non-empty (n, d) table, got shape {X.shape}"
            )
        if block_m < 1 or block_n < 1:
            raise ValidationError("block_m and block_n must be >= 1")
        self._X = X.copy()
        self._norm = resolve_norm(norm)
        self._variant_spec = variant
        self._block_m = int(block_m)
        self._block_n = int(block_n)
        self._X2 = (
            squared_norms(self._X)
            if (self._norm.is_l2 or getattr(self._norm, "is_cosine", False))
            else None
        )
        self.map = ShardMap(X.shape[0], n_shards, panel_width=self._block_n)
        self.retry = retry if retry is not None else RetryPolicy()
        self._default_deadline = deadline
        self._fault_plan = FaultPlan.coerce(fault_plan)
        if self._fault_plan is None:
            self._fault_plan = FaultPlan.from_env()
        if mp_context is not None and transport == "process":
            from .transport import ProcessTransport

            transport = ProcessTransport(mp_context)
        self.transport = resolve_transport(transport)
        self._fallback_plans: dict[int, GsknnPlan] = {}
        self._fallback_epoch = -1
        self._closed = False
        self.transport.start(self._world())

    # -- lifecycle -----------------------------------------------------------

    def _world(self) -> ShardWorld:
        return ShardWorld(
            X=self._X,
            X2=self._X2,
            local_ids=[
                self.map.local_ids(s) for s in range(self.map.n_shards)
            ],
            epoch=self.map.epoch,
            kernel_kwargs={
                "norm": self._norm,
                "block_m": self._block_m,
                "block_n": self._block_n,
            },
            fault_spec=(
                self._fault_plan.spec()
                if self._fault_plan is not None and self._fault_plan.active
                else None
            ),
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.transport.close()
            self._fallback_plans.clear()

    def __enter__(self) -> "ShardedAllKnn":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def n_refs(self) -> int:
        """Alive reference count (tombstones excluded)."""
        return self.map.n_alive

    @property
    def dim(self) -> int:
        return self._X.shape[1]

    @property
    def table(self) -> np.ndarray:
        """Read-only view of the full table (including tombstoned rows)."""
        view = self._X.view()
        view.flags.writeable = False
        return view

    # -- streaming membership ------------------------------------------------

    def insert(self, rows: np.ndarray) -> np.ndarray:
        """Append new reference rows; returns their global ids.

        The table is re-exported to fresh shared segments, the panel
        grid re-derived, and every shard worker re-attaches and drops
        its packed plan (per-shard plan invalidation).
        """
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValidationError(
                f"rows must be (m, {self.dim}), got shape {rows.shape}"
            )
        self._X = np.ascontiguousarray(np.vstack([self._X, rows]))
        if self._X2 is not None:
            # per-row norms: appending batch norms == full recompute
            self._X2 = np.concatenate([self._X2, squared_norms(rows)])
        ids = self.map.append(rows.shape[0])
        self._refresh("insert", rows=rows.shape[0])
        return ids

    def delete(self, ids) -> None:
        """Tombstone reference ids: they leave their owning shards'
        partitions at the new epoch and can never be returned again."""
        self.map.tombstone(ids)
        self._refresh("delete", ids=np.asarray(ids).size)

    def _refresh(self, op: str, **meta) -> None:
        with _get_tracer().span("shard.refresh", op=op, **meta):
            self.transport.refresh(self._world())
        self._fallback_plans.clear()
        self._fallback_epoch = self.map.epoch
        registry = _get_registry()
        if registry.enabled:
            registry.inc("shard.refreshes", labels={"op": op})
            registry.gauge("shard.epoch").set(self.map.epoch)

    # -- solves --------------------------------------------------------------

    def solve(
        self,
        q_idx,
        k: int,
        *,
        deadline: Deadline | float | None = None,
    ) -> KnnResult:
        """Exact top-k of table-row queries against every alive reference.

        Bit-identical to :meth:`solve_reference` on the same membership.
        """
        q_idx = as_index_array(q_idx, self._X.shape[0], name="q_idx")
        k = self._check_k(k)
        var = int(
            _resolve_auto_variant(
                self._variant_spec, q_idx.size, self.n_refs, self.dim, k
            )
        )
        return self._scatter_gather(
            ("idx", q_idx, k, var), q_idx.size, k, deadline
        )

    def solve_rows(
        self,
        Q: np.ndarray,
        k: int,
        *,
        deadline: Deadline | float | None = None,
    ) -> KnnResult:
        """Exact top-k for literal query rows (the serving shape)."""
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        if Q.ndim == 1:
            Q = Q[None, :]
        if Q.ndim != 2 or Q.shape[1] != self.dim:
            raise ValidationError(
                f"Q must be (m, {self.dim}), got shape {Q.shape}"
            )
        k = self._check_k(k)
        var = int(
            _resolve_auto_variant(
                self._variant_spec, Q.shape[0], self.n_refs, self.dim, k
            )
        )
        return self._scatter_gather(
            ("rows", Q, k, var), Q.shape[0], k, deadline
        )

    def solve_reference(self, q_idx, k: int) -> KnnResult:
        """The single-process fused twin of :meth:`solve` — one plain
        ``gsknn`` call over the same membership and kernel config. The
        bit-identicality oracle tests and CI assert against."""
        from ..core.gsknn import gsknn

        return gsknn(
            self._X,
            as_index_array(q_idx, self._X.shape[0], name="q_idx"),
            self.map.alive_ids(),
            self._check_k(k),
            norm=self._norm,
            variant=self._variant_spec,
            X2=self._X2,
            block_m=self._block_m,
            block_n=self._block_n,
        )

    def _check_k(self, k: int) -> int:
        k = int(k)
        if k < 1 or k > self.n_refs:
            raise ValidationError(
                f"k must be in [1, {self.n_refs}], got {k}"
            )
        return k

    # -- scatter/gather core -------------------------------------------------

    def _scatter_gather(
        self,
        task: tuple,
        m: int,
        k: int,
        deadline: Deadline | float | None,
    ) -> KnnResult:
        if self._closed:
            raise BackendError("ShardedAllKnn is closed")
        deadline = Deadline.coerce(
            deadline if deadline is not None else self._default_deadline
        )
        tracer = _get_tracer()
        registry = _get_registry()
        with tracer.span(
            "shard.solve_batch",
            shards=self.map.n_shards,
            m=m,
            k=k,
            epoch=self.map.epoch,
        ):
            parent_id = tracer.current_span_id()
            owners = [
                s
                for s in range(self.map.n_shards)
                if self.map.local_ids(s).size
            ]
            if deadline is not None:
                deadline.check("shard.scatter")
            with tracer.span("shard.scatter", shards=len(owners)):
                futures = {
                    s: self._submit(s, self._shard_task(task, s), 0)
                    for s in owners
                }
            partials: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for s in owners:
                partials[s] = self._gather_one(
                    s, futures[s], task, deadline, parent_id
                )
            if deadline is not None:
                deadline.check("shard.gather")
            with tracer.span("shard.gather", shards=len(owners)):
                dist, idx = self._merge(partials, owners, m, k)
            if registry.enabled:
                registry.inc("shard.batches")
                registry.observe("shard.batch_rows", float(m))
            return KnnResult(distances=dist, indices=idx)

    def _submit(self, shard: int, shard_task: tuple, attempt: int):
        """Submit, converting a synchronous transport failure (e.g. a
        pool already broken from a previous crash) into a rejected
        future the gather ladder recovers like any other."""
        from concurrent.futures import Future

        try:
            return self.transport.submit(shard, shard_task, attempt=attempt)
        except Exception as exc:
            fut: Future = Future()
            fut.set_exception(exc)
            return fut

    def _shard_task(self, task: tuple, shard: int) -> tuple:
        """Clamp k to the shard's partition size (small shards return
        everything they own; the merge pads the difference)."""
        k_local = min(task[2], self.map.local_ids(shard).size)
        return (task[0], task[1], k_local, *task[3:])

    def _gather_one(
        self,
        shard: int,
        future,
        task: tuple,
        deadline: Deadline | None,
        parent_id: int | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard's partial, recovered through the per-shard ladder.

        Only this shard is ever re-solved; the other shards' futures
        are untouched.
        """
        from concurrent.futures.process import BrokenProcessPool

        registry = _get_registry()
        shard_task = self._shard_task(task, shard)
        attempt = 0
        while True:
            try:
                out = future.result(
                    timeout=None if deadline is None else deadline.timeout()
                )
                dist, idx = out[0], out[1]
                _absorb_worker_obs(
                    out[2] if len(out) > 2 else None, parent_id
                )
                return dist, idx
            except TimeoutError:
                future.cancel()
                if deadline is not None:
                    deadline.raise_expired("shard.gather", shard=shard)
                raise
            except Exception as exc:
                # a dead worker surfaces as BrokenProcessPool, which the
                # retry predicate does not know; it is the canonical
                # recoverable shard failure here
                if not (is_retryable(exc) or isinstance(exc, BrokenProcessPool)):
                    raise
                attempt += 1
                if registry.enabled:
                    registry.inc(
                        "shard.failures", labels={"shard": str(shard)}
                    )
                if deadline is not None:
                    deadline.check("shard.retry", shard=shard)
                if attempt < self.retry.max_attempts:
                    # processes rung: restart the dead worker, resubmit
                    self.retry.sleep(attempt, deadline)
                    self.transport.restart(shard)
                    if registry.enabled:
                        registry.inc(
                            "shard.retries", labels={"shard": str(shard)}
                        )
                    future = self._submit(shard, shard_task, attempt)
                    continue
                # restart the worker even though this batch degrades to
                # the parent-side rungs: the next batch must find a
                # healthy pool, not the broken one
                try:
                    self.transport.restart(shard)
                except Exception:  # pragma: no cover - restart best-effort
                    pass
                return self._fallback(shard, shard_task, deadline)

    def _fallback(
        self,
        shard: int,
        shard_task: tuple,
        deadline: Deadline | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Threads rung (faults still injected), then fault-free serial."""
        registry = _get_registry()
        tracer = _get_tracer()
        try:
            if deadline is not None:
                deadline.check("shard.fallback", shard=shard)
            with tracer.span("shard.fallback", shard=shard, rung="threads"):
                if self._fault_plan is not None:
                    self._fault_plan.apply(
                        "shard",
                        f"{self.map.epoch}:{shard}",
                        self.retry.max_attempts,
                    )
                with ThreadPoolExecutor(max_workers=1) as pool:
                    fut = pool.submit(self._solve_local, shard, shard_task)
                    out = fut.result(
                        timeout=None
                        if deadline is None
                        else deadline.timeout()
                    )
            if registry.enabled:
                registry.inc("shard.failovers", labels={"rung": "threads"})
            return out
        except TimeoutError:
            if deadline is not None:
                deadline.raise_expired("shard.fallback", shard=shard)
            raise
        except Exception as exc:
            if not is_retryable(exc):
                raise
        if deadline is not None:
            deadline.check("shard.fallback", shard=shard)
        # serial rung: inline, never fault-injected — guaranteed recovery
        with tracer.span("shard.fallback", shard=shard, rung="serial"):
            out = self._solve_local(shard, shard_task)
        if registry.enabled:
            registry.inc("shard.failovers", labels={"rung": "serial"})
        return out

    def _solve_local(
        self, shard: int, shard_task: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        """In-parent solve of one shard's partition — same plan config
        as the worker's, so fallback results stay bit-identical."""
        if self._fallback_epoch != self.map.epoch:
            self._fallback_plans.clear()
            self._fallback_epoch = self.map.epoch
        plan = self._fallback_plans.get(shard)
        if plan is None:
            kwargs: dict[str, Any] = {
                "norm": self._norm,
                "block_m": self._block_m,
                "block_n": self._block_n,
            }
            if self._X2 is not None:
                kwargs["X2"] = self._X2
            plan = GsknnPlan(self._X, self.map.local_ids(shard), **kwargs)
            self._fallback_plans[shard] = plan
        kind, q, k_local = shard_task[0], shard_task[1], shard_task[2]
        var = shard_task[3] if len(shard_task) > 3 else None
        if kind == "idx":
            res = plan.execute(q, k_local, warm_start=False, variant=var)
        elif kind == "rows":
            res = plan.execute_rows(q, k_local, variant=var)
        else:
            from ..core.plan import PlanCache

            _, q_idx, r_idx, k_local = shard_task
            cache = PlanCache()
            res = cache.get(
                self._X,
                r_idx,
                norm=self._norm,
                block_m=self._block_m,
                block_n=self._block_n,
            ).execute(q_idx, k_local, warm_start=False)
        return res.distances, res.indices

    def _merge(
        self,
        partials: dict[int, tuple[np.ndarray, np.ndarray]],
        owners: list[int],
        m: int,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pad ragged partials to a common width and merge via
        :func:`merge_topk` (ascending distance, ties by id)."""
        width = max(p[0].shape[1] for p in partials.values())
        dist_cat = np.full((m, width * len(owners)), np.inf)
        idx_cat = np.full((m, width * len(owners)), -1, dtype=np.intp)
        for col, s in enumerate(owners):
            dist, idx = partials[s]
            lo = col * width
            dist_cat[:, lo : lo + dist.shape[1]] = dist
            idx_cat[:, lo : lo + idx.shape[1]] = idx
        return merge_topk(dist_cat, idx_cat, k)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "n_shards": self.map.n_shards,
            "transport": self.transport.name,
            "epoch": self.map.epoch,
            "n_alive": self.map.n_alive,
            "n_total": self.map.n_total,
            "panel_width": self.map.panel_width,
            "shard_sizes": [
                int(self.map.local_ids(s).size)
                for s in range(self.map.n_shards)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardedAllKnn(n_shards={self.map.n_shards}, "
            f"transport={self.transport.name!r}, alive={self.map.n_alive}, "
            f"epoch={self.map.epoch})"
        )
