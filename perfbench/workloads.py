"""The three workloads, each timed from outside through public calls.

* ``oneshot_ties`` — repeated one-shot :func:`repro.gsknn` batches on a
  tie-heavy grid table: selection dominates, one-shot select path.
* ``allknn_rkdtree`` — :func:`repro.all_nearest_neighbors` with
  randomized KD-trees (the paper's Table 1 application): GEMM-bound,
  through the plan cache, warm merges and tree partitioning.
* ``serve_bursts`` — an in-process :class:`repro.serve.KnnQueryService`
  under an open loop of bursts, then a single-client closed loop that
  measures capacity: queue, window and demux costs, small kernels.

Each workload reports every end-to-end metric of BENCHMARK.json in a
timed run with tracing off, and every per-layer metric in a traced run,
which repeats one fixed amount of work untraced and then traced. A
layer a workload does not exercise reads 0. Input generation and the
oracle are outside every timer. Timed runs interleave a fixed reference
(:mod:`hostspeed`) with the calls and report every timing normalised
to the reference host speed; the raw timings go to the detail line.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time

import numpy as np

import inputs
import ledger
from hostspeed import HostSpeed
from oracle import Oracle

from repro import all_nearest_neighbors, gsknn
from repro.errors import KernelTimeoutError, OverloadError
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.trace import disable_tracing, enable_tracing, get_tracer
from repro.serve import KnnQueryService, ServeConfig

# Kernel root spans: a one-shot call emits ``gsknn``, a plan execute
# ``plan.execute``; neither nests inside the other.
KERNEL_ROOTS = ("gsknn", "plan.execute")
KERNEL_PHASES = ("pack", "rank_update", "heap")


def _span(name: str):
    return get_tracer().span(name)


class Workload:
    """Shared run skeleton: setup, timed measurement, traced passes,
    and the oracle check of every recorded answer."""

    name = ""
    exact = True
    #: the coordinate table every call queries; set by each workload
    X: np.ndarray
    #: a call slower than this misses the fixed per-call SLO
    slo_ms = 0.0
    SETUP_REPS = 5
    #: answers kept for the oracle; a fixed cap keeps peak RSS
    #: independent of how many calls fit in a run
    MAX_ANSWERS = 64

    def __init__(self) -> None:
        self.answers: list[tuple[object, np.ndarray, int, object]] = []
        self.attempted = 0
        self.failed = 0
        #: cleared when a repeated call does not repeat its answer
        self.consistent = True
        self.counts: dict[str, int] = {}
        self.speed = HostSpeed()

    # -- to implement ----------------------------------------------------
    def setup_once(self) -> float:
        raise NotImplementedError

    def warm_up(self) -> None:
        """A fixed amount of untimed work after set-up."""

    def measure(self, seconds: float) -> dict:
        raise NotImplementedError

    def work_pass(self, seconds: float) -> dict:
        raise NotImplementedError

    def layer_extras(self, untraced: dict) -> dict:
        return {}

    # -- shared ----------------------------------------------------------
    def measure_calls(self, seconds: float, call, rows: int) -> dict:
        """Back-to-back timed calls of ``rows`` query rows each, with a
        reference probe between calls when one is due."""
        raw, ends = [], []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            raw.append(call())
            ends.append(time.perf_counter())
            self.speed.tick()
        self.speed.probe()
        lat = self.normalised(raw, ends)
        return {
            "lat_s": lat,
            "raw_lat_s": np.asarray(raw),
            "p50_s": ledger.pct(lat, 50),
            "p90_s": ledger.pct(lat, 90),
            "rows_per_s": len(lat) * rows / lat.sum(),
            "raw_rows_per_s": len(raw) * rows / sum(raw),
            # the SLO is a user's: judged on the raw time
            "slo_met": int((np.asarray(raw) * 1e3 <= self.slo_ms).sum()),
            "slo_sent": len(lat),
        }

    def record(self, Q: np.ndarray, k: int, result, key=None) -> None:
        """Keep an answer for the oracle; answers sharing a ``key`` ask
        the same question, so the oracle solves it once."""
        if len(self.answers) < self.MAX_ANSWERS:
            self.answers.append((key, Q, k, result))

    def verify(self) -> tuple[int, int, float]:
        """Oracle check of recorded answers: ``(right, checked, recall)``."""
        oracle = Oracle(self.X)
        right = checked = 0
        recall_sum = 0.0
        truths: dict = {}
        for key, Q, k, res in self.answers:
            truth = truths.get(key) if key is not None else None
            if truth is None:
                truth = oracle.kth_sorted(Q, k)
                if key is not None:
                    truths[key] = truth
            ok, rec = oracle.check(
                Q, res.distances, res.indices, truth, exact=self.exact
            )
            right += int(ok.sum())
            checked += ok.size
            recall_sum += float(rec.sum())
        return right, checked, recall_sum / max(checked, 1)

    def setup(self) -> tuple[np.ndarray, np.ndarray]:
        """``SETUP_REPS`` set-ups, each followed by a reference probe:
        their durations and end times."""
        times, ends = [], []
        for rep in range(self.SETUP_REPS):
            times.append(self.setup_once())
            ends.append(time.perf_counter())
            if rep == 0:
                # Peak RSS is read after the cold first call: later readings
                # creep with the allocator's fragmentation, so they would
                # depend on the seed's allocation pattern and on how many
                # calls a run makes. The first reference probe comes after
                # it, so the reference's buffers are not counted.
                self.rss_mb = ledger.peak_rss_mb()
            self.speed.probe()
        return np.asarray(times), np.asarray(ends)

    def normalised(self, secs, ends) -> np.ndarray:
        """Durations ending at ``ends``, at the reference host speed."""
        return np.asarray(secs, dtype=np.float64) * self.speed.scale(ends)

    def timed_run(self, seconds: float) -> dict:
        setup_raw, setup_ends = self.setup()
        self.warm_up()
        m = self.measure(seconds)
        setup_s = float(np.median(self.normalised(setup_raw, setup_ends)))
        right, checked, recall = self.verify()
        metrics = {
            "setup_s": setup_s,
            "rows_per_s": m["rows_per_s"],
            "call_ms_p50": m["p50_s"] * 1e3,
            "call_ms_p90": m["p90_s"] * 1e3,
            "slo_met_frac": m["slo_met"] / m["slo_sent"],
            "right_frac": right / max(checked, 1),
            "recall_at_k": recall,
            "peak_rss_mb": self.rss_mb,
        }
        detail = {
            "calls_timed": len(m["lat_s"]),
            "rows_checked": checked,
            "rows_wrong": checked - right,
            "consistent": self.consistent,
            "raw": {
                "setup_s": float(np.median(setup_raw)),
                "rows_per_s": m["raw_rows_per_s"],
                "call_ms_p50": ledger.pct(m["raw_lat_s"], 50) * 1e3,
                "call_ms_p90": ledger.pct(m["raw_lat_s"], 90) * 1e3,
            },
            "host_speed": self.speed.summary(),
            **self.counts,
        }
        return {
            "correct": checked > 0 and right == checked and self.consistent,
            "metrics": metrics,
            "detail": detail,
        }

    def traced_run(self, seconds: float) -> dict:
        self.setup()
        untraced = self.work_pass(seconds)
        tracer = enable_tracing()
        registry = enable_metrics()
        start = tracer.clock() - tracer.epoch
        t0 = time.perf_counter()
        try:
            traced = self.work_pass(seconds)
            wall = time.perf_counter() - t0
        finally:
            disable_tracing()
            disable_metrics()
        book = ledger.build(tracer, start, wall)
        agg = tracer.aggregate()
        counters = registry.snapshot()["counters"]
        right, checked, recall = self.verify()

        def self_s(name: str) -> float:
            return agg.get(name, {}).get("self_seconds", 0.0)

        kernel_s = sum(
            s.duration for s in tracer.spans if s.name in KERNEL_ROOTS
        )
        solves = [s.duration for s in tracer.spans if s.name == "plan.execute"]
        calls = counters.get("gsknn.calls", 0)
        discarded = counters.get("gsknn.work.discarded", 0)
        offered = discarded + counters.get("gsknn.work.heap_updates", 0)
        moved = counters.get("gsknn.work.slow_reads", 0) + counters.get(
            "gsknn.work.slow_writes", 0
        )
        phase_s = sum(self_s(p) for p in KERNEL_PHASES)
        metrics = {
            "kernel.pack_s": self_s("pack"),
            "kernel.rank_update_s": self_s("rank_update"),
            "kernel.heap_s": self_s("heap"),
            "kernel.gflops": (
                counters.get("gsknn.work.flops", 0) / kernel_s / 1e9
                if kernel_s
                else 0.0
            ),
            "kernel.computed_mb": moved * 8 / 1e6 / calls if calls else 0.0,
            "select.discard_frac": discarded / offered if offered else 0.0,
            "plan.build_s": self_s("plan.build"),
            "plan.executes": counters.get("plan.executes", 0),
            "allknn.kernel_frac": 0.0,
            "allknn.nonkernel_s": 0.0,
            "allknn.groups": 0,
            "serve.submit_us_p50": 0.0,
            "serve.reqs_per_window": 0.0,
            "serve.solves_per_window": 0.0,
            "serve.rows_per_solve": 0.0,
            "serve.solve_ms_p50": ledger.pct(solves, 50) * 1e3 if solves else 0.0,
            "serve.kernel_share": phase_s / wall,
            "loadgen.lag_ms_p99": 0.0,
            "trace.coverage": book["coverage"],
            "trace.overhead": traced["work_s"] / untraced["work_s"] - 1.0,
        }
        metrics.update(self.layer_extras(untraced))
        detail = {
            "untraced": untraced["e2e"],
            "traced": traced["e2e"],
            "ledger": book,
            "span_totals": agg,
            "kernel_calls": calls,
            "rows_checked": checked,
            "rows_wrong": checked - right,
            "consistent": self.consistent,
            **self.counts,
        }
        return {
            "correct": checked > 0
            and right == checked
            and self.consistent
            and book["adds_up"],
            "metrics": metrics,
            "detail": detail,
        }


class OneshotTies(Workload):
    """Repeated one-shot batches against a grid table with duplicates."""

    name = "oneshot_ties"
    N, D, LEVELS, DUP_SHARE = 32768, 8, 8, 1 / 8
    K, M, BATCHES = 16, 256, 16
    SETUP_REPS = 9
    WARMUP_CALLS = 3
    TRACE_CALLS_PER_S = 2.5
    slo_ms = 1000.0

    def __init__(self, seed: int) -> None:
        super().__init__()
        g_table, g_batches = inputs.rngs(seed, 2)
        self.X = inputs.grid_with_duplicates(
            g_table, self.N, self.D, self.LEVELS, self.DUP_SHARE
        )
        self.batches = inputs.query_batches(g_batches, self.N, self.M, self.BATCHES)
        self.r_idx = np.arange(self.N)
        self.i = 0

    def call(self, X: np.ndarray) -> float:
        b = self.i % self.BATCHES
        q = self.batches[b]
        self.i += 1
        t = time.perf_counter()
        with _span("bench.gsknn"):
            res = gsknn(X, q, self.r_idx, self.K)
        dt = time.perf_counter() - t
        self.attempted += 1
        self.record(self.X[q], self.K, res, key=b)
        return dt

    def setup_once(self) -> float:
        # a fresh table object: nothing cached against the previous one
        return self.call(self.X.copy())

    def warm_up(self) -> None:
        for _ in range(self.WARMUP_CALLS):
            self.call(self.X)

    def measure(self, seconds: float) -> dict:
        return self.measure_calls(seconds, lambda: self.call(self.X), self.M)

    def work_pass(self, seconds: float) -> dict:
        calls = max(4, round(seconds * self.TRACE_CALLS_PER_S))
        self.i = 0
        lat = [self.call(self.X) for _ in range(calls)]
        return {
            "work_s": float(sum(lat)),
            "e2e": {"calls": calls, "call_ms_p50": ledger.pct(lat, 50) * 1e3},
        }


class AllknnRkdtree(Workload):
    """Randomized KD-tree all-NN on a clustered table, fixed iterations."""

    name = "allknn_rkdtree"
    exact = False
    # 512 clusters of ~64 points: small enough that every leaf holds many
    # clusters, which keeps recall steady from seed to seed (±1%; with 64
    # clusters tree cuts moved it by ±3%)
    N, D, CLUSTERS, SPREAD = 32768, 256, 512, 0.35
    K, LEAF, ITERATIONS, SAMPLE = 16, 2048, 2, 2048
    SETUP_REPS = 3
    MAX_ANSWERS = 1
    TRACE_SECONDS_PER_CALL = 10.0
    slo_ms = 20000.0

    def __init__(self, seed: int) -> None:
        super().__init__()
        g_table, g_sample, g_solver = inputs.rngs(seed, 3)
        self.X = inputs.clustered(g_table, self.N, self.D, self.CLUSTERS, self.SPREAD)
        self.sample = np.sort(g_sample.choice(self.N, self.SAMPLE, replace=False))
        self.solver_seed = int(g_solver.integers(2**31))
        self.first = None

    def call(self, X: np.ndarray):
        t = time.perf_counter()
        with _span("bench.allknn"):
            report = all_nearest_neighbors(
                X,
                self.K,
                method="rkdtree",
                leaf_size=self.LEAF,
                iterations=self.ITERATIONS,
                tol=0.0,  # never stop early: a fixed amount of work
                seed=self.solver_seed,
            )
        dt = time.perf_counter() - t
        self.attempted += 1
        res = report.result
        if self.first is None:
            self.first = res
            self.record(
                self.X[self.sample],
                self.K,
                type(res)(res.distances[self.sample], res.indices[self.sample]),
            )
        else:
            # same table, same solver seed: the answer must repeat exactly
            self.consistent &= np.array_equal(
                res.distances, self.first.distances
            ) and np.array_equal(res.indices, self.first.indices)
        return dt, report

    def setup_once(self) -> float:
        # Every call builds its own plan cache, so each one starts cold;
        # no table copy (64 MiB) muddies the peak RSS.
        return self.call(self.X)[0]

    def measure(self, seconds: float) -> dict:
        return self.measure_calls(seconds, lambda: self.call(self.X)[0], self.N)

    def work_pass(self, seconds: float) -> dict:
        calls = max(1, round(seconds / self.TRACE_SECONDS_PER_CALL))
        runs = [self.call(self.X) for _ in range(calls)]
        reports = [r for _, r in runs]
        return {
            "work_s": float(sum(dt for dt, _ in runs)),
            "reports": reports,
            "e2e": {
                "calls": calls,
                "call_ms_p50": ledger.pct([dt for dt, _ in runs], 50) * 1e3,
            },
        }

    def layer_extras(self, untraced: dict) -> dict:
        reports = untraced["reports"]
        total = sum(r.total_seconds for r in reports)
        kernel = sum(r.kernel_seconds for r in reports)
        return {
            "allknn.kernel_frac": kernel / total,
            "allknn.nonkernel_s": (total - kernel) / len(reports),
            "allknn.groups": reports[0].group_count,
        }


class _Latch:
    """Counts completions down from ``n``; ``wait`` returns at zero."""

    def __init__(self, n: int) -> None:
        self.left = n
        self.lock = threading.Lock()
        self.done = threading.Event()
        if n == 0:
            self.done.set()

    def hit(self, _future=None) -> None:
        with self.lock:
            self.left -= 1
            if self.left == 0:
                self.done.set()


class ServeBursts(Workload):
    """Open-loop bursts at a fixed rate, then a closed-loop capacity phase."""

    name = "serve_bursts"
    N, D = 32768, 32
    KS = (8, 32)
    TENANT_SHARES = {"search": 2 / 3, "batch": 1 / 3}
    TENANT_WEIGHTS = {"search": 2, "batch": 1}
    MAX_REQUESTS, MAX_ROWS, CHECK_SHARE = 8, 8, 0.25
    #: Open-loop rate, bursts/s of ~20 rows: about a tenth of the
    #: closed-loop capacity measured on a 2-core x86 host (~2500 rows/s
    #: on one core). At 20-24 bursts/s the host's slow spells cut
    #: capacity by a third and the open-loop p50 swung from 16 to 58 ms
    #: between runs, too unsteady to gate. A constant, never
    #: recalibrated, so a slower program shows as latency and SLO
    #: misses, not as a lighter load.
    OPEN_RATE = 12.0
    #: share of the run spent in the open loop; the rest is the closed loop
    OPEN_SHARE = 1 / 3
    slo_ms = 100.0
    SETUP_REPS = 41
    MAX_ANSWERS = 1024
    CLOSED_POOL = 4096
    WARMUP_BURSTS = 32
    #: closed-loop capacity is the median rate over chunks of this many
    #: bursts, so a short stall of the host does not set it
    CHUNK_BURSTS = 32
    #: bursts the closed-loop client keeps in flight. With one at a time
    #: the dispatcher idles between bursts and each burst pays thread
    #: wake-ups and a timed window wait, whose cost on a shared VM
    #: follows the host's scheduling, not the program: capacity then
    #: spread by 10-14% between runs, against 2-4% with four in flight.
    DEPTH = 4
    TRACE_CLOSED_PER_S = 12.0

    def __init__(self, seed: int) -> None:
        super().__init__()
        g_table, g_first, g_open, g_closed, g_trace = inputs.rngs(seed, 5)
        self.X = inputs.uniform_grid(g_table, self.N, self.D)
        self.g_open, self.g_closed = g_open, g_closed
        # both traced-run passes regenerate identical bursts from this
        self.trace_seed = int(g_trace.integers(2**31))
        # the set-up request's answer is always checked
        self.first = dataclasses.replace(
            self.make_bursts(g_first, 1)[0][0], check=True
        )
        # No service-side deadline: a request late for the SLO is still
        # answered (and counted as a miss), so a host stall does not turn
        # into failed operations.
        self.config = ServeConfig(
            max_batch=64,
            max_wait_ms=2.0,
            max_queue_depth=256,
            tenant_weights=self.TENANT_WEIGHTS,
        )
        self.rows_done = 0
        self.counts = dict.fromkeys(
            ("sent", "completed", "shed", "expired", "failed"), 0
        )

    def make_bursts(self, rng, count: int):
        return inputs.bursts(
            rng,
            count,
            self.N,
            self.D,
            ks=self.KS,
            tenants=self.TENANT_SHARES,
            max_requests=self.MAX_REQUESTS,
            max_rows=self.MAX_ROWS,
            check_share=self.CHECK_SHARE,
        )

    def submit(self, svc, req, on_done):
        """Submit one request; returns (future or None if shed, seconds)."""
        self.counts["sent"] += 1
        self.attempted += 1
        t = time.perf_counter()
        try:
            with _span("bench.submit"):
                if req.kind == "idx":
                    handle = svc.submit(req.payload, req.k, tenant=req.tenant)
                else:
                    handle = svc.submit_rows(req.payload, req.k, tenant=req.tenant)
        except OverloadError:
            self.counts["shed"] += 1
            self.failed += 1
            return None, time.perf_counter() - t
        dt = time.perf_counter() - t
        handle.future.add_done_callback(on_done)
        return handle.future, dt

    def settle(self, req, fut) -> bool:
        """Tally a finished request; record its answer when sampled."""
        exc = fut.exception() if fut.done() else TimeoutError("never answered")
        if exc is None:
            self.counts["completed"] += 1
            self.rows_done += req.rows
            if req.check:
                Q = self.X[req.payload] if req.kind == "idx" else req.payload
                res = fut.result()
                self.record(Q, req.k, type(res)(res.distances.copy(), res.indices.copy()))
            return True
        self.failed += 1
        key = "expired" if isinstance(exc, KernelTimeoutError) else "failed"
        self.counts[key] += 1
        return False

    def start_service(self, X: np.ndarray):
        svc = KnnQueryService(X, self.config).start()
        latch = _Latch(1)
        fut, _ = self.submit(svc, self.first, latch.hit)
        latch.done.wait(30.0)
        self.settle(self.first, fut)
        return svc

    def setup_once(self) -> float:
        X = self.X.copy()  # a fresh table: the service builds its plan anew
        t = time.perf_counter()
        svc = self.start_service(X)
        dt = time.perf_counter() - t
        svc.stop()
        return dt

    def open_phase(self, svc, bursts_) -> dict:
        """Submit each burst at its due time from this one thread."""
        reqs = [req for burst in bursts_ for req in burst]
        done_at = np.full(len(reqs), np.nan)
        due_of = np.empty(len(reqs))
        futures: list = [None] * len(reqs)
        # counts callbacks, not futures: a future reads done before its
        # callbacks have run
        latch = _Latch(len(reqs))
        lags, submits = [], []
        slot = 0
        t_start = time.perf_counter() + 0.01
        for b, burst in enumerate(bursts_):
            due = t_start + b / self.OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - due)
            for req in burst:
                def on_done(_f, i=slot):
                    done_at[i] = time.perf_counter()
                    latch.hit()

                due_of[slot] = due
                futures[slot], dt = self.submit(svc, req, on_done)
                if futures[slot] is None:
                    latch.hit()
                submits.append(dt)
                slot += 1
        latch.done.wait(60.0)
        ok = np.array(
            [f is not None and self.settle(r, f) for r, f in zip(reqs, futures)],
            dtype=bool,
        )
        lat = (done_at - due_of)[ok]
        return {
            "lat_s": lat,
            "slo_met": int((lat * 1e3 <= self.slo_ms).sum()),
            "slo_sent": len(reqs),
            "lags_s": lags,
            "submits_s": submits,
        }

    def closed_phase(
        self, svc, pool, *, seconds=None, count=None, probe=False
    ) -> dict:
        """One client keeps ``DEPTH`` bursts in flight, submitting the
        next when the oldest is fully answered. Every ``CHUNK_BURSTS``
        bursts it drains and marks the chunk; with ``probe`` a reference
        probe runs then, outside the chunks' busy time."""
        rows = n = 0
        busy = 0.0  # client time in chunks, probes excluded
        submits, burst_lat, burst_end = [], [], []
        marks = []  # (time, busy, rows so far, full chunk?) per chunk
        inflight: collections.deque = collections.deque()
        t0 = time.perf_counter()

        def over() -> bool:
            if count is not None:
                return n >= count
            return time.perf_counter() - t0 >= seconds

        def finish() -> None:
            nonlocal rows
            burst, futs, latch, t_burst = inflight.popleft()
            latch.done.wait(60.0)
            burst_end.append(time.perf_counter())
            burst_lat.append(burst_end[-1] - t_burst)
            for req, fut in zip(burst, futs):
                if fut is not None and self.settle(req, fut):
                    rows += req.rows

        while not over():
            t_chunk = time.perf_counter()
            for _ in range(self.CHUNK_BURSTS):
                if over():
                    break
                if len(inflight) == self.DEPTH:
                    finish()
                burst = pool[n % len(pool)]
                n += 1
                latch = _Latch(len(burst))
                futs = []
                t_burst = time.perf_counter()
                for req in burst:
                    fut, dt = self.submit(svc, req, latch.hit)
                    submits.append(dt)
                    if fut is None:
                        latch.hit()
                    futs.append(fut)
                inflight.append((burst, futs, latch, t_burst))
            while inflight:
                finish()
            busy += time.perf_counter() - t_chunk
            full = n % self.CHUNK_BURSTS == 0
            marks.append((time.perf_counter(), busy, rows, full))
            if probe:
                self.speed.tick()
        elapsed = time.perf_counter() - t0
        if probe:
            self.speed.probe()
        edges = [(t0, 0.0, 0, True)] + marks
        # a last, partial chunk counts only when it is the only one
        chunks = [
            (t1, (r1 - r0) / (b1 - b0))
            for (_, b0, r0, _), (t1, b1, r1, full) in zip(edges, edges[1:])
            if full or len(marks) == 1
        ]
        return {
            "rows": rows,
            "bursts": n,
            "seconds": elapsed,
            "chunk_rates": np.array([r for _, r in chunks]),
            "chunk_ends": np.array([t for t, _ in chunks]),
            "burst_lat_s": np.asarray(burst_lat),
            "burst_ends": np.asarray(burst_end),
            "submits_s": submits,
        }

    def warm_up(self) -> None:
        self.svc = self.start_service(self.X)
        self.closed_pool = self.make_bursts(self.g_closed, self.CLOSED_POOL)
        self.closed_phase(
            self.svc, self.closed_pool[-self.WARMUP_BURSTS :], count=self.WARMUP_BURSTS
        )

    def measure(self, seconds: float) -> dict:
        svc = self.svc
        n_open = round(seconds * self.OPEN_SHARE * self.OPEN_RATE)
        opened = self.open_phase(svc, self.make_bursts(self.g_open, n_open))
        closed = self.closed_phase(
            svc, self.closed_pool, seconds=seconds * (1 - self.OPEN_SHARE), probe=True
        )
        svc.stop()
        # Open-loop latency is reported, not gated: on a shared 2-core VM
        # its median swung 15-58 ms between runs with the host's
        # scheduling noise, even at a fifth of capacity.
        self.counts["open_req_ms_p50"] = ledger.pct(opened["lat_s"], 50) * 1e3
        self.counts["open_req_ms_p90"] = ledger.pct(opened["lat_s"], 90) * 1e3
        self.counts["lag_ms_p99"] = ledger.pct(opened["lags_s"], 99) * 1e3
        raw = closed["burst_lat_s"]
        lat = self.normalised(raw, closed["burst_ends"])
        rates = closed["chunk_rates"]
        return {
            "lat_s": lat,
            "raw_lat_s": raw,
            "p50_s": ledger.pct(lat, 50),
            "p90_s": ledger.pct(lat, 90),
            "rows_per_s": float(
                np.median(rates / self.speed.scale(closed["chunk_ends"]))
            ),
            "raw_rows_per_s": float(np.median(rates)),
            "slo_met": opened["slo_met"],
            "slo_sent": opened["slo_sent"],
        }

    def work_pass(self, seconds: float) -> dict:
        X = self.X.copy()  # a fresh table: the pass pays plan build again
        n_open = max(8, round(seconds / 4 * self.OPEN_RATE))
        n_closed = max(8, round(seconds * self.TRACE_CLOSED_PER_S))
        g_open, g_closed = inputs.rngs(self.trace_seed, 2)
        open_bursts = self.make_bursts(g_open, n_open)
        closed_pool = self.make_bursts(g_closed, n_closed)
        rows_before = self.rows_done
        with _span("bench.start"):
            svc = self.start_service(X)
        opened = self.open_phase(svc, open_bursts)
        closed = self.closed_phase(svc, closed_pool, count=n_closed)
        stats = svc.stats()
        with _span("bench.stop"):
            svc.stop()
        return {
            "work_s": closed["seconds"],
            "stats": stats,
            "rows": self.rows_done - rows_before,
            "lags_s": opened["lags_s"],
            "submits_s": opened["submits_s"] + closed["submits_s"],
            "e2e": {
                "open_bursts": n_open,
                "closed_bursts": n_closed,
                "req_ms_p50": ledger.pct(opened["lat_s"], 50) * 1e3,
                "rows_per_s": closed["rows"] / closed["seconds"],
            },
        }

    def layer_extras(self, untraced: dict) -> dict:
        st = untraced["stats"]
        windows = max(st["windows"], 1)
        solves = max(st["solve_calls"], 1)
        return {
            "serve.submit_us_p50": ledger.pct(untraced["submits_s"], 50) * 1e6,
            "serve.reqs_per_window": st["completed"] / windows,
            "serve.solves_per_window": st["solve_calls"] / windows,
            "serve.rows_per_solve": untraced["rows"] / solves,
            "loadgen.lag_ms_p99": ledger.pct(untraced["lags_s"], 99) * 1e3,
        }


WORKLOADS = {w.name: w for w in (OneshotTies, AllknnRkdtree, ServeBursts)}
