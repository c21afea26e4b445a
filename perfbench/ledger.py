"""Traced-run ledger, percentiles and host facts.

The ledger accounts for the traced wall clock lane by lane (one lane
per thread): the self-times of every span recorded on the lane, plus
the benchmark-side remainder the lane spent outside any span, add up to
the traced wall. Spans named ``bench.*`` are the benchmark's own
wrappers around public calls; every other span is the program's.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import threading

import numpy as np

BENCH_PREFIX = "bench."


def pct(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_thread_calls():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS library
    this process loaded, or ``None`` when there is none (or no
    ``/proc/self/maps`` to find it in)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in maps
                    if "openblas" in line.lower() and "/" in line
                }
            )
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's wheels rename the symbols (scipy_openblas..., 64-bit ints)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if set_ is not None and get is not None:
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    get.argtypes, get.restype = [], ctypes.c_int
                    return set_, get
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count in this process, if known."""
    calls = _openblas_thread_calls()
    return int(calls[1]()) if calls else None


def limit_blas_threads(n: int) -> None:
    """Set this process's OpenBLAS pool to ``n`` threads at run time, if
    an OpenBLAS library is loaded. No environment variable is set, so
    processes the program starts keep their own default pools."""
    calls = _openblas_thread_calls()
    if calls is not None:
        calls[0](n)


def host_info() -> dict:
    """What the numbers depend on: cores, BLAS build, thread settings."""
    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    threads_env = {
        key: os.environ.get(key)
        for key in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
        )
    }
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "threads_env": threads_env,
        "blas_threads": blas_threads(),
        "cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def build(tracer, window_start: float, wall: float) -> dict:
    """Ledger of one traced pass.

    ``window_start`` is the pass start on the tracer's clock (seconds
    since its epoch) and ``wall`` its length. Returns per-lane span
    self-times and remainders, ``coverage`` (share of the wall inside
    the program's own spans, any lane) and ``adds_up`` (every lane's
    self-times plus remainder equal the wall, and every span lies inside
    the window).
    """
    spans = [s for s in tracer.spans if not s.incomplete]
    by_id = {s.span_id: s for s in spans}
    child_s: dict[int, float] = {}
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is not None and parent.thread == s.thread:
            child_s[s.parent_id] = child_s.get(s.parent_id, 0.0) + s.duration
    main = threading.main_thread().ident & 0xFFFF
    eps = 1e-6 * max(wall, 1.0)
    lanes = []
    adds_up = True
    for tid in sorted({s.thread for s in spans}, key=lambda t: t != main):
        mine = [s for s in spans if s.thread == tid]
        names: dict[str, dict] = {}
        for s in mine:
            row = names.setdefault(s.name, {"count": 0, "self_s": 0.0})
            row["count"] += 1
            row["self_s"] += max(s.duration - child_s.get(s.span_id, 0.0), 0.0)
        roots = [
            s
            for s in mine
            if s.parent_id not in by_id or by_id[s.parent_id].thread != tid
        ]
        root_s = sum(s.duration for s in roots)
        self_sum = sum(row["self_s"] for row in names.values())
        remainder = wall - root_s
        inside = all(
            s.start >= window_start - eps and s.end <= window_start + wall + eps
            for s in roots
        )
        lane_ok = abs(self_sum - root_s) <= eps and remainder >= -eps and inside
        adds_up &= lane_ok
        lanes.append(
            {
                "lane": "main" if tid == main else f"thread-{tid}",
                "spans": names,
                "self_sum_s": self_sum,
                "remainder_s": remainder,
                "adds_up": lane_ok,
            }
        )
    top_program = [
        (s.start, s.end)
        for s in spans
        if not s.name.startswith(BENCH_PREFIX)
        and (s.parent_id not in by_id or by_id[s.parent_id].name.startswith(BENCH_PREFIX))
    ]
    coverage = _union_seconds(top_program) / wall if wall > 0 else 0.0
    return {"wall_s": wall, "lanes": lanes, "coverage": coverage, "adds_up": adds_up}
