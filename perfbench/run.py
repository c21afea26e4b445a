"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot_ties --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics; ``--trace 1`` repeats a fixed amount of the
workload's work untraced and then traced, and reports the per-layer
metrics. Details (host, counts, the traced ledger) are printed as JSON
lines first; the last line of standard output is the result object.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: OpenBLAS threads in the benchmark process. With the default pool of
#: ``nproc`` spin-waiting threads, any other runnable thread on the host,
#: the service's own dispatcher included, stalls every GEMM: on a 2-core
#: host a one-core background load moved the one-shot p90 from 48 to
#: 93 ms, and left it unchanged with one BLAS thread. On the one CPU the
#: process is pinned to, a second thread could only wait.
BLAS_THREADS = 1


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts from now on, on the
    last CPU it may use, where the platform can pin.

    Client, service dispatcher and reference probes then share one
    core: no cross-core wake-ups, whose cost on a shared VM follows the
    neighbours, and the probes time the core the work runs on.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def metric_specs(trace: int) -> list[dict]:
    """The metrics a run reports, from BENCHMARK.json (one source of truth)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()  # before numpy starts any thread
    sys.path.insert(0, str(SRC))
    import ledger
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    ledger.limit_blas_threads(BLAS_THREADS)
    specs = metric_specs(args.trace)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        out = workload.traced_run(args.seconds)
    else:
        out = workload.timed_run(args.seconds)
    print(json.dumps({"host": ledger.host_info(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({"detail": out["detail"]}, default=str))
    metrics = {
        m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
        for m in specs
    }
    print(
        json.dumps(
            {
                "correct": bool(out["correct"]),
                "attempted": int(workload.attempted),
                "failed": int(workload.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
