"""How fast the host runs right now, from a fixed reference interleaved
with the measured calls.

On a shared VM the same code's per-call time drifts by a third within
minutes (another tenant on the physical core, frequency changes) with
no steal time and no change in CPU time, so neither CPU time nor longer
runs cancel it. A fixed reference run between calls slows by about the
same share. It has one part per resource the workloads lean on: a GEMM
(the kernel's rank update), a sort of an array twice the L2 (the
selection), a copy of an array far beyond the L2 (a large table
streamed through the shared cache) and an interpreter loop (the serve
layer's Python). None of it is program code, so a faster or slower
program moves the normalised numbers in full.

Every timing a timed run reports is normalised: multiplied by
``REF_SECONDS`` over the reference's local time, i.e. the time it would
have taken on a host that runs the reference in ``REF_SECONDS``.
"""

from __future__ import annotations

import time

import numpy as np

#: The reference's time on the 2-core x86 host (Intel Xeon, OpenBLAS
#: with one thread) this benchmark was tuned on, at its quiet speed. A
#: constant, never recalibrated: it only sets the scale of the
#: normalised numbers.
REF_SECONDS = 0.015
#: a probe is due after this many seconds of measured calls
PROBE_EVERY_S = 0.5
#: a call is normalised by the median of this many nearest probes
WINDOW = 3
#: a probe is the fastest of this many reference runs: a host hiccup
#: only ever adds time, and one run alone varied by ±20%
PROBE_RUNS = 3


class HostSpeed:
    """Reference probes, each ``(end time, seconds)``, and the scale
    they give to timings taken between them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.secs: list[float] = []
        self.last = -np.inf
        self.inputs: dict[str, np.ndarray] = {}

    def _allocate(self) -> None:
        """Fixed inputs, the same in every run whatever the workload
        seed, and preallocated outputs, so no page faults land inside
        the reference. Allocated at the first probe, which a run takes
        after it has read its peak RSS, so they are not counted in it."""
        rng = np.random.default_rng(0)
        big = rng.random(1 << 22)  # 32 MiB
        self.inputs = {
            "A": rng.random((384, 256)),
            "B": rng.random((256, 1024)),
            "C": np.empty((384, 1024)),
            "V": rng.random(1 << 19),  # 4 MiB
            "W": np.empty(1 << 19),
            "big": big,
            "big_out": np.empty_like(big),
        }

    def _reference(self) -> None:
        x = self.inputs
        np.matmul(x["A"], x["B"], out=x["C"])
        x["W"][:] = x["V"]
        x["W"].sort()
        np.copyto(x["big_out"], x["big"])
        s = 0
        for i in range(40_000):
            s += i * i

    def probe(self) -> None:
        if not self.inputs:
            self._allocate()
        best = np.inf
        for _ in range(PROBE_RUNS):
            t = time.perf_counter()
            self._reference()
            self.last = time.perf_counter()
            best = min(best, self.last - t)
        self.times.append(self.last)
        self.secs.append(best)

    def tick(self) -> None:
        """Probe if one is due; call between measured calls."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, at) -> np.ndarray:
        """``REF_SECONDS`` over the median of the ``WINDOW`` probes
        nearest each time in ``at``: multiply a duration by it, divide a
        rate by it."""
        times = np.asarray(self.times)
        secs = np.asarray(self.secs)
        at = np.atleast_1d(np.asarray(at, dtype=np.float64))
        w = min(WINDOW, len(times))
        nearest = np.argsort(np.abs(at[:, None] - times[None, :]), axis=1)[:, :w]
        return REF_SECONDS / np.median(secs[nearest], axis=1)

    def summary(self) -> dict:
        secs = np.asarray(self.secs)
        return {
            "probes": len(secs),
            "ref_ms_p50": float(np.median(secs)) * 1e3,
            "ref_ms_min": float(secs.min()) * 1e3,
            "ref_ms_max": float(secs.max()) * 1e3,
        }
