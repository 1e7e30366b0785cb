"""Helpers shared by ``run.py`` and its child processes.

Nothing here imports the program under test.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import NamedTuple

class Workload(NamedTuple):
    kind: str  # "inproc": one measured process; "start": one child per op
    tail_p: float  # tail percentile (see below)
    op_name: str  # the name users cite for one operation's time
    op_scale: float  # milliseconds -> the unit of op_name
    op_unit: str
    ref: str  # reference loop of the gated op times (see below); "" = wall


#: Every workload.  The tail percentile is the highest of p99/p90/p75 with
#: at least 10 samples beyond it in a normal run.  Cold and warm starts
#: yield too few samples (about 8 and 45 a run) for a tail above the
#: median, so their tail is the median.
WORKLOADS = {
    "eager-mix": Workload("inproc", 99.0, "launch_us", 1e3, "us", "python"),
    "cg-solve": Workload("inproc", 90.0, "solve_ms", 1.0, "ms", "python"),
    "lbm-steps": Workload("inproc", 90.0, "step_ms", 1.0, "ms", "memory"),
    "cold-start": Workload("start", 50.0, "cold_first_result_s", 1e-3, "s", ""),
    "warm-start": Workload("start", 50.0, "warm_first_result_s", 1e-3, "s", "python"),
}

#: Host-speed correction.  On a shared host the speed of the interpreter
#: and of memory drifts (by up to 1.6x on the 2-vCPU machine the benchmark
#: was tuned on, in phases of seconds to a minute, separately per vCPU),
#: so a run's median depends on how much of it fell in a slow phase.  A
#: fixed reference loop that stresses what the operation is bound by is
#: timed next to the operations, on the same thread, and the corrected
#: time is ``wall * REF_NS[ref] / reference-loop time``: the time at a
#: host speed where the loop takes ``REF_NS[ref]``.  "python" is an empty
#: interpreter loop; "memory" streams two 16 MiB arrays, like an LBM step.
REF_NS = {"python": 350_000, "memory": 6_000_000}
PYTHON_REF_ITERS = 20000
MEMORY_REF_WORDS = 2 << 20


def python_ref_ns() -> int:
    """Time one pass of the interpreter reference loop, in nanoseconds."""
    t = time.perf_counter_ns()
    for _ in range(PYTHON_REF_ITERS):
        pass
    return time.perf_counter_ns() - t


class MemoryRef:
    """The memory reference loop: copy one array into another, then add
    them, once pinned to each vCPU the process may use; the slowest pass
    counts, as an LBM step runs a chunk on each vCPU and waits for the
    slowest.  The buffers stay resident for the process's life; ``nbytes``
    says how much of its peak RSS they are."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.cpus = os.sched_getaffinity(0)
        self.src = np.ones(MEMORY_REF_WORDS)
        self.dst = np.zeros(MEMORY_REF_WORDS)
        self.nbytes = self.src.nbytes + self.dst.nbytes

    def __call__(self) -> int:
        times = []
        for cpu in sorted(self.cpus):
            os.sched_setaffinity(0, {cpu})  # this thread only
            t = time.perf_counter_ns()
            self.np.copyto(self.dst, self.src)
            self.np.add(self.src, self.dst, out=self.dst)
            times.append(time.perf_counter_ns() - t)
        os.sched_setaffinity(0, self.cpus)
        return max(times)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0–100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def summarize(values, tail_p: float) -> dict:
    """Median, quartiles and the ``tail_p`` percentile of ``values``.

    The tail percentile is fixed per workload (a data-dependent choice
    would flip between runs); ``tail_beyond`` says how many samples lie
    beyond it.
    """
    n = len(values)
    return {
        "n": n,
        "p50": statistics.median(values),
        "p25": percentile(values, 25),
        "p75": percentile(values, 75),
        "tail": percentile(values, tail_p),
        "tail_label": f"p{tail_p:g}",
        "tail_beyond": n * (100.0 - tail_p) / 100.0,
        "mean": statistics.fmean(values),
    }
