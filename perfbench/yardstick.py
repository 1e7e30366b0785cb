"""The paper's yardstick: portable-layer time over hand-written time.

Interleaves samples of the portable construct path with the
device-specific baselines in ``repro.apps.cg_native`` and
``repro.apps.blas_native`` on the same backend, so drift hits both
sides alike.  The CG state is rebuilt every few iterations: the paper's
iteration converges, and ``cg_iteration_native_cpu`` divides by zero
once a state has been iterated too often.

Both sides run on the threads backend, so the ratio measures the
portable layer's overhead only; it is reported, not gated.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro
from repro.apps import blas, blas_native, cg, cg_native

CG_N = 1024
BLAS_N = 1 << 16
ITERS_PER_STATE = 3


def _t(fn, *args):
    t = time.perf_counter_ns()
    out = fn(*args)
    return time.perf_counter_ns() - t, out


def measure(seconds: float) -> dict:
    """Run the three comparisons for about ``seconds`` in total."""
    backend = repro.active_backend()
    checks = []

    # CG iteration: portable (Fig. 12 construct mix) vs hand-chunked.
    port, nat = [], []
    deadline = time.perf_counter() + seconds / 2
    first = True
    while first or time.perf_counter() < deadline:
        sp = cg.make_paper_cg_state(CG_N)
        sn = cg_native.make_native_cpu_state(CG_N)
        for k in range(ITERS_PER_STATE):
            if k % 2:
                dn, _ = _t(cg_native.cg_iteration_native_cpu, backend, sn)
                dp, _ = _t(cg.cg_iteration_paper, sp)
            else:
                dp, _ = _t(cg.cg_iteration_paper, sp)
                dn, _ = _t(cg_native.cg_iteration_native_cpu, backend, sn)
            if not first:
                port.append(dp)
                nat.append(dn)
            ok = abs(sp["cond"] - sn["cond"]) <= 1e-12 * abs(sn["cond"])
            checks.append(("yardstick.cg_agrees", ok))
        first = False

    # AXPY / DOT at a size the threads backend chunks.
    rng = np.random.default_rng(0)
    xh, yh = rng.standard_normal(BLAS_N), rng.standard_normal(BLAS_N)
    xp, yp = repro.array(xh), repro.array(yh)
    xn, yn = xh.copy(), yh.copy()
    pa, na, pd, nd = [], [], [], []
    deadline = time.perf_counter() + seconds / 2
    first = True
    while first or time.perf_counter() < deadline:
        a = 1e-3
        d1, _ = _t(blas.axpy, BLAS_N, a, xp, yp)
        d2, _ = _t(blas_native.cpu_axpy, backend, BLAS_N, a, xn, yn)
        d3, vp = _t(blas.dot, BLAS_N, xp, yp)
        d4, vn = _t(blas_native.cpu_dot, backend, BLAS_N, xn, yn)
        if not first:
            pa.append(d1)
            na.append(d2)
            pd.append(d3)
            nd.append(d4)
        checks.append(("yardstick.dot_agrees", abs(vp - vn) <= 1e-12 * abs(vn)))
        first = False

    def ratio(p, n):
        return statistics.median(p) / statistics.median(n)

    return {
        "cg_x": ratio(port, nat),
        "axpy_x": ratio(pa, na),
        "dot_x": ratio(pd, nd),
        "samples": {"cg": len(port), "blas": len(pa)},
        "checks": len(checks),
        "checks_failed": [name for name, ok in checks if not ok][:20],
    }
