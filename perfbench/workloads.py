"""The benchmark's workloads, run inside a child process.

Each in-process workload has the same shape:

* ``setup()`` builds the problem from the seed, compiles every kernel
  and warms up (graphs captured, arenas sized);
* ``prepare(i)`` (untimed) snapshots what the oracle needs;
* ``op(i)`` is the timed operation — one eager launch, one CG solve or
  one LBM step;
* ``check(i, pre, result)`` (untimed) checks the result against an
  oracle that does not use the program;
* ``end_checks()`` runs after the timed loop;
* ``work()`` gives computed bytes and flops per operation from the
  compiled kernels' static statistics.

``start_child`` is the cold/warm-start operation: a fresh interpreter
that builds small CG, HPCCG, LBM and BLAS problems and runs each to its
first result.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import repro
from repro.apps import blas, cg, hpccg, lbm
from repro.ir.compile import compile_kernel


def _close(got: float, want: float, scale: float, rtol: float = 1e-12) -> bool:
    return abs(got - want) <= rtol * max(abs(scale), 1e-300)


def _host(a) -> np.ndarray:
    return repro.to_host(a)


class EagerMix:
    """A seeded random sequence of small eager launches."""

    name = "eager-mix"
    SIZES_1D = (256, 512, 1024, 2048, 4096)
    SIZES_2D = (16, 32, 64)
    ELL_GRIDS = ((4, 4, 4), (8, 8, 8))
    KINDS = ("axpy1d", "dot1d", "axpy2d", "dot2d", "copy", "xpby", "matvec", "ell")
    PER_KIND = 600  # divisible by every kind's number of sizes
    SEQ_LEN = PER_KIND * len(KINDS)
    SPOTS = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.v1 = {}
        for n in self.SIZES_1D:
            lower, diag, upper, _ = cg.tridiagonal_system(n)
            self.v1[n] = {
                "x": repro.array(rng.standard_normal(n)),
                "y": repro.array(rng.standard_normal(n)),
                "c": repro.array(np.zeros(n)),
                "b": repro.array(rng.standard_normal(n)),
                "s": repro.array(np.zeros(n)),
                "lower": repro.array(lower),
                "diag": repro.array(diag),
                "upper": repro.array(upper),
            }
        self.v2 = {
            m: {
                "x": repro.array(rng.standard_normal((m, m))),
                "y": repro.array(rng.standard_normal((m, m))),
            }
            for m in self.SIZES_2D
        }
        self.ell = {}
        for grid in self.ELL_GRIDS:
            a, _, _ = hpccg.build_27pt_problem(*grid)
            self.ell[a.n] = {
                "cols": repro.array(a.cols),
                "vals": repro.array(a.vals),
                "x": repro.array(rng.standard_normal(a.n)),
                "y": repro.array(np.zeros(a.n)),
            }
        self.keys = {
            "axpy1d": self.SIZES_1D, "dot1d": self.SIZES_1D,
            "axpy2d": self.SIZES_2D, "dot2d": self.SIZES_2D,
            "copy": self.SIZES_1D, "xpby": self.SIZES_1D,
            "matvec": self.SIZES_1D, "ell": tuple(self.ell),
        }
        # Every (kind, size) appears equally often within its kind and
        # every kind equally often, so the mix does not depend on the
        # seed; the seed sets the order, the scalars and the spot checks.
        items = [
            (kind, size)
            for kind in self.KINDS
            for size in self.keys[kind]
            for _ in range(self.PER_KIND // len(self.keys[kind]))
        ]
        self.seq = []
        for k in rng.permutation(len(items)):
            kind, size = items[k]
            scalar = float(rng.uniform(-0.9, 0.9))
            spots = rng.integers(0, size, size=(self.SPOTS, 2 if kind.endswith("2d") else 1))
            self.seq.append((kind, size, scalar, spots))
        self.launches = {}
        # Compile every (kind, size) and warm the caches.
        for kind in self.KINDS:
            for size in self.keys[kind]:
                self._launch(kind, size, 0.5)

    def _launch(self, kind, size, a):
        if kind == "axpy1d":
            v = self.v1[size]
            return repro.parallel_for(size, blas.axpy_kernel_1d, a, v["x"], v["y"])
        if kind == "dot1d":
            v = self.v1[size]
            return repro.parallel_reduce(size, blas.dot_kernel_1d, v["x"], v["y"])
        if kind == "axpy2d":
            v = self.v2[size]
            return repro.parallel_for((size, size), blas.axpy_kernel_2d, a, v["x"], v["y"])
        if kind == "dot2d":
            v = self.v2[size]
            return repro.parallel_reduce((size, size), blas.dot_kernel_2d, v["x"], v["y"])
        if kind == "copy":
            v = self.v1[size]
            return repro.parallel_for(size, cg.copy_kernel, v["x"], v["c"])
        if kind == "xpby":
            v = self.v1[size]
            return repro.parallel_for(size, cg.xpby_kernel, a, v["x"], v["b"])
        if kind == "matvec":
            v = self.v1[size]
            return repro.parallel_for(
                size, cg.matvec_tridiag_kernel,
                v["lower"], v["diag"], v["upper"], v["x"], v["s"], size,
            )
        v = self.ell[size]
        return repro.parallel_for(size, hpccg.matvec_ell_kernel, v["cols"], v["vals"], v["x"], v["y"])

    def prepare(self, i):
        kind, size, _, spots = self.seq[i % self.SEQ_LEN]
        self.launches[(kind, size)] = self.launches.get((kind, size), 0) + 1
        if kind == "axpy1d":
            return _host(self.v1[size]["x"])[spots[:, 0]].copy()
        if kind == "axpy2d":
            return _host(self.v2[size]["x"])[spots[:, 0], spots[:, 1]].copy()
        if kind == "xpby":
            return _host(self.v1[size]["b"])[spots[:, 0]].copy()
        return None

    def op(self, i):
        kind, size, a, _ = self.seq[i % self.SEQ_LEN]
        return self._launch(kind, size, a)

    def check(self, i, pre, result) -> bool:
        kind, size, a, spots = self.seq[i % self.SEQ_LEN]
        if kind in ("dot1d", "dot2d"):
            v = self.v1[size] if kind == "dot1d" else self.v2[size]
            prod = _host(v["x"]) * _host(v["y"])
            return _close(result, float(np.sum(prod)), float(np.sum(np.abs(prod))))
        if kind == "axpy2d":
            v = self.v2[size]
            r, c = spots[:, 0], spots[:, 1]
            step = a * _host(v["y"])[r, c]
            want, scale = pre + step, np.abs(pre) + np.abs(step)
            return all(_close(g, w_, sc) for g, w_, sc in zip(_host(v["x"])[r, c], want, scale))
        idx = spots[:, 0]
        if kind == "ell":
            v = self.ell[size]
            cols, vals, x = _host(v["cols"]), _host(v["vals"]), _host(v["x"])
            got = _host(v["y"])[idx]
            for g, row in zip(got, idx):
                terms = vals[row] * x[cols[row]]
                if not _close(g, float(terms.sum()), float(np.abs(terms).sum())):
                    return False
            return True
        v = self.v1[size]
        x = _host(v["x"])
        if kind == "copy":
            return bool(np.array_equal(_host(v["c"])[idx], x[idx]))
        if kind == "axpy1d":
            parts = (pre, a * _host(v["y"])[idx])
            got = x[idx]
        elif kind == "xpby":
            parts = (x[idx], a * pre)
            got = _host(v["b"])[idx]
        else:  # matvec, terms in the kernel's order
            lower, diag, upper = _host(v["lower"]), _host(v["diag"]), _host(v["upper"])
            left = np.where(idx > 0, lower[idx] * x[np.maximum(idx - 1, 0)], 0.0)
            right = np.where(idx < size - 1, upper[idx] * x[np.minimum(idx + 1, size - 1)], 0.0)
            parts = (left, diag[idx] * x[idx], right)
            got = _host(v["s"])[idx]
        want = sum(parts)
        scale = sum(np.abs(t) for t in parts)
        return all(_close(g, w_, sc) for g, w_, sc in zip(got, want, scale))

    def end_checks(self) -> list:
        return []

    def work(self) -> dict:
        total_bytes = total_flops = 0.0
        count = 0
        for (kind, size), n in self.launches.items():
            stats, lanes = self._stats(kind, size)
            total_bytes += n * stats.bytes_per_lane * lanes
            total_flops += n * stats.flops * lanes
            count += n
        count = max(count, 1)
        return {"bytes_per_op": total_bytes / count, "flops_per_op": total_flops / count}

    def _stats(self, kind, size):
        if kind in ("axpy1d", "dot1d"):
            v = self.v1[size]
            fn = blas.axpy_kernel_1d if kind == "axpy1d" else blas.dot_kernel_1d
            args = [0.5, v["x"], v["y"]] if kind == "axpy1d" else [v["x"], v["y"]]
            return compile_kernel(fn, 1, args, reduce=kind == "dot1d").stats, size
        if kind in ("axpy2d", "dot2d"):
            v = self.v2[size]
            fn = blas.axpy_kernel_2d if kind == "axpy2d" else blas.dot_kernel_2d
            args = [0.5, v["x"], v["y"]] if kind == "axpy2d" else [v["x"], v["y"]]
            return compile_kernel(fn, 2, args, reduce=kind == "dot2d").stats, size * size
        if kind == "ell":
            v = self.ell[size]
            args = [v["cols"], v["vals"], v["x"], v["y"]]
            return compile_kernel(hpccg.matvec_ell_kernel, 1, args).stats, size
        v = self.v1[size]
        fn, args = {
            "copy": (cg.copy_kernel, [v["x"], v["c"]]),
            "xpby": (cg.xpby_kernel, [0.5, v["x"], v["b"]]),
            "matvec": (cg.matvec_tridiag_kernel,
                       [v["lower"], v["diag"], v["upper"], v["x"], v["s"], size]),
        }[kind]
        return compile_kernel(fn, 1, args).stats, size


class CGSolve:
    """Repeated tridiagonal CG solves with seeded right-hand sides."""

    name = "cg-solve"
    N = 4096
    TOL = 1e-10
    POOL = 16

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.lower, self.diag, self.upper, _ = cg.tridiagonal_system(self.N)
        self.rhs = [rng.standard_normal(self.N) for _ in range(self.POOL)]
        self.first = {}  # pool index -> (iterations, sha256 of x)
        self.iterations = 0
        self.solves = 0
        res = cg.cg_solve(self.lower, self.diag, self.upper, self.rhs[0], tol=self.TOL)
        if not self._record(0, res):
            raise RuntimeError("cg-solve warm-up solve failed its oracle")

    def prepare(self, i):
        return None

    def op(self, i):
        return cg.cg_solve(self.lower, self.diag, self.upper, self.rhs[i % self.POOL], tol=self.TOL)

    def _record(self, k, res) -> bool:
        b = self.rhs[k]
        r = b - cg.tridiag_matvec_host(self.lower, self.diag, self.upper, res.x)
        ok = bool(res.converged) and float(np.linalg.norm(r)) <= self.TOL * float(np.linalg.norm(b))
        digest = hashlib.sha256(np.ascontiguousarray(res.x).tobytes()).hexdigest()
        seen = self.first.setdefault(k, (res.iterations, digest))
        return ok and seen == (res.iterations, digest)

    def check(self, i, pre, result) -> bool:
        self.solves += 1
        self.iterations += result.iterations
        return self._record(i % self.POOL, result)

    def end_checks(self) -> list:
        return []

    def pool_iterations(self) -> int:
        """Iterations summed over the distinct right-hand sides solved —
        a pure function of the seed once every pool entry has run."""
        return sum(it for it, _ in self.first.values())

    def work(self) -> dict:
        """Computed bytes/flops of one CG iteration (matvec, two dots,
        two axpys, one xpby) from the compiled kernels' statistics."""
        n = self.N
        x = np.zeros(n)
        parts = [
            (cg.matvec_tridiag_kernel, [self.lower, self.diag, self.upper, x, x, n], False),
            (blas.dot_kernel_1d, [x, x], True),
            (blas.axpy_kernel_1d, [0.5, x, x], False),
            (blas.dot_kernel_1d, [x, x], True),
            (blas.axpy_kernel_1d, [0.5, x, x], False),
            (cg.xpby_kernel, [0.5, x, x], False),
        ]
        stats = [compile_kernel(fn, 1, args, reduce=red).stats for fn, args, red in parts]
        per_iter_bytes = sum(s.bytes_per_lane for s in stats) * n
        per_iter_flops = sum(s.flops for s in stats) * n
        iters = self.iterations / max(self.solves, 1)
        return {
            "bytes_per_step": per_iter_bytes,
            "flops_per_step": per_iter_flops,
            "bytes_per_op": per_iter_bytes * iters,
            "flops_per_op": per_iter_flops * iters,
        }


def seeded_lbm(n: int, seed: int) -> lbm.LBM:
    """A lid-driven cavity whose interior density carries a seeded
    1e-3 perturbation."""
    rng = np.random.default_rng(seed)
    sim = lbm.LBM(n, tau=0.8, lid_velocity=0.05)
    rho = np.ones((n, n))
    rho[1:-1, 1:-1] += 1e-3 * rng.standard_normal((n - 2, n - 2))
    ux = np.zeros((n, n))
    uy = np.zeros((n, n))
    uy[0, :] = 0.05
    feq = lbm.equilibrium(rho, ux, uy).reshape(-1)
    sim.df = repro.array(feq.copy())
    sim.df1 = repro.array(feq.copy())
    sim.df2 = repro.array(feq.copy())
    return sim


class LBMSteps:
    """D2Q9 lid-driven cavity stepped in a loop."""

    name = "lbm-steps"
    N = 384
    SMALL_N = 48
    SMALL_STEPS = 6
    MASS_RTOL = 1e-4
    WARM_STEPS = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.sim = seeded_lbm(self.N, self.seed)
        self.mass0 = float(self.sim.distribution().sum())
        self.sim.step(self.WARM_STEPS)

    def prepare(self, i):
        return None

    def op(self, i):
        self.sim.step(1)

    def check(self, i, pre, result) -> bool:
        return True

    def end_checks(self) -> list:
        checks = [("lbm.is_stable", bool(self.sim.is_stable()))]
        f = self.sim.distribution()
        mass = float(f.sum())
        checks.append(("lbm.finite", bool(np.isfinite(f).all())))
        checks.append(("lbm.mass", abs(mass - self.mass0) <= self.MASS_RTOL * self.mass0))
        # Bit-identity of graph replay against plain dispatch, same steps.
        on = seeded_lbm(self.SMALL_N, self.seed)
        on.step(self.SMALL_STEPS)
        repro.set_graph_mode("off")
        try:
            off = seeded_lbm(self.SMALL_N, self.seed)
            off.step(self.SMALL_STEPS)
        finally:
            repro.set_graph_mode(None)
        checks.append(("lbm.graph_off_bit_identical",
                       bool(np.array_equal(on.distribution(), off.distribution()))))
        return checks

    def work(self) -> dict:
        s = self.sim
        args = [s.df, s.df1, s.df2, s.tau, s.dw, s.dcx, s.dcy, s.n]
        stats = compile_kernel(lbm.lbm_kernel, 2, args).stats
        sites = self.N * self.N
        return {
            "sites_per_step": sites,
            "bytes_per_step": stats.bytes_per_lane * sites,
            "flops_per_step": stats.flops * sites,
            "bytes_per_op": stats.bytes_per_lane * sites,
            "flops_per_op": stats.flops * sites,
        }


IN_PROCESS = {w.name: w for w in (EagerMix, CGSolve, LBMSteps)}


# ---------------------------------------------------------------------------
# Cold / warm start
# ---------------------------------------------------------------------------


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def start_child(seed: int) -> tuple:
    """Build and run the four small problems to their first result.

    Returns ``(first_ns, digest, checks)``: the ``perf_counter_ns`` at
    which the last first result was ready, a hash of every result array
    (cold and warm children must agree bit for bit) and the list of
    ``(name, ok)`` oracle checks against host NumPy.
    """
    rng = np.random.default_rng(seed)
    lower, diag, upper, _ = cg.tridiagonal_system(256)
    b = rng.standard_normal(256)
    res_cg = cg.cg_solve(lower, diag, upper, b, tol=1e-10)

    a, _, _ = hpccg.build_27pt_problem(6, 6, 6)
    xs = 1.0 + 0.1 * rng.standard_normal(a.n)
    bh = a.matvec_host(xs)
    res_hp = hpccg.hpccg_solve(a, bh, tol=1e-10)

    sim = seeded_lbm(32, seed)
    mass0 = float(sim.distribution().sum())
    sim.step(4)
    f = sim.distribution()

    n = 1000
    x0 = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    alpha = float(rng.uniform(-1, 1))
    x, y = repro.array(x0), repro.array(y0)
    blas.axpy(n, alpha, x, y)
    d = blas.dot(n, x, y)
    xh = repro.to_host(x)
    first_ns = time.perf_counter_ns()

    digest = _digest(res_cg.x, res_hp.x, f, xh, np.array([d]))
    r_cg = b - cg.tridiag_matvec_host(lower, diag, upper, res_cg.x)
    r_hp = bh - a.matvec_host(res_hp.x)
    prod = xh * y0
    checks = [
        ("cg.residual", res_cg.converged and np.linalg.norm(r_cg) <= 1e-10 * np.linalg.norm(b)),
        ("hpccg.residual", res_hp.converged and np.linalg.norm(r_hp) <= 1e-10 * np.linalg.norm(bh)),
        ("lbm.finite", bool(np.isfinite(f).all())),
        ("lbm.mass", abs(float(f.sum()) - mass0) <= 1e-4 * mass0),
        ("blas.axpy", bool(np.array_equal(xh, x0 + alpha * y0))),
        ("blas.dot", _close(d, float(np.sum(prod)), float(np.sum(np.abs(prod))))),
    ]
    return first_ns, digest, [(name, bool(ok)) for name, ok in checks]
