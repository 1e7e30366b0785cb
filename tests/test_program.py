"""Program-level dataflow IR and optimization passes (repro.ir.program).

Three layers:

* unit — def-use graph construction, non-adjacent fusion legality,
  dead-store elimination with external-reader demotion, allocation
  sinking with materialization, scheduler determinism, and the shared
  dead-store analysis behind lint rule V401;
* acceptance — the CG iteration body where global fusion merges a
  launch the PR 5 adjacent peephole provably cannot (pass-counter
  evidence in ``graph_stats()``);
* differential — every captured app body (CG, HPCCG, LBM, LBM3D) is
  **bit-identical** with the pass pipeline off vs on, across all four
  backend families.
"""

import numpy as np
import pytest

import repro
from repro.apps.cg import cg_solve, tridiagonal_system
from repro.apps.hpccg import build_27pt_problem, hpccg_solve
from repro.apps.lbm import LBM
from repro.apps.lbm3d import LBM3D
from repro.core import current_context, parallel_for, parallel_reduce
from repro.core.exceptions import PreferencesError
from repro.graph import enabled_passes, graph_stats, reset_graph_stats
from repro.ir.compile import (
    cache_info,
    clear_cache,
    compile_kernel,
    set_executor_mode,
)
from repro.ir.deadstore import trace_dead_stores
from repro.ir.nativecache import resolve_cc
from repro.ir.verify import verify_kernel
from repro.perfmodel import PerfModel, choose_workers, get_profile

#: Backend families the differential suite sweeps.
BACKENDS = ["serial", "threads", "cuda-sim", "multi-sim"]


@pytest.fixture(autouse=True)
def fresh():
    clear_cache()
    repro.set_graph_mode("on")
    reset_graph_stats()
    yield
    repro.set_passes_mode(None)
    repro.set_graph_mode(None)
    repro.set_backend("serial")
    set_executor_mode(None)
    clear_cache()


def axpy(i, alpha, x, y):
    x[i] += alpha * y[i]


def dot(i, x, y):
    return x[i] * y[i]


def write_scaled(i, x, t):
    t[i] = 2.0 * x[i]


def overwrite(i, y, t):
    t[i] = y[i]


def read_into(i, t, out):
    out[i] = t[i] + 1.0


def _passes():
    return graph_stats()["passes"]


# ---------------------------------------------------------------------------
# The mode knob
# ---------------------------------------------------------------------------


class TestPassesKnob:
    def test_presets(self):
        assert enabled_passes("all") == (
            frozenset({"fuse", "dse", "sink", "schedule"}),
            False,
        )
        assert enabled_passes("none") == (frozenset(), False)
        assert enabled_passes("peephole") == (frozenset({"fuse"}), True)

    def test_comma_list(self):
        repro.set_passes_mode("fuse,dse")
        assert enabled_passes() == (frozenset({"fuse", "dse"}), False)
        assert set(repro.passes_mode().split(",")) == {"fuse", "dse"}

    def test_invalid_mode_raises(self):
        with pytest.raises(PreferencesError):
            repro.set_passes_mode("fuse,turbo")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PYACC_PASSES", "peephole")
        repro.set_passes_mode(None)  # drop the session override
        assert repro.passes_mode() == "peephole"

    def test_mode_reported_in_stats(self):
        repro.set_passes_mode("none")
        assert graph_stats()["passes_mode"] == "none"
        assert cache_info()["graph"]["passes_mode"] == "none"


# ---------------------------------------------------------------------------
# Program construction: the def-use graph
# ---------------------------------------------------------------------------


class TestProgramConstruction:
    def test_nodes_edges_and_rw_sets(self):
        repro.set_backend("threads")
        repro.set_passes_mode("none")
        ctx = current_context()
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        with ctx.capture() as cap:
            parallel_for(64, axpy, 2.0, x, y)
            parallel_reduce(64, dot, x, x)
        inst = cap.graph("t").instantiate(ctx)
        prog = inst.program
        assert len(prog.nodes) == 2
        xs = id(ctx.backend().unwrap(x))
        ys = id(ctx.backend().unwrap(y))
        assert prog.nodes[0].writes == {xs}
        assert prog.nodes[0].reads == {xs, ys}
        assert prog.nodes[1].writes == frozenset()
        assert prog.nodes[1].reads == {xs}
        # The dot depends on the axpy through x: one RAW edge.
        assert (0, 1, "raw") in prog.edges()

    def test_describe_mentions_passes(self):
        repro.set_backend("threads")
        repro.set_passes_mode("all")
        ctx = current_context()
        x, y = repro.array(np.zeros(64)), repro.array(np.ones(64))
        with ctx.capture() as cap:
            parallel_for(64, axpy, 2.0, x, y)
            parallel_reduce(64, dot, x, x)
        inst = cap.graph("t").instantiate(ctx)
        text = inst.program.describe()
        assert "pass trail" in text
        assert "fuse: merged" in text


# ---------------------------------------------------------------------------
# Per-trace access positions (the eager launch's written/read ids)
# ---------------------------------------------------------------------------


def _app_cases():
    """``(kernel, dims, args, reduce)`` for every app kernel family."""
    from repro.apps import blas, cg as cg_app, hpccg
    from repro.apps.lbm import CX, CY, WEIGHTS, lbm_kernel, speed_squared_kernel

    r = np.random.default_rng(7)
    n, m = 64, 12
    lower, diag, upper, _ = tridiagonal_system(n)
    ell, _, _ = build_27pt_problem(4, 4, 4)
    f = 1.0 + 0.01 * r.standard_normal(9 * m * m)

    def v(*shape):
        return r.standard_normal(shape)

    return {
        "axpy1d": (blas.axpy_kernel_1d, (n,), [0.5, v(n), v(n)], False),
        "dot1d": (blas.dot_kernel_1d, (n,), [v(n), v(n)], True),
        "axpy2d": (blas.axpy_kernel_2d, (m, m), [0.5, v(m, m), v(m, m)], False),
        "dot2d": (blas.dot_kernel_2d, (m, m), [v(m, m), v(m, m)], True),
        "copy": (cg_app.copy_kernel, (n,), [v(n), np.zeros(n)], False),
        "xpby": (cg_app.xpby_kernel, (n,), [0.9, v(n), v(n)], False),
        "jacobi": (
            cg_app.jacobi_apply_kernel, (n,), [1.0 / diag, v(n), np.zeros(n)], False
        ),
        "matvec": (
            cg_app.matvec_tridiag_kernel,
            (n,),
            [lower, diag, upper, v(n), np.zeros(n), n],
            False,
        ),
        "ell": (
            hpccg.matvec_ell_kernel,
            (ell.n,),
            [ell.cols, ell.vals, v(ell.n), np.zeros(ell.n)],
            False,
        ),
        "lbm": (
            lbm_kernel,
            (m, m),
            [f.copy(), f.copy(), f.copy(), 0.8, WEIGHTS, CX, CY, m],
            False,
        ),
        "lbm_speed": (speed_squared_kernel, (m, m), [f, CX, CY, m], True),
    }


def _staged(fn, dims, args, reduce):
    from repro.core.api import _stage

    plan, _ = _stage("reduce" if reduce else "for", dims, fn, tuple(args), "add")
    return plan


def _shape_switch(i, a, b, y):
    if a.shape[0] > 8:
        y[i] = a[i]
    else:
        y[i] = b[i]


class TestAccessPositions:
    @pytest.mark.parametrize("name", list(_app_cases()))
    def test_ids_match_effects_summary(self, name):
        from repro.core.api import plan_access_ids
        from repro.ir.effects import snapshot_effects

        fn, dims, args, reduce = _app_cases()[name]
        plan = _staged(fn, dims, args, reduce)
        written, read = plan_access_ids(plan)
        eff = snapshot_effects(plan)
        assert set(written) == eff.write_ids
        assert set(read) == eff.read_ids
        assert len(written) == len(set(written))
        assert len(read) == len(set(read))
        # Memoized on the trace: the same tuple object on every call.
        trace = plan.kernel.trace
        assert trace.access_positions() is trace.access_positions()

    def test_aliased_argument_counts_once(self):
        from repro.apps.cg import xpby_kernel
        from repro.core.api import plan_access_ids

        a = np.ones(16)
        plan = _staged(xpby_kernel, (16,), [0.5, a, a], False)
        written, read = plan.kernel.trace.access_positions()
        assert written == (2,) and sorted(read) == [1, 2]
        assert plan_access_ids(plan) == ((id(a),), (id(a),))

    @pytest.mark.filterwarnings("ignore:.*V402")  # each shape skips one array
    def test_shape_specialized_traces_keep_their_own_positions(self):
        from repro.core.api import plan_access_ids

        big, small = np.ones(16), np.ones(4)
        b16, b4, y16, y4 = np.ones(16), np.ones(4), np.zeros(16), np.zeros(4)
        p_big = _staged(_shape_switch, (16,), [big, b16, y16], False)
        p_small = _staged(_shape_switch, (4,), [small, b4, y4], False)
        assert p_big.kernel.trace is not p_small.kernel.trace
        assert plan_access_ids(p_big) == ((id(y16),), (id(big),))
        assert plan_access_ids(p_small) == ((id(y4),), (id(b4),))
        # Launch the big shape again: still its own positions.
        p_again = _staged(_shape_switch, (16,), [big, b16, y16], False)
        assert plan_access_ids(p_again) == ((id(y16),), (id(big),))

    def test_ir_walk_runs_once_per_trace(self, monkeypatch):
        from repro.ir import nodes as N

        fn, dims, args, _ = _app_cases()["ell"]
        parallel_for(dims, fn, *args)  # compile, and the first launch
        calls = []
        real_walk = N.walk

        def counting_walk(node):
            calls.append(node)
            return real_walk(node)

        monkeypatch.setattr(N, "walk", counting_walk)
        for _ in range(5):
            parallel_for(dims, fn, *args)
        assert calls == []
        # A fresh trace walks once, on its first query only.
        fresh_trace = _staged(fn, dims, args, False).kernel.trace
        fresh_trace._access_memo = None
        fresh_trace.access_positions()
        walked = len(calls)
        assert walked > 0
        fresh_trace.access_positions()
        assert len(calls) == walked


# ---------------------------------------------------------------------------
# Global (non-adjacent) fusion
# ---------------------------------------------------------------------------


class TestNonAdjacentFusion:
    def test_peephole_blocks_global_merges(self):
        n = 256
        repro.set_backend("threads")
        ctx = current_context()
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        z = repro.array(np.full(n, 3.0))
        u, v = repro.array(np.zeros(n)), repro.array(np.full(n, 2.0))

        def body():
            parallel_for(n, axpy, 1.0, x, y)
            parallel_reduce(n, dot, z, z)
            parallel_for(n, axpy, 1.0, u, v)

        repro.set_passes_mode("peephole")
        with ctx.capture() as cap:
            body()
        inst = cap.graph("t").instantiate(ctx)
        # The reduce merged into its adjacent for-producer; the trailing
        # axpy is stuck behind the merged reduce node.
        assert inst.n_nodes == 2
        assert _passes()["fuse"]["nonadjacent"] == 0
        assert _passes()["fuse"]["declined"].get("reduce-producer", 0) >= 1

    def test_global_fusion_hops_the_reduce(self):
        n = 256
        repro.set_backend("threads")
        repro.set_passes_mode("fuse")
        ctx = current_context()
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
        z = repro.array(np.full(n, 3.0))
        u, v = repro.array(np.zeros(n)), repro.array(np.full(n, 2.0))
        with ctx.capture() as cap:
            parallel_for(n, axpy, 1.0, x, y)
            parallel_reduce(n, dot, z, z)
            parallel_for(n, axpy, 1.0, u, v)
        inst = cap.graph("t").instantiate(
            ctx, return_convention=("single", 1)
        )
        assert inst.n_nodes == 1
        assert _passes()["fuse"]["applied"] == 2
        assert _passes()["fuse"]["nonadjacent"] >= 1
        # Replays remain exact: capture ran one iteration eagerly, the
        # replay adds a second identical update.
        s = inst.replay()
        assert s == pytest.approx(9.0 * n)
        assert np.array_equal(repro.to_host(x), np.full(n, 2.0))
        assert np.array_equal(repro.to_host(u), np.full(n, 4.0))

    def test_cg_app_nonadjacent_acceptance(self):
        """ISSUE 6 acceptance: the CG update body fuses non-adjacently
        where the PR 5 peephole could not, bit-identically."""
        n = 3000
        lower, diag, upper, b = tridiagonal_system(n)

        def run(mode):
            clear_cache()
            repro.set_backend("threads")
            repro.set_passes_mode(mode)
            reset_graph_stats()
            res = cg_solve(lower, diag, upper, b, tol=1e-10)
            return res, _passes()["fuse"]

        res_p, fuse_p = run("peephole")
        res_a, fuse_a = run("all")
        assert fuse_p["nonadjacent"] == 0
        assert fuse_p["declined"].get("reduce-producer", 0) >= 1
        assert fuse_a["nonadjacent"] >= 1
        assert fuse_a["applied"] > fuse_p["applied"]
        assert np.array_equal(res_p.x, res_a.x)
        assert res_p.residual_norms == res_a.residual_norms


# ---------------------------------------------------------------------------
# Dead-store elimination
# ---------------------------------------------------------------------------


class TestDeadStoreElimination:
    def _capture_dead_store(self, ctx, n=128):
        x = repro.array(np.arange(n, dtype=np.float64))
        y = repro.array(np.full(n, 7.0))
        t = repro.array(np.zeros(n))
        out = repro.array(np.zeros(n))
        with ctx.capture() as cap:
            parallel_for(n, write_scaled, x, t)  # dead: killed below
            parallel_for(n, overwrite, y, t)
            parallel_for(n, read_into, t, out)
        return cap, (x, y, t, out)

    def test_dse_disables_dead_node(self):
        repro.set_backend("serial")
        repro.set_passes_mode("dse")
        ctx = current_context()
        cap, (x, y, t, out) = self._capture_dead_store(ctx)
        inst = cap.graph("t").instantiate(ctx)
        assert _passes()["dse"]["applied"] == 1
        assert inst.n_nodes == 3
        assert inst.n_active_nodes == 2
        inst.replay()
        assert np.array_equal(repro.to_host(out), np.full(128, 8.0))
        assert np.array_equal(repro.to_host(t), np.full(128, 7.0))

    def test_dse_external_reader_demotes(self):
        repro.set_backend("serial")
        repro.set_passes_mode("dse")
        ctx = current_context()
        cap, (x, y, t, out) = self._capture_dead_store(ctx)
        inst = cap.graph("t").instantiate(ctx)
        assert inst.n_active_nodes == 2
        inst.replay()
        # An uncaptured launch reads t: the access guard trips and the
        # next replay runs the unoptimized capture.
        probe = repro.array(np.zeros(128))
        parallel_for(128, read_into, t, probe)
        inst.replay()
        assert inst.n_active_nodes == 3
        assert _passes()["dse"]["demoted"] >= 1
        assert np.array_equal(repro.to_host(out), np.full(128, 8.0))

    def test_dse_declines_read_before_kill(self):
        repro.set_backend("serial")
        repro.set_passes_mode("dse")
        ctx = current_context()
        n = 64
        x = repro.array(np.ones(n))
        y = repro.array(np.full(n, 7.0))
        t = repro.array(np.zeros(n))
        out = repro.array(np.zeros(n))
        with ctx.capture() as cap:
            parallel_for(n, write_scaled, x, t)
            parallel_for(n, read_into, t, out)  # reads t before the kill
            parallel_for(n, overwrite, y, t)
        inst = cap.graph("t").instantiate(ctx)
        assert _passes()["dse"]["applied"] == 0
        assert _passes()["dse"]["declined"].get("read-before-kill", 0) >= 1
        assert inst.n_active_nodes == 3


# ---------------------------------------------------------------------------
# Allocation sinking
# ---------------------------------------------------------------------------


class TestAllocationSinking:
    def test_sink_applies_on_device_arrays(self):
        repro.set_backend("cuda-sim")
        repro.set_passes_mode("sink")
        ctx = current_context()
        n = 128
        x = repro.array(np.arange(n, dtype=np.float64))
        t = repro.array(np.zeros(n))
        out = repro.array(np.zeros(n))
        with ctx.capture() as cap:
            parallel_for(n, overwrite, x, t)
            parallel_for(n, read_into, t, out)
        inst = cap.graph("t").instantiate(ctx)
        assert _passes()["sink"]["applied"] >= 1
        inst.replay()
        # to_host fires the materialization guard before reading: the
        # leased buffer's contents land back in the real storage.
        expect = np.arange(n, dtype=np.float64) + 1.0
        assert np.array_equal(repro.to_host(out), expect)
        assert np.array_equal(
            repro.to_host(t), np.arange(n, dtype=np.float64)
        )
        assert _passes()["sink"]["demoted"] >= 1
        # Demotion is permanent but sound: further replays stay exact.
        inst.replay()
        assert np.array_equal(repro.to_host(out), expect)

    def test_sink_declines_host_visible_arrays(self):
        repro.set_backend("threads")  # raw ndarrays in user hands
        repro.set_passes_mode("sink")
        ctx = current_context()
        n = 128
        x = repro.array(np.ones(n))
        t = repro.array(np.zeros(n))
        with ctx.capture() as cap:
            parallel_for(n, overwrite, x, t)
        cap.graph("t").instantiate(ctx)
        assert _passes()["sink"]["applied"] == 0
        assert _passes()["sink"]["declined"].get("host-visible", 0) >= 1


# ---------------------------------------------------------------------------
# Perfmodel-driven scheduler
# ---------------------------------------------------------------------------


class TestSchedulerPass:
    def test_choose_workers_deterministic(self):
        n = 1 << 18
        ck = compile_kernel(axpy, 1, [2.0, np.zeros(n), np.zeros(n)])
        model = PerfModel(get_profile("rome"))
        c1 = choose_workers(model, ck.stats, n, 1, 8)
        c2 = choose_workers(model, ck.stats, n, 1, 8)
        assert c1 == c2
        assert 1 <= c1.workers <= 8
        assert len(c1.candidates) == 8
        # The pick is the strict argmin, ties to the smallest count.
        best = min(t for _, t in c1.candidates)
        assert c1.predicted == best
        assert c1.workers == min(w for w, t in c1.candidates if t == best)

    def test_schedule_pass_pins_and_is_stable(self):
        repro.set_backend("threads")
        repro.set_passes_mode("schedule")
        ctx = current_context()
        n = 1 << 16
        x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))

        def capture_once():
            with ctx.capture() as cap:
                parallel_for(n, axpy, 2.0, x, y)
            return cap.graph("t").instantiate(ctx)

        inst1 = capture_once()
        inst2 = capture_once()
        s1 = inst1.nodes[0].plan.schedule
        s2 = inst2.nodes[0].plan.schedule
        assert s1.n_chunks == s2.n_chunks
        assert s1.inline == s2.inline
        st = _passes()["schedule"]
        # Either the model repicked the backend's split (declined as
        # "unchanged") or it pinned a new one — both must be recorded.
        assert st["applied"] + st["declined"].get("unchanged", 0) >= 2
        if st["applied"]:
            assert inst1.nodes[0].plan.schedule_pin is not None

    def test_reduce_declines_fold_order(self):
        repro.set_backend("threads")
        repro.set_passes_mode("schedule")
        ctx = current_context()
        n = 1 << 16
        x = repro.array(np.ones(n))
        with ctx.capture() as cap:
            parallel_reduce(n, dot, x, x)
        cap.graph("t").instantiate(ctx)
        st = _passes()["schedule"]
        assert st["declined"].get("reduce-fold-order", 0) >= 1
        assert st["applied"] == 0

    def test_schedule_differential_bit_identical(self):
        n = 1 << 16
        host_off = None
        for mode in ("none", "schedule"):
            clear_cache()
            repro.set_backend("threads")
            repro.set_passes_mode(mode)
            ctx = current_context()
            x, y = repro.array(np.zeros(n)), repro.array(np.ones(n))
            with ctx.capture() as cap:
                parallel_for(n, axpy, 1.5, x, y)
            inst = cap.graph("t").instantiate(ctx)
            for _ in range(3):
                inst.replay()
            host = repro.to_host(x)
            if host_off is None:
                host_off = host
            else:
                assert np.array_equal(host, host_off)


# ---------------------------------------------------------------------------
# Shared dead-store analysis (lint rule V401)
# ---------------------------------------------------------------------------


class TestV401SharedAnalysis:
    def test_unconditional_killer_still_flagged(self):
        def k(i, x):
            x[i] = 1.0
            x[i] = 2.0

        diags = verify_kernel(k, 8, [np.zeros(8)])
        assert [d.rule for d in diags] == ["V401"]

    def test_guarded_killer_is_not_a_kill(self):
        # The old heuristic flagged this: the guarded second store does
        # not always execute, so the first store is live on the
        # not-taken path.
        def k(i, c, x):
            x[i] = 1.0
            if c[i] > 0:
                x[i] = 2.0

        assert verify_kernel(k, 8, [np.ones(8), np.zeros(8)]) == ()

    def test_same_guard_pair_is_dead(self):
        def k(i, c, x):
            if c[i] > 0:
                x[i] = 1.0
            if c[i] > 0:
                x[i] = 2.0

        diags = verify_kernel(k, 8, [np.ones(8), np.zeros(8)])
        assert "V401" in [d.rule for d in diags]

    def test_guard_written_between_is_not_dead(self):
        def k(i, c, x):
            if c[i] > 0:
                x[i] = 1.0
            c[i] = -1.0
            if c[i] > 0:
                x[i] = 2.0

        diags = verify_kernel(k, 8, [np.ones(8), np.zeros(8)])
        assert "V401" not in [d.rule for d in diags]

    def test_trace_dead_stores_unit(self):
        def k(i, x, y):
            x[i] = 1.0
            y[i] = 3.0
            x[i] = 2.0

        ck = compile_kernel(k, 1, [np.zeros(8), np.zeros(8)])
        pairs = trace_dead_stores(ck.trace)
        assert pairs == [(0, 2)]


# ---------------------------------------------------------------------------
# Differential: app bodies, passes off vs on, all backends
# ---------------------------------------------------------------------------


def _with_mode(backend, mode, fn):
    clear_cache()
    repro.set_backend(backend)
    repro.set_passes_mode(mode)
    reset_graph_stats()
    return fn()


@pytest.mark.parametrize("backend", BACKENDS)
class TestDifferential:
    def test_cg(self, backend):
        lower, diag, upper, b = tridiagonal_system(500)

        def run():
            return cg_solve(lower, diag, upper, b, tol=1e-8)

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        assert np.array_equal(off.x, on.x)
        assert off.iterations == on.iterations
        assert off.residual_norms == on.residual_norms

    def test_hpccg(self, backend):
        a, b, _ = build_27pt_problem(5, 5, 4)

        def run():
            return hpccg_solve(a, b, tol=1e-8)

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        assert np.array_equal(off.x, on.x)
        assert off.residual_norms == on.residual_norms

    def test_lbm(self, backend):
        def run():
            sim = LBM(12, tau=0.8, lid_velocity=0.05)
            sim.step(4)
            return (
                repro.to_host(sim.df1).copy(),
                repro.to_host(sim.df2).copy(),
                repro.to_host(sim.df).copy(),
            )

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        for a, b in zip(off, on):
            assert np.array_equal(a, b)

    def test_lbm3d(self, backend):
        def run():
            sim = LBM3D(6, tau=0.8, lid_velocity=0.05)
            sim.step(3)
            return (
                repro.to_host(sim.df1).copy(),
                repro.to_host(sim.df2).copy(),
            )

        off = _with_mode(backend, "none", run)
        on = _with_mode(backend, "all", run)
        for a, b in zip(off, on):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Native executor × pass pipeline
# ---------------------------------------------------------------------------


class TestNativeExecutorDifferential:
    """The pass pipeline (fusion, DSE, sinking, scheduling) composes
    with the native rung: passes-on under the native executor is
    bit-identical to passes-on under codegen — including DSE's
    re-lowering of the store-pruned trace."""

    @pytest.mark.skipif(
        resolve_cc() is None, reason="no C compiler on host"
    )
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_cg_native_matches_codegen_with_passes(self, backend):
        lower, diag, upper, b = tridiagonal_system(300)

        def run():
            return cg_solve(lower, diag, upper, b, tol=1e-8)

        set_executor_mode("codegen")
        ref = _with_mode(backend, "all", run)
        set_executor_mode("native")
        out = _with_mode(backend, "all", run)
        set_executor_mode(None)
        assert np.array_equal(ref.x, out.x)
        assert ref.iterations == out.iterations
        assert ref.residual_norms == out.residual_norms

    @pytest.mark.skipif(
        resolve_cc() is None, reason="no C compiler on host"
    )
    def test_lbm_native_matches_codegen_with_passes(self):
        def run():
            sim = LBM(10, tau=0.8, lid_velocity=0.05)
            sim.step(4)
            return (
                repro.to_host(sim.df1).copy(),
                repro.to_host(sim.df2).copy(),
                repro.to_host(sim.df).copy(),
            )

        set_executor_mode("codegen")
        ref = _with_mode("serial", "all", run)
        set_executor_mode("native")
        out = _with_mode("serial", "all", run)
        set_executor_mode(None)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
