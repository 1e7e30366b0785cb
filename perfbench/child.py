"""One child process of the benchmark; ``run.py`` starts it.

Modes:

``run``        set up an in-process workload, run the timed loop, check,
               report;
``start``      a cold- or warm-start sample (import, small problems, first
               result);
``probe``      import the program and report its effective configuration;
``yardstick``  the portable-vs-hand-written comparison.

``--spawn-ns`` is the parent's ``time.perf_counter_ns()`` just before
the child was started (CLOCK_MONOTONIC on Linux, shared by processes),
so set-up and first-result times include interpreter start-up.  The
report is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

from common import REF_NS, WORKLOADS, MemoryRef, python_ref_ns, summarize
from spans import Tracer


def _now() -> int:
    return time.perf_counter_ns()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def effective_config() -> dict:
    """The settings the program resolved, as it reports them."""
    import numpy as np

    import repro
    from repro.ir import nativecache
    from repro.ir.validate import active_validate_mode
    from repro.ir.verify import active_verify_mode

    backend = repro.active_backend()
    cc = nativecache.resolve_cc()
    cc_version = "none"
    if cc is not None:
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            ).stdout
            cc_version = out.splitlines()[0] if out else "unknown"
        except (OSError, subprocess.SubprocessError):
            cc_version = "unknown"
    return {
        "backend": backend.name,
        "threads": getattr(backend, "n_threads", None),
        "executor": repro.executor_mode(),
        "graph": repro.graph_mode(),
        "passes": repro.passes_mode(),
        "verify": active_verify_mode(),
        "validate": active_validate_mode(),
        "cc": cc or "none",
        "cc_version": cc_version,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _counters() -> dict:
    import repro
    from repro.ir import arena

    info = repro.cache_info()
    return {
        "hits": info["hits"],
        "misses": info["misses"],
        "graph": info["graph"],
        "native": info["native"],
        "disk": info["disk"],
        "arena": arena.global_stats(),
    }


def layer_metrics(
    tr: Tracer, op_phase: str, traced_ops: int, all_ops: int, before: dict, after: dict
) -> dict:
    """Per-layer metrics from the tracer's aggregates and counter deltas.

    Per-call times come from ``op_phase``; compile-pipeline totals from
    the ``setup`` phase.  Counts are per operation: span counts over the
    ``traced_ops`` that ran traced, counter deltas (taken around the
    whole loop) over ``all_ops``.
    """
    traced_ops, all_ops = max(traced_ops, 1), max(all_ops, 1)
    calls = lambda name: tr.stat(op_phase, name)[0]  # noqa: E731
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    executes = calls("backends.threads.execute")
    bodies = calls("ir.codegen.run") + calls("ir.cgen.run")
    ar = after["arena"]
    drawn = ar["buffers_created"] + ar["buffers_reused"]
    cgen_lower_self = tr.total_ms("setup", "ir.cgen.lower") - tr.total_ms(
        "setup", "ir.nativecache.compile_source"
    )
    return {
        "core.api.dispatch_us": tr.mean_us(op_phase, "core.api.dispatch", self_time=True),
        "core.resolve_us": tr.mean_us(op_phase, "core.resolve"),
        "core.schedule_us": tr.mean_us(op_phase, "core.schedule"),
        "ir.compile.lookup_us": tr.mean_us(op_phase, "ir.compile.lookup"),
        "ir.compile.hit_ratio": (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
        "ir.verify.launch_us": tr.mean_us(op_phase, "ir.verify.launch"),
        "faults.execute_plan_us": tr.mean_us(op_phase, "faults.execute_plan", self_time=True),
        "ir.writes.note_us": tr.mean_us(op_phase, "ir.writes.note"),
        "graph.instantiate_ms": tr.mean_us(op_phase, "graph.instantiate") / 1e3,
        "graph.passes_ms": tr.mean_us(op_phase, "graph.passes") / 1e3,
        "graph.instantiates": calls("graph.instantiate") / traced_ops,
        "graph.replay_us": tr.mean_us(op_phase, "graph.replay", self_time=True),
        "graph.replays": calls("graph.replay") / traced_ops,
        "graph.fused_pairs": (
            after["graph"]["fused_pairs"] - before["graph"]["fused_pairs"]
        ) / all_ops,
        "ir.codegen.run_ms": tr.mean_us(op_phase, "ir.codegen.run") / 1e3,
        "ir.cgen.run_ms": tr.mean_us(op_phase, "ir.cgen.run") / 1e3,
        "backends.threads.execute_ms": tr.mean_us(
            op_phase, "backends.threads.execute", self_time=True
        ) / 1e3,
        "backends.threads.chunks": bodies / executes if executes else 0.0,
        "ir.arena.bytes_allocated": float(ar["bytes_allocated"]),
        "ir.arena.reuse_ratio": ar["buffers_reused"] / drawn if drawn else 0.0,
        "ir.tracer.trace_ms": tr.total_ms("setup", "ir.tracer.trace"),
        "ir.optimize.ms": tr.total_ms("setup", "ir.optimize"),
        "ir.verify.ms": tr.total_ms("setup", "ir.verify"),
        "ir.codegen.lower_ms": tr.total_ms("setup", "ir.codegen.lower"),
        "ir.cgen.lower_ms": max(cgen_lower_self, 0.0),
        "ir.nativecache.cc_s": tr.total_ms("setup", "ir.nativecache.cc") / 1e3,
        "ir.compilecache.load_ms": tr.total_ms("setup", "ir.compilecache.load"),
    }


#: Counter values at process start (what a fresh child begins with).
_ZERO_COUNTERS = {"hits": 0, "misses": 0, "graph": {"fused_pairs": 0}}


def _compile_counts(c: dict) -> dict:
    return {
        "ir.nativecache.compiled": float(c["native"]["compiled"]),
        "ir.nativecache.disk_hits": float(c["native"]["disk_hits"]),
        "ir.compilecache.disk_hits": float(c["disk"]["disk_hits"]),
        "ir.compilecache.compiles": float(c["disk"]["compiles"]),
    }


#: Operations run in blocks of at least this long, with the workload's
#: reference loop timed between blocks.
BLOCK_NS = 20_000_000


def timed_loop(w, seconds: float, i0: int, tracer=None, ref=None, ref_ns: int = 0) -> dict:
    """Closed loop, one caller: time ``w.op`` until ``seconds`` pass.

    With a reference loop ``ref``, each block's times are also scaled by
    ``ref_ns`` over the mean of the reference-loop times before and after
    it (``common.REF_NS``).  An exception or an oracle mismatch fails the
    operation; it is counted and never retried."""
    durs, scaled, failures = [], [], []
    failed = 0
    i = i0
    deadline = _now() + int(seconds * 1e9)
    cal = ref() if ref is not None else 0
    block = []
    block_end = _now() + BLOCK_NS
    while True:
        pre = w.prepare(i)
        if tracer is not None:
            tracer.op = i + 1
        t = _now()
        try:
            result, err = w.op(i), None
        except Exception as exc:
            result, err = None, f"{type(exc).__name__}: {exc}"
        block.append(_now() - t)
        if err is None:
            try:
                if not w.check(i, pre, result):
                    err = "oracle mismatch"
            except Exception as exc:
                err = f"oracle raised {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            if len(failures) < 20:
                failures.append(f"op {i}: {err}")
        i += 1
        now = _now()
        if now >= block_end or now >= deadline:
            durs.extend(block)
            if ref is not None:
                nxt = ref()
                scaled.extend(d * 2 * ref_ns / (cal + nxt) for d in block)
                cal = nxt
            block = []
            block_end = _now() + BLOCK_NS
            if now >= deadline:
                break
    return {"durs": durs, "scaled": scaled, "next": i, "failures": failures, "failed": failed}


def run_inprocess(args, import_s: float) -> dict:
    from workloads import IN_PROCESS

    tracer = Tracer(origin_ns=args.spawn_ns) if args.trace else None
    if tracer is not None:
        tracer.install()
    w = IN_PROCESS[args.workload](args.seed)
    w.setup()
    setup_s = (_now() - args.spawn_ns) / 1e9
    report = {"setup_s": setup_s, "import_s": import_s}

    ref_kind = WORKLOADS[args.workload].ref
    rss_setup = _peak_rss_mb()
    ref = MemoryRef() if ref_kind == "memory" else python_ref_ns if ref_kind else None
    before = _counters()
    untraced, traced, failures = [], [], []
    untraced_ref = []
    failed = 0
    i = 0
    if tracer is None:
        blocks = [(args.seconds, False)]
    else:
        # Alternate untraced and traced blocks so drift hits both alike.
        n = max(2, 2 * round(args.seconds / 2.0))
        blocks = [(args.seconds / n, k % 2 == 1) for k in range(n)]
        tracer.phase = "loop"
    for seconds, on in blocks:
        if on:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        out = timed_loop(w, seconds, i, tracer if on else None, ref, REF_NS.get(ref_kind, 0))
        i = out["next"]
        (traced if on else untraced).extend(out["durs"])
        if not on:
            untraced_ref.extend(out["scaled"])
        failed += out["failed"]
        failures.extend(out["failures"])
    if tracer is not None:
        tracer.uninstall()
    # The memory reference's buffers are resident through the loop.
    ref_mb = getattr(ref, "nbytes", 0) / 2**20
    report["peak_rss_mb"] = max(rss_setup, _peak_rss_mb() - ref_mb)
    after = _counters()

    attempted = i
    for name, ok in w.end_checks():
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"end check failed: {name}")
    work = w.work()
    report["config"] = effective_config()
    untraced_s = sum(untraced) / 1e9
    tail_p = WORKLOADS[args.workload].tail_p
    report.update({
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "durs_ms": [d / 1e6 for d in untraced],
        "ref_durs_ms": [d / 1e6 for d in untraced_ref],
        "work": work,
        "gbps_computed": work["bytes_per_op"] * len(untraced) / untraced_s / 1e9 if untraced else 0.0,
    })
    if hasattr(w, "pool_iterations"):
        report["cg_pool_iterations"] = w.pool_iterations()
        report["cg_iterations_total"] = w.iterations
        report["cg_solves"] = w.solves
    if tracer is not None:
        report["traced_ops"] = summarize([d / 1e6 for d in traced], tail_p)
        layers = layer_metrics(tracer, "loop", len(traced), i, before, after)
        layers.update(_compile_counts(before))
        layers["import_s"] = import_s
        report["layers"] = layers
        tracer.dump(args.trace_out, os.getpid())
    return report


def run_start(args, import_s: float, pre_ref_ns: int) -> dict:
    """One start.  ``pre_ref_ns`` is the reference loop timed before the
    import; it is left out of the first-result time."""
    import repro
    from workloads import start_child

    tracer = Tracer(origin_ns=args.spawn_ns) if args.trace else None
    if tracer is not None:
        tracer.install()
    failures = []
    first_ns, digest, checks = _now(), None, []
    try:
        first_ns, digest, checks = start_child(args.seed)
    except Exception as exc:
        failures.append(f"start: {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.uninstall()
    # The reference loop again, once the result is in.
    cal = (pre_ref_ns + python_ref_ns()) / 2
    first_s = (first_ns - args.spawn_ns - pre_ref_ns) / 1e9
    # Counters are read only now: cache_info() imports more modules.
    after = _counters()
    failures += [f"check failed: {name}" for name, ok in checks if not ok]
    report = {
        "first_result_s": first_s,
        "first_result_ref_s": first_s * REF_NS["python"] / cal,
        "import_s": import_s,
        "digest": digest,
        "failures": failures,
        "executor": repro.executor_mode(),
        "compiles": after["disk"]["compiles"],
        "native_compiled": after["native"]["compiled"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, "setup", 1, 1, _ZERO_COUNTERS, after)
        layers.update(_compile_counts(after))
        layers["import_s"] = import_s
        report["layers"] = layers
        tracer.dump(args.trace_out, os.getpid())
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", required=True,
                    choices=("run", "start", "probe", "yardstick"))
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    # A start brackets its run with the reference loop (common.REF_NS).
    pre_ref_ns = python_ref_ns() if args.mode == "start" else 0
    t = _now()
    import repro  # noqa: F401  (timed: this is the program's import cost)

    import_s = (_now() - t) / 1e9
    if args.mode == "run":
        report = run_inprocess(args, import_s)
    elif args.mode == "start":
        report = run_start(args, import_s, pre_ref_ns)
    elif args.mode == "probe":
        report = {"config": effective_config()}
    else:
        import yardstick

        report = yardstick.measure(args.seconds)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
