"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cg-solve --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``run.py`` never imports the program: it
starts child processes (``perfbench/child.py``) in a hermetic
environment, collects their reports, checks them, prints a table of
every metric by name and unit, and ends its standard output with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, and a Chrome trace-event file is written.  The exit
code is nonzero when any operation failed or an oracle disagreed.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import WORKLOADS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups (processes) per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Wall-clock budget of one run, children included.
BUDGET_S = 170.0
#: Seconds the traced run spends on the portable-vs-hand-written ratio.
YARDSTICK_S = 2.0

#: Metric names and units come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


class ChildFailed(Exception):
    pass


class Run:
    """One run: the hermetic environment, its temporary files and children."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t0 = time.monotonic()
        OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.n_children = 0
        self.trace_files: list = []
        self.cleared = {k: v for k, v in os.environ.items() if k.startswith("PYACC_")}
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYACC_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        # os.cpu_count() ignores the CPU mask; the benchmark honours it.
        env["PYACC_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
        # A preferences file that never exists: defaults as users get them.
        env["PYACC_PREFERENCES"] = str(self.work / "LocalPreferences.toml")
        if WORKLOADS[workload].kind == "start":
            env["PYACC_EXECUTOR"] = "native"
        self.env = env

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.t0)

    def fresh_cache(self) -> Path:
        d = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        (d / "compile").mkdir()
        (d / "native").mkdir()
        return d

    def spawn(self, mode: str, cache: Path, *, seconds: float = 0.0, trace: bool = False) -> dict:
        """Run one child to completion and return its report."""
        self.n_children += 1
        out = self.work / f"child-{self.n_children}.json"
        trace_out = self.work / f"trace-{self.n_children}.json"
        env = dict(self.env)
        env["PYACC_COMPILE_CACHE"] = str(cache / "compile")
        env["PYACC_NATIVE_CACHE"] = str(cache / "native")
        spawn_ns = time.perf_counter_ns()
        cmd = [
            sys.executable, str(HERE / "child.py"), "--mode", mode,
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--spawn-ns", str(spawn_ns), "--out", str(out),
            "--trace-out", str(trace_out),
        ]
        timeout = max(self.remaining(), 1.0)
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0 or not out.exists():
            sys.stderr.write(proc.stderr)
            raise ChildFailed(f"{mode} child exited with {proc.returncode}")
        if trace and trace_out.exists():
            self.trace_files.append((mode, trace_out))
        with open(out) as fh:
            return json.load(fh)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def run_inproc(s: Run) -> dict:
    if s.trace:
        reps = [s.spawn("run", s.fresh_cache(), seconds=s.seconds, trace=True)]
    else:
        # The timed seconds are split over SETUP_REPS processes, each set
        # up afresh: per-process effects (hash seed, memory placement)
        # average out, and each set-up is timed.
        reps = [
            s.spawn("run", s.fresh_cache(), seconds=s.seconds / SETUP_REPS)
            for _ in range(SETUP_REPS)
        ]
    rep = reps[0]
    tail_p = WORKLOADS[s.workload].tail_p
    durs = [d for r in reps for d in r["durs_ms"]]
    ref_durs = [d for r in reps for d in r["ref_durs_ms"]]
    res = {
        "report": {k: v for k, v in rep.items() if not k.endswith("durs_ms")},
        "setup_times": [r["setup_s"] for r in reps],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": [f for r in reps for f in r["failures"]][:20],
        "config": rep["config"],
        "ops": summarize(durs, tail_p),
        "ops_per_s": len(durs) / (sum(durs) / 1e3),
        "ref_ops": summarize(ref_durs, tail_p) if ref_durs else None,
        "ref_ops_per_s": len(ref_durs) / (sum(ref_durs) / 1e3) if ref_durs else 0.0,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "work": rep["work"],
    }
    if s.trace:
        layers = dict(rep["layers"])
        work = rep["work"]
        layers["kernel.bytes_per_step_computed"] = work.get("bytes_per_step", work["bytes_per_op"])
        layers["kernel.flops_per_step_computed"] = work.get("flops_per_step", work["flops_per_op"])
        layers["kernel.gbps_computed"] = rep["gbps_computed"]
        layers["apps.cg.iterations"] = float(rep.get("cg_pool_iterations", 0))
        layers["bench.trace_overhead_x"] = rep["traced_ops"]["p50"] / res["ops"]["p50"]
        res["layers"] = layers
        res["traced_ops"] = rep["traced_ops"]
    return res


# ---------------------------------------------------------------------------
# Cold / warm start
# ---------------------------------------------------------------------------


def run_starts(s: Run) -> dict:
    cold = s.workload == "cold-start"
    failures: list = []
    setup_times, fill_dir, fill_digest, config = [], None, None, None
    for _ in range(1 if s.trace else SETUP_REPS):
        t = time.perf_counter()
        if cold:
            config = s.spawn("probe", s.fresh_cache())["config"]
        else:
            # Set-up of a warm start is filling the cache with a cold one.
            fill_dir = s.fresh_cache()
            fill = s.spawn("start", fill_dir)
            if fill["failures"] or fill["compiles"] == 0:
                raise ChildFailed(f"cache fill failed: {fill['failures'] or 'no compiles'}")
            fill_digest = fill["digest"]
        setup_times.append(time.perf_counter() - t)
    if not cold:
        config = s.spawn("probe", fill_dir)["config"]

    untraced, traced, layers, rss, ref_ms = [], [], [], [], []
    attempted = failed = 0
    ref = fill_digest
    deadline = time.monotonic() + s.seconds
    k = 0
    while (k == 0 or time.monotonic() < deadline) and s.remaining() > 30:
        on = s.trace and k % 2 == 1
        cache = s.fresh_cache() if cold else fill_dir
        attempted += 1
        try:
            rep = s.spawn("start", cache, trace=on)
        except ChildFailed as exc:
            failed += 1
            failures.append(f"start {k}: {exc}")
            k += 1
            continue
        errs = list(rep["failures"])
        if rep["executor"] != "native":
            errs.append(f"executor {rep['executor']!r}, expected 'native'")
        if ref is None:
            ref = rep["digest"]
        if rep["digest"] != ref:
            errs.append("results differ bit-wise from the reference start")
        if cold and rep["compiles"] == 0:
            errs.append("cold start compiled nothing: cache was not empty")
        if not cold and (rep["compiles"] or rep["native_compiled"]):
            errs.append(
                f"warm start compiled {rep['compiles']} kernels "
                f"and {rep['native_compiled']} native objects"
            )
        if errs:
            failed += 1
            failures.extend(f"start {k}: {e}" for e in errs)
        (traced if on else untraced).append(rep["first_result_s"] * 1e3)
        if not on:
            ref_ms.append(rep["first_result_ref_s"] * 1e3)
        rss.append(rep["peak_rss_mb"])
        if on:
            layers.append(rep["layers"])
        if cold:
            shutil.rmtree(cache, ignore_errors=True)
        k += 1

    if not untraced:
        raise ChildFailed(f"no start completed: {failures[:3]}")
    res = {
        "setup_times": setup_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "config": config,
        "ops": summarize(untraced, WORKLOADS[s.workload].tail_p),
        "ops_per_s": len(untraced) / (sum(untraced) / 1e3),
        "ref_ops": summarize(ref_ms, WORKLOADS[s.workload].tail_p),
        "ref_ops_per_s": len(ref_ms) / (sum(ref_ms) / 1e3),
        "peak_rss_mb": max(rss) if rss else 0.0,
    }
    if s.trace:
        avg = {
            key: statistics.fmean(d[key] for d in layers) for key in layers[0]
        } if layers else {}
        avg.update({
            "kernel.bytes_per_step_computed": 0.0,
            "kernel.flops_per_step_computed": 0.0,
            "kernel.gbps_computed": 0.0,
            "apps.cg.iterations": 0.0,
        })
        if traced and untraced:
            avg["bench.trace_overhead_x"] = statistics.median(traced) / statistics.median(untraced)
        res["layers"] = avg
        res["traced_ops"] = summarize(traced, WORKLOADS[s.workload].tail_p) if traced else None
    return res


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def end_to_end(workload: str, res: dict) -> dict:
    """The gated metrics: operation times host-speed corrected where the
    workload has a reference loop (``common.REF_NS``), wall otherwise."""
    ref = WORKLOADS[workload].ref
    return {
        "setup_s": statistics.median(res["setup_times"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_p50_ms": res["ref_ops" if ref else "ops"]["p50"],
        "ops_per_s": res["ref_ops_per_s" if ref else "ops_per_s"],
    }


def named_metrics(workload: str, res: dict) -> list:
    """The workload's metrics under the names users cite, with units."""
    ops = res["ops"]
    w = WORKLOADS[workload]
    name, scale, unit = w.op_name, w.op_scale, w.op_unit
    n = f"n={ops['n']}"
    rows = [
        ("setup_s", statistics.median(res["setup_times"]), "s",
         f"median of {len(res['setup_times'])} set-ups"),
        (f"{name}_p50" if unit != "s" else name, ops["p50"] * scale, unit, f"median, {n}"),
    ]
    if ops["tail_label"] != "p50":
        rows.append((f"{name}_{ops['tail_label']}", ops["tail"] * scale, unit,
                     f"{n}, {ops['tail_beyond']:g} samples beyond"))
    if w.ref:
        rows.append((f"{name}_p50_corrected", res["ref_ops"]["p50"] * scale, unit,
                     f"median at reference host speed ({w.ref} reference loop)"))
    if workload == "lbm-steps":
        sites = res["work"]["sites_per_step"]
        rows.append(("mlups", sites * res["ops_per_s"] / 1e6, "MLUPS",
                     f"{sites} lattice sites, {ops['n']} steps"))
    rows += [
        ("peak_rss_mb", res["peak_rss_mb"], "MB", ""),
        ("error_rate", res["failed"] / max(res["attempted"], 1), "ratio",
         f"{res['failed']} failed of {res['attempted']} attempted"),
    ]
    return rows


def write_trace(s: Run, path: Path) -> None:
    """Merge the traced children's spans into one Chrome trace file."""
    events, dropped = [], 0
    for n, (mode, f) in enumerate(s.trace_files):
        with open(f) as fh:
            data = json.load(fh)
        pid = data["events"][0]["pid"] if data["events"] else n
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"{s.workload} {mode} child {n}"}})
        events.extend(data["events"])
        dropped += data["dropped"]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"spans_not_kept": dropped}}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    s = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if s.cleared:
        print(f"cleared ambient settings: {s.cleared}", file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = OUT / f"trace-{tag}.json" if s.trace else None
    try:
        runner = run_inproc if WORKLOADS[args.workload].kind == "inproc" else run_starts
        res = runner(s)
        if s.trace:
            yard = s.spawn("yardstick", s.fresh_cache(), seconds=YARDSTICK_S)
            res["layers"]["core.portable_overhead_x"] = yard["cg_x"]
            res["layers"]["core.portable_overhead_axpy_x"] = yard["axpy_x"]
            res["layers"]["core.portable_overhead_dot_x"] = yard["dot_x"]
            res["attempted"] += yard["checks"]
            res["failed"] += len(yard["checks_failed"])
            res["failures"] += yard["checks_failed"]
            res["yardstick"] = yard
            write_trace(s, trace_path)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        s.close()

    config = dict(res["config"] or {})
    config.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "cleared_env": s.cleared, "threads_env": s.env["PYACC_NUM_THREADS"],
    })
    correct = res["failed"] == 0
    rows = named_metrics(args.workload, res)
    if s.trace:
        metrics = {name: {"value": float(res["layers"].get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        e2e = end_to_end(args.workload, res)
        metrics = {name: {"value": float(e2e[name]), "unit": unit} for name, unit in END_TO_END}

    print(f"# {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# config: " + ", ".join(f"{k}={config[k]}" for k in (
        "backend", "executor", "threads", "graph", "passes", "verify",
        "validate", "cc", "cc_version", "python", "numpy", "git_commit")))
    for name, value, unit, note in rows:
        print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
    print("# BENCHMARK.json metrics")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    if s.trace and res.get("traced_ops"):
        print(f"# tracing overhead: traced op p50 {res['traced_ops']['p50']:.6g} ms "
              f"vs untraced {res['ops']['p50']:.6g} ms")
    if trace_path is not None:
        print(f"# chrome trace: {trace_path.relative_to(ROOT)}")
    for f in res["failures"]:
        print(f"# FAILURE: {f}")
    result_path = OUT / f"result-{tag}.json"
    with open(result_path, "w") as fh:
        json.dump({"config": config, "named": rows, "metrics": metrics, "result": res},
                  fh, indent=1, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(res["attempted"]), 1),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
