"""Span tracer that measures the program's layers from outside.

The program has no tracing of its own, so the benchmark wraps public
functions at the place where their callers look them up (a module
attribute or a class attribute) and records one span per wrapped call:
name, start, end, parent span and the id of the benchmark operation
(launch, solve, step or child start) that was running.  Wrappers exist
only while :meth:`Tracer.install` is in force; :meth:`Tracer.uninstall`
puts the original objects back, so an untraced stretch of a run pays
nothing.

Self time is a span's duration minus the part of it that its child
spans cover (children that ran in pool threads may overlap, so the
covered time is the union of their intervals).  Aggregates are kept per
phase (``setup`` / ``loop``); the first ``max_events`` spans are also
kept for a Chrome trace-event file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

#: (module, attribute path, span name).  Each entry is wrapped where the
#: callers of that layer look it up.
LAYERS = (
    # Eager dispatch pipeline (repro.core.api looks these up as globals).
    ("repro.core.api", "_dispatch", "core.api.dispatch"),
    ("repro.core.api", "_resolve", "core.resolve"),
    ("repro.core.api", "compile_kernel", "ir.compile.lookup"),
    ("repro.core.api", "verify_launch", "ir.verify.launch"),
    ("repro.core.api", "_schedule", "core.schedule"),
    ("repro.core.api", "_execute", "core.api.execute"),
    ("repro.faults", "execute_plan", "faults.execute_plan"),
    ("repro.ir.writes", "note_access", "ir.writes.note"),
    ("repro.ir.writes", "note_writes", "ir.writes.note"),
    ("repro.backends.threads", "ThreadsBackend.execute", "backends.threads.execute"),
    # Kernel bodies.
    ("repro.ir.codegen", "CodegenProgram.run_for", "ir.codegen.run"),
    ("repro.ir.codegen", "CodegenProgram.run_reduce", "ir.codegen.run"),
    ("repro.ir.codegen", "HoistedProgram.run_for", "ir.codegen.run"),
    ("repro.ir.codegen", "HoistedProgram.run_reduce", "ir.codegen.run"),
    ("repro.ir.cgen", "NativeKernel.run_for", "ir.cgen.run"),
    ("repro.ir.cgen", "NativeKernel.run_reduce", "ir.cgen.run"),
    # Launch graphs.
    ("repro.graph.capture", "LaunchGraph.instantiate", "graph.instantiate"),
    ("repro.ir.program", "run_passes", "graph.passes"),
    ("repro.graph.capture", "InstantiatedGraph.replay", "graph.replay"),
    # Compile pipeline.
    ("repro.ir.compile", "trace_kernel", "ir.tracer.trace"),
    ("repro.ir.compile", "optimize_trace", "ir.optimize"),
    ("repro.ir.fuse", "optimize_trace", "ir.optimize"),
    ("repro.ir.verify", "verify_trace", "ir.verify"),
    ("repro.ir.compile", "lower_trace", "ir.codegen.lower"),
    ("repro.ir.fuse", "lower_trace", "ir.codegen.lower"),
    ("repro.ir.program", "lower_trace", "ir.codegen.lower"),
    ("repro.ir.codegen", "lower_trace_hoisted", "ir.codegen.lower"),
    ("repro.ir.compile", "try_lower_native", "ir.cgen.lower"),
    ("repro.ir.cgen", "try_lower_native", "ir.cgen.lower"),
    ("repro.ir.cgen", "compile_source", "ir.nativecache.compile_source"),
    ("repro.ir.nativecache", "_compile_to_disk", "ir.nativecache.cc"),
    ("repro.ir.compilecache", "load_kernel", "ir.compilecache.load"),
)


def _covered_ns(intervals: list, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Span:
    __slots__ = ("name", "start", "parent", "children", "sid", "tid", "op", "stack")

    def __init__(self, name, start, parent, sid, tid, op, stack):
        self.name = name
        self.start = start
        self.parent = parent
        self.children = None
        self.sid = sid
        self.tid = tid
        self.op = op
        self.stack = stack


class Tracer:
    """In-memory span recorder with per-phase aggregates."""

    def __init__(self, max_events: int = 50_000, origin_ns: int | None = None):
        self.max_events = max_events
        self.phase = "setup"
        self.op = 0
        self.events: list = []
        self.dropped = 0
        # phase -> name -> [calls, total_ns, self_ns]
        self.aggregates: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_id = threading.main_thread().ident
        self._main_stack: list = []
        self._ids = itertools.count(1)
        self._saved: list = []
        self.origin_ns = time.perf_counter_ns() if origin_ns is None else origin_ns

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> _Span:
        tid = threading.get_ident()
        if tid == self._main_id:
            st = self._main_stack
        else:
            st = getattr(self._local, "stack", None)
            if st is None:
                st = self._local.stack = []
        if st:
            parent = st[-1]
        else:
            # A pool thread's first span belongs to whatever the single
            # calling thread has open (it is blocked joining the pool).
            parent = self._main_stack[-1] if self._main_stack else None
        span = _Span(name, 0, parent, next(self._ids), tid, self.op, st)
        st.append(span)
        span.start = time.perf_counter_ns()
        return span

    def end(self, span: _Span) -> None:
        end = time.perf_counter_ns()
        span.stack.pop()
        dur = end - span.start
        children = span.children
        self_ns = dur - _covered_ns(children, span.start, end) if children else dur
        parent = span.parent
        if parent is not None:
            if parent.children is None:
                parent.children = []
            parent.children.append((span.start, end))
        if span.tid == self._main_id:
            self._record(span, dur, self_ns)
        else:
            with self._lock:
                self._record(span, dur, self_ns)

    def _record(self, span: _Span, dur: int, self_ns: int) -> None:
        per_phase = self.aggregates.get(self.phase)
        if per_phase is None:
            per_phase = self.aggregates[self.phase] = {}
        agg = per_phase.get(span.name)
        if agg is None:
            agg = per_phase[span.name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += self_ns
        if len(self.events) < self.max_events:
            self.events.append((
                span.name, span.start, dur, span.tid, span.sid,
                span.parent.sid if span.parent is not None else 0, span.op,
            ))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return wrapper

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS` (idempotent)."""
        if self._saved:
            return
        for module, path, name in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        """Put every wrapped object back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------
    def stat(self, phase: str, name: str) -> tuple:
        """``(calls, total_ns, self_ns)`` of one span name in one phase."""
        calls, total, self_ns = self.aggregates.get(phase, {}).get(name, (0, 0, 0))
        return calls, total, self_ns

    def mean_us(self, phase: str, name: str, *, self_time: bool = False) -> float:
        calls, total, self_ns = self.stat(phase, name)
        if not calls:
            return 0.0
        return (self_ns if self_time else total) / calls / 1e3

    def total_ms(self, phase: str, name: str, *, self_time: bool = False) -> float:
        _, total, self_ns = self.stat(phase, name)
        return (self_ns if self_time else total) / 1e6

    def chrome_events(self, pid: int) -> list:
        """The kept spans as Chrome trace-event ``X`` records (µs)."""
        return [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin_ns) / 1e3,
                "dur": dur / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"op": op, "span": sid, "parent": parent},
            }
            for name, start, dur, tid, sid, parent, op in self.events
        ]

    def dump(self, path: str, pid: int) -> None:
        with open(path, "w") as fh:
            json.dump({"events": self.chrome_events(pid), "dropped": self.dropped}, fh)
