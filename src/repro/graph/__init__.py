"""Launch graphs: capture, fusion, and replay for iterative workloads.

JACC's evaluation workloads repeat one short launch sequence thousands of
times; the paper's JIT amortizes *compilation* once per kernel, but the
staged dispatch pipeline still pays plan construction, cache lookups,
verification and schedule building on every launch.  This package
amortizes the *orchestration* the same way CUDA Graphs do:

* :class:`~repro.graph.capture.GraphCapture` /
  ``ExecutionContext.capture()`` record the staged
  :class:`~repro.core.plan.LaunchPlan`\\ s a code region issues (the
  region still executes eagerly — relaxed capture);
* :meth:`~repro.graph.capture.LaunchGraph.instantiate` freezes them:
  adjacent launches fuse into single codegen programs
  (:mod:`repro.ir.fuse`), arena pools are pre-sized, and all per-launch
  decisions are hoisted;
* :meth:`~repro.graph.capture.InstantiatedGraph.replay` re-executes the
  sequence with only scalar-slot rebinding, through the same execute
  stage as normal dispatch (bit-identical results, identical fault
  accounting).

:class:`~repro.graph.region.GraphRegion` packages the capture-or-replay
decision for the apps.  The whole subsystem is a pure performance layer:
``PYACC_GRAPH=off`` (or ``graph = "off"`` in LocalPreferences.toml)
restores per-launch staged dispatch, and the differential suite holds
the two modes bit-identical across every backend.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..core.exceptions import GraphError
from ..core.preferences import KNOBS, PASS_NAMES
from .capture import (
    GraphCapture,
    GraphNode,
    InstantiatedGraph,
    LaunchGraph,
    ScalarSlot,
)
from .region import GraphRegion

__all__ = [
    "GraphCapture",
    "GraphError",
    "GraphNode",
    "GraphRegion",
    "InstantiatedGraph",
    "LaunchGraph",
    "ScalarSlot",
    "graph_mode",
    "set_graph_mode",
    "graphs_enabled",
    "graph_stats",
    "reset_graph_stats",
    "passes_mode",
    "set_passes_mode",
    "enabled_passes",
]


# ---------------------------------------------------------------------------
# Graph and pass-pipeline modes (the PYACC_GRAPH / PYACC_PASSES opt-outs)
# ---------------------------------------------------------------------------

#: The active launch-graph mode, ``on`` or ``off``: process override, else
#: env > prefs > ``on``, resolved once — every GraphRegion run consults it.
graph_mode = KNOBS["graph"].get

#: Override the graph mode process-wide (``None`` re-reads env/prefs);
#: returns the previous override.
set_graph_mode = KNOBS["graph"].set


def graphs_enabled() -> bool:
    """True when regions may capture and replay launch graphs."""
    return graph_mode() == "on"


#: The active instantiate-time pass pipeline: ``all`` | ``none`` |
#: ``peephole`` | a comma list of :data:`~repro.core.preferences.PASS_NAMES`.
passes_mode = KNOBS["passes"].get

#: Override the pass pipeline process-wide (``None`` re-reads env/prefs);
#: returns the previous override.  Takes effect at the next
#: ``instantiate()`` — already-instantiated graphs keep their pipeline.
set_passes_mode = KNOBS["passes"].set


def enabled_passes(mode: Optional[str] = None) -> tuple:
    """Decode a passes mode into ``(frozenset_of_passes, peephole)``.

    ``peephole`` restricts the fusion pass to adjacent pairs (the PR-5
    baseline the bench gate compares against).
    """
    m = passes_mode() if mode is None else mode
    if m == "all":
        return frozenset(PASS_NAMES), False
    if m == "none":
        return frozenset(), False
    if m == "peephole":
        return frozenset(("fuse",)), True
    return frozenset(p.strip() for p in m.split(",") if p.strip()), False


# ---------------------------------------------------------------------------
# Process-wide counters (cache_info()["graph"] / bench --json)
# ---------------------------------------------------------------------------

_STATS_LOCK = threading.Lock()
_COUNTS = {
    "captures": 0,
    "replays": 0,
    "nodes_replayed": 0,
    "fused_pairs": 0,
    "invalidations": 0,
    "uncaptureable": 0,
}


def _bump(key: str, n: int = 1) -> None:
    with _STATS_LOCK:
        _COUNTS[key] += n


def _fresh_pass_counts() -> dict:
    return {
        name: {"applied": 0, "declined": {}, "demoted": 0}
        for name in PASS_NAMES
    }


_PASS_COUNTS = _fresh_pass_counts()
#: Non-adjacent fusions (merges the PR-5 adjacent peephole could not do).
_NONADJACENT_KEY = "nonadjacent"
_PASS_COUNTS["fuse"][_NONADJACENT_KEY] = 0

#: Translation-validator kinds (repro.ir.validate): fuse/dse/sink
#: rewrite re-derivations plus the program-level hazard analyses.
_VALIDATE_KINDS = ("fuse", "dse", "sink")


def _fresh_validate_counts() -> dict:
    out = {
        kind: {"confirmed": 0, "rejected": 0} for kind in _VALIDATE_KINDS
    }
    out["programs"] = 0
    out["degraded"] = 0
    out["diagnostics"] = {}
    return out


_VALIDATE_COUNTS = _fresh_validate_counts()


def _record_pass(
    name: str,
    *,
    applied: int = 0,
    declined: Optional[str] = None,
    demoted: int = 0,
    nonadjacent: int = 0,
) -> None:
    """Account one pass decision (applied / declined-with-reason / demoted).

    This is the fix for PR 5's silent declines: every decision the
    pipeline takes — including the ``CodegenError`` and fault-plan drops
    that used to vanish — lands in ``graph_stats()["passes"]``.
    """
    with _STATS_LOCK:
        entry = _PASS_COUNTS[name]
        entry["applied"] += applied
        entry["demoted"] += demoted
        if nonadjacent:
            entry[_NONADJACENT_KEY] = entry.get(_NONADJACENT_KEY, 0) + nonadjacent
        if declined is not None:
            reasons = entry["declined"]
            reasons[declined] = reasons.get(declined, 0) + 1


def _record_validate(
    kind: str,
    *,
    confirmed: int = 0,
    rejected: int = 0,
    programs: int = 0,
    degraded: int = 0,
    diagnostics=(),
) -> None:
    """Account translation-validator activity (repro.ir.validate)."""
    with _STATS_LOCK:
        if kind in _VALIDATE_COUNTS and isinstance(
            _VALIDATE_COUNTS[kind], dict
        ):
            _VALIDATE_COUNTS[kind]["confirmed"] += confirmed
            _VALIDATE_COUNTS[kind]["rejected"] += rejected
        _VALIDATE_COUNTS["programs"] += programs
        _VALIDATE_COUNTS["degraded"] += degraded
        for d in diagnostics:
            rules = _VALIDATE_COUNTS["diagnostics"]
            rules[d.rule] = rules.get(d.rule, 0) + 1


def graph_stats() -> dict:
    """Process-wide launch-graph activity since start (or last reset).

    Besides the capture/replay counters, ``"passes"`` holds per-pass
    applied/declined/demoted counts (declines keyed by reason — the
    decline taxonomy is documented in docs/API.md), ``"validate"`` the
    translation validator's per-kind confirmed/rejected counts plus
    program-level diagnostic tallies, and ``"passes_mode"`` the pipeline
    configuration they ran under.
    """
    with _STATS_LOCK:
        out = dict(_COUNTS)
        out["passes"] = {
            name: {
                key: (dict(value) if isinstance(value, dict) else value)
                for key, value in entry.items()
            }
            for name, entry in _PASS_COUNTS.items()
        }
        out["validate"] = {
            key: (dict(value) if isinstance(value, dict) else value)
            for key, value in _VALIDATE_COUNTS.items()
        }
    out["mode"] = graph_mode()
    out["passes_mode"] = passes_mode()
    return out


def reset_graph_stats() -> None:
    """Zero the process-wide counters (tests / bench)."""
    global _PASS_COUNTS, _VALIDATE_COUNTS
    with _STATS_LOCK:
        for key in _COUNTS:
            _COUNTS[key] = 0
        _PASS_COUNTS = _fresh_pass_counts()
        _PASS_COUNTS["fuse"][_NONADJACENT_KEY] = 0
        _VALIDATE_COUNTS = _fresh_validate_counts()
