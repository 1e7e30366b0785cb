"""Settings — the LocalPreferences.toml analogue, and the one table of knobs.

JACC selects its backend with Julia's Preferences.jl, which persists the
choice in a ``LocalPreferences.toml`` next to the active project before
precompilation.  We reproduce the same mechanism:

* The preferences file is ``LocalPreferences.toml`` in the current working
  directory, overridable with the ``PYACC_PREFERENCES`` environment
  variable (a path).
* Preferences live under a ``[repro]`` table (e.g. key ``backend``).
* Every ``PYACC_*`` setting is one row of :data:`KNOBS`: its environment
  variable, its preferences key (if any), the parser that validates it and
  its default.  A row resolves env var > preferences file > default; on
  the five per-launch rows a process override (:meth:`Knob.set`) beats
  all three.  The backend
  default is ``"threads"`` — the same default JACC ships (Base.Threads on
  CPUs).  :func:`config` reports each setting in force and its source.

Reading uses the standard library ``tomllib``; writing emits the minimal
single-table document ourselves (no TOML writer in the stdlib).
"""

from __future__ import annotations

import os
import tomllib
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .exceptions import PreferencesError

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_EXECUTOR",
    "DEFAULT_GRAPH_MODE",
    "DEFAULT_PASSES_MODE",
    "DEFAULT_VALIDATE_MODE",
    "DEFAULT_VERIFY_MODE",
    "EXECUTOR_MODES",
    "GRAPH_MODES",
    "KNOBS",
    "Knob",
    "PASS_NAMES",
    "PASSES_PRESETS",
    "VALIDATE_MODES",
    "VERIFY_MODES",
    "config",
    "preferences_path",
    "read_preferences",
    "write_preference",
    "resolve_backend_name",
]

#: The paper's default backend is Base.Threads; ours is its analogue.
DEFAULT_BACKEND = "threads"

#: Enforcement modes of the kernel verifier (see repro.ir.verify).
VERIFY_MODES = ("off", "warn", "error")

#: Default verifier enforcement: report findings, never block a launch.
DEFAULT_VERIFY_MODE = "warn"

#: Enforcement modes of the translation validator (repro.ir.validate).
VALIDATE_MODES = ("off", "warn", "error")

#: Default validator enforcement: a rewrite the validator cannot confirm
#: is undone (the program degrades to unoptimized replay) with a
#: warning; ``error`` raises instead, ``off`` skips the re-derivation.
DEFAULT_VALIDATE_MODE = "warn"

#: Executor strategies for traced kernels (see repro.ir.compile):
#: ``native`` compiles the trace to a C shared object (declining to
#: codegen when ineligible), ``codegen`` lowers the trace to
#: straight-line NumPy source once, ``vector`` walks the IR per launch,
#: ``interpreter`` skips tracing.
EXECUTOR_MODES = ("native", "codegen", "vector", "interpreter")

#: Default executor: generated code (the fastest steady-state path).
DEFAULT_EXECUTOR = "codegen"

#: Launch-graph capture modes (see repro.graph): ``on`` lets the
#: iterative apps capture + replay their launch sequences, ``off``
#: dispatches every construct through the full staged pipeline.
GRAPH_MODES = ("on", "off")

#: Optimization passes the graph pipeline can run at instantiate time
#: (see repro.ir.program), in pipeline order.
PASS_NAMES = ("fuse", "dse", "sink", "schedule")

#: Preset values for the passes knob besides explicit comma lists.
PASSES_PRESETS = ("all", "none", "peephole")

#: Default: graphs enabled (the fastest steady-state path; the staged
#: pipeline stays bit-identical, so opting out is a pure perf knob).
DEFAULT_GRAPH_MODE = "on"

#: Default: the full pass pipeline (bit-identical by construction; every
#: unsafe program declines per pass and degrades to unoptimized replay).
DEFAULT_PASSES_MODE = "all"

_ENV_FILE = "PYACC_PREFERENCES"
_TABLE = "repro"
_FILENAME = "LocalPreferences.toml"


def preferences_path() -> Path:
    """Location of the preferences file for this process."""
    override = os.environ.get(_ENV_FILE)
    if override:
        return Path(override)
    return Path.cwd() / _FILENAME


def read_preferences(path: Optional[Path] = None) -> dict:
    """Read the ``[repro]`` preferences table; missing file → ``{}``."""
    p = path or preferences_path()
    if not p.exists():
        return {}
    try:
        with open(p, "rb") as fh:
            doc = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise PreferencesError(f"cannot read preferences file {p}: {exc}") from exc
    table = doc.get(_TABLE, {})
    if not isinstance(table, dict):
        raise PreferencesError(
            f"preferences file {p} has a non-table [{_TABLE}] entry"
        )
    return table


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise PreferencesError(
        f"unsupported preference value type {type(value).__name__}"
    )


def write_preference(key: str, value, path: Optional[Path] = None) -> Path:
    """Persist one preference under ``[repro]``, keeping existing keys.

    Other tables in an existing file are preserved verbatim is *not*
    attempted — the file is owned by this package, matching how
    Preferences.jl rewrites LocalPreferences.toml.
    """
    p = path or preferences_path()
    table = {}
    if p.exists():
        table = read_preferences(p)
    table[key] = value
    lines = [f"[{_TABLE}]"]
    for k in sorted(table):
        lines.append(f"{k} = {_format_value(table[k])}")
    try:
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise PreferencesError(f"cannot write preferences file {p}: {exc}") from exc
    return p


# ---------------------------------------------------------------------------
# The knob type
# ---------------------------------------------------------------------------


class Knob:
    """One setting: process override > env var > preferences key > default.

    ``parse`` validates and converts a raw value from any source (env
    string, preferences value, override) and raises ``ValueError`` or
    ``TypeError`` on a bad one; ``default`` is the parsed value itself, or a zero-arg
    callable for defaults derived from the machine.  An empty env var
    counts as unset.  ``cached`` rows memoize their resolution until
    :meth:`set` — they are read per launch and must not touch the
    environment or the filesystem each time — and are the only rows that
    take a process override; the other rows re-read their sources on
    every :meth:`get`.
    """

    __slots__ = ("name", "env", "prefs_key", "parse", "default", "cached", "_memo")

    def __init__(self, name, env, prefs_key, parse, default, *, cached=False):
        self.name = name
        self.env = env
        self.prefs_key = prefs_key
        self.parse = parse
        self.default = default
        self.cached = cached
        #: ``(value, source)`` in force while known: the override, or a
        #: cached row's resolution; ``None`` = read the sources.
        self._memo: Optional[tuple] = None

    def _parse(self, raw, origin: str):
        try:
            return self.parse(raw)
        except (TypeError, ValueError) as exc:
            raise PreferencesError(f"{origin}: {exc}") from None

    def raw(self) -> tuple:
        """``(unparsed value, source)`` from env > prefs > default."""
        env = os.environ.get(self.env)
        if env:
            return env, "env"
        if self.prefs_key is not None:
            prefs = read_preferences()
            if self.prefs_key in prefs:
                return prefs[self.prefs_key], "prefs"
        return self.default, "default"

    def resolve(self) -> tuple:
        """``(value, source)`` read live, ignoring the process override."""
        raw, source = self.raw()
        if source == "env":
            return self._parse(raw, self.env), source
        if source == "prefs":
            origin = f"preference {self.prefs_key!r} in {preferences_path()}"
            return self._parse(raw, origin), source
        return (raw() if callable(raw) else raw), source

    def lookup(self) -> tuple:
        """``(value, source)`` in force: override, memo, or a live read."""
        memo = self._memo
        if memo is None:
            memo = self.resolve()
            if self.cached:
                self._memo = memo
        return memo

    def get(self):
        """The value in force (a cached row's hot path: one slot read)."""
        memo = self._memo
        if memo is None:
            memo = self.lookup()
        return memo[0]

    def set(self, value):
        """Install a process override (``None`` drops it and the memo, so
        the next :meth:`get` re-reads the sources).  Returns the previous
        override, or ``None``.  Only the ``cached`` rows — the five with a
        public setter — take an override."""
        if not self.cached:
            raise PreferencesError(f"{self.name} has no process override")
        memo = self._memo
        self._memo = (
            None if value is None
            else (self._parse(value, f"{self.name} override"), "override")
        )
        return memo[0] if memo is not None and memo[1] == "override" else None

    @contextmanager
    def scoped(self, value):
        """Scope an override: ``with knob.scoped("error"): ...``."""
        previous = self.set(value)
        try:
            yield
        finally:
            self.set(previous)


# ---------------------------------------------------------------------------
# Parsers and machine-derived defaults
# ---------------------------------------------------------------------------


def _choice(values: tuple):
    def parse(v):
        if v not in values:
            raise ValueError(f"must be one of {values}, got {v!r}")
        return v

    return parse


def _string(v):
    if not isinstance(v, str):
        raise ValueError(f"must be a string, got {v!r}")
    return v


def _positive_int(v):
    try:
        n = int(v)
    except (TypeError, ValueError):
        raise ValueError(f"must be an integer, got {v!r}") from None
    if n <= 0:
        raise ValueError(f"must be positive, got {n}")
    return n


def _passes(v):
    """``all``/``none``/``peephole`` or a comma list of pass names,
    normalized (``"fuse, dse"`` → ``"fuse,dse"``)."""
    if v in PASSES_PRESETS:
        return v
    parts = tuple(p.strip() for p in _string(v).split(",") if p.strip())
    if parts and all(p in PASS_NAMES for p in parts):
        return ",".join(parts)
    raise ValueError(
        f"must be one of {PASSES_PRESETS} or a comma-separated subset of "
        f"{PASS_NAMES}, got {v!r}"
    )


def _fault_spec(v):
    from ..faults import parse_fault_spec

    return parse_fault_spec(_string(v))


def _start_method(v):
    import multiprocessing as mp

    return _choice(tuple(mp.get_all_start_methods()))(v)


def _default_start_method() -> str:
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _cache_path(v) -> Optional[Path]:
    """A directory, or ``None`` for ``off``/``0``/``none``/``disabled``."""
    if str(v).strip().lower() in ("off", "0", "none", "disabled"):
        return None
    return Path(v)


@lru_cache(maxsize=None)
def _find_cc(cand) -> Optional[str]:
    """Absolute path of the compiler ``cand``, or ``None`` — memoized per
    value, so a compiler-less host pays one ``which`` probe per process."""
    import shutil

    path = shutil.which(cand)
    if path is None and os.path.sep in cand and os.access(cand, os.X_OK):
        path = cand  # explicit path not on PATH
    return path


def _cpu_count() -> int:
    """CPUs this process may run on: the affinity mask (``taskset``,
    cgroup cpusets) where the platform reports one, else the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# The table — every PYACC_* setting except PYACC_PREFERENCES
# ---------------------------------------------------------------------------

KNOBS: dict[str, Knob] = {
    k.name: k
    for k in (
        Knob("backend", "PYACC_BACKEND", "backend", _string, DEFAULT_BACKEND),
        Knob("executor", "PYACC_EXECUTOR", "executor", _choice(EXECUTOR_MODES),
             DEFAULT_EXECUTOR, cached=True),
        Knob("graph", "PYACC_GRAPH", "graph", _choice(GRAPH_MODES),
             DEFAULT_GRAPH_MODE, cached=True),
        Knob("passes", "PYACC_PASSES", "passes", _passes, DEFAULT_PASSES_MODE,
             cached=True),
        Knob("verify", "PYACC_VERIFY", "verify", _choice(VERIFY_MODES),
             DEFAULT_VERIFY_MODE, cached=True),
        Knob("validate", "PYACC_VALIDATE", "validate", _choice(VALIDATE_MODES),
             DEFAULT_VALIDATE_MODE, cached=True),
        Knob("faults", "PYACC_FAULTS", "faults", _fault_spec, None),
        Knob("num_threads", "PYACC_NUM_THREADS", None, _positive_int, _cpu_count),
        Knob("cluster_workers", "PYACC_CLUSTER_WORKERS", None, _positive_int,
             lambda: max(2, min(8, _cpu_count()))),
        Knob("cluster_start", "PYACC_CLUSTER_START", None, _start_method,
             _default_start_method),
        Knob("compile_cache", "PYACC_COMPILE_CACHE", None, _cache_path,
             lambda: Path.home() / ".cache" / "pyacc" / "compile"),
        Knob("native_cache", "PYACC_NATIVE_CACHE", None, Path,
             lambda: Path.home() / ".cache" / "pyacc" / "native"),
        Knob("cc", "PYACC_CC", None, _find_cc, lambda: _find_cc("cc")),
    )
}

#: The backend name for a context's first use: env > prefs > default.
resolve_backend_name = KNOBS["backend"].get


def config() -> dict:
    """Every setting in force: ``{name: {value, source, env, prefs_key}}``
    where ``source`` is ``override``, ``env``, ``prefs`` or ``default``."""
    out = {}
    for name, knob in KNOBS.items():
        value, source = knob.lookup()
        out[name] = {
            "value": value,
            "source": source,
            "env": knob.env,
            "prefs_key": knob.prefs_key,
        }
    return out
