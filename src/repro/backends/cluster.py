"""Cluster backend — sharded multi-process execution with elastic recovery.

The JACC line is explicitly about scaling out: the OpenACC JACC paper
(arXiv 2110.14340) introduces kernel-level multi-device parallelization
and the Frontier workflow paper (arXiv 2309.10292) shows the multi-node
end state, where losing a worker is routine, not exceptional.  This
backend is that direction on one host: the launch domain's leading axis
is sharded across worker **processes**, array storage lives in
``multiprocessing.shared_memory`` segments every worker maps (the
explicit-memory analogue of the multi-GPU shards), and a supervisor
turns process loss into the same failover motions
:class:`~repro.backends.multidevice.MultiDeviceBackend` performs for a
lost device.

Sharding model
--------------
* ``array`` materializes host data into a shared-memory segment and
  returns a plain ``np.ndarray`` view over it — all downstream layers
  (tracing, codegen, native ctypes loops) see an ordinary ndarray, and
  every worker maps the *same* physical pages, so cross-shard reads
  (stencil neighbours) and shard writes need no gather/scatter step.
* Arguments that are not segment-resident (plain ndarrays from user
  code) are staged: copied into a pooled per-array segment before the
  launch and — the explicit shard-writeback contract, see
  :mod:`repro.ir.writes` — copied back before ``execute`` returns, so
  the dispatch stage's write-version bump and any captured graph's
  const-array snapshots observe the committed values.
* Workers are full runtime instances: each compiles the shipped kernel
  through its own :class:`~repro.ir.compile.KernelCache` and executor
  ladder (native C loops included — the artifact cache is disk-shared),
  and draws temporaries from its own process-local
  :class:`~repro.ir.arena.ScratchArena`.  Kernels ship by reference
  (module-level functions pickle as a name); kernels that cannot be
  pickled (closures, lambdas) run inline in the parent, recorded in
  :func:`cluster_stats`.

Halo exchange
-------------
``schedule()`` derives a :class:`HaloSchedule` from the verifier's
per-access affine lattice (:func:`repro.ir.verify.abstract_accesses`)
— *not* the guard-refined global read region, which boundary guards
like ``0 < i < n-1`` clip back to the array and thereby erase the
stencil offsets.  A load whose leading array axis is the identity form
``i0 + c`` contributes offset ``c``, so ``a[i-1]``/``a[i+1]`` on a
leading-axis-aligned array becomes one
bounded edge slab per interior chunk boundary (heat3d: width 1), while
reads the affine lattice cannot align with the shard axis (the flat
D2Q9 LBM arrays, gathers) are classified *replicated* — the whole
array is charged to every non-owning shard.  Because shards map shared
segments, the exchange is a schedule — bytes that would move on a
distributed-memory node — plus a fault-injection seam
(``cluster.halo``), not a physical copy; the byte accounting in
``cache_info()["cluster"]`` is the honest cost model.  The schedule is
computed once per captured plan and replayed with the plan (graph
replays rebind scalars only), observable as ``halo_plans`` staying flat
while ``halo_exchanges`` grows.

Supervision and elastic recovery
--------------------------------
A spawn is probed at ``cluster.spawn`` and health-checked with a
ping/pong handshake deadline.  Shard dispatch probes ``cluster.shard``
(ordinals reserved through :meth:`repro.faults.FaultPlan.next_ordinal`,
so the schedule is deterministic), honours ``kill=`` entries by
actually ``SIGKILL``-ing the child, and collection enforces a per-launch
deadline (``LaunchPolicy.watchdog`` when set).  Failures classify into
the existing taxonomy:

* transient (injected at a seam) → capped-exponential retry on the same
  worker, per :class:`~repro.faults.LaunchPolicy`;
* dead/unresponsive process → :class:`~repro.core.exceptions.WorkerLostError`
  handling: the worker leaves the dispatch set, a respawn is attempted
  (elastic rejoin, budgeted), and the shard's unprocessed rows are
  rebalanced over the survivors mid-plan, exactly like the
  multi-device backend's lost-device path;
* all workers lost with the respawn budget spent →
  ``PermanentDeviceError`` escapes to the dispatch ladder, which demotes
  cluster → threads → serial (:func:`repro.faults.demote_backend`).

``schedule_epoch()`` counts membership changes so captured launch
graphs re-schedule their recorded shard splits after a loss or rejoin.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Optional

import multiprocessing as mp
from multiprocessing import shared_memory as shm_mod

import numpy as np

from ..core.api import plan_access_ids
from ..core.backend import Backend
from ..core.exceptions import (
    KernelExecutionError,
    PermanentDeviceError,
    WorkerLostError,
)
from ..core.launch import cpu_chunks
from ..core.plan import LaunchPlan, LaunchSchedule
from ..core.preferences import KNOBS
from ..ir.vectorizer import IndexDomain

__all__ = [
    "ClusterBackend",
    "HaloSchedule",
    "HaloSlab",
    "cluster_stats",
    "reset_cluster_stats",
    "default_num_workers",
]

#: Spawn handshake deadline (fork + import + pong), seconds.
_SPAWN_TIMEOUT = 30.0
#: Per-launch collection deadline when the policy sets no watchdog.
_SHARD_TIMEOUT = 60.0

#: Worker count: ``PYACC_CLUSTER_WORKERS`` or a small multiple of the
#: machine (at least 2 — a one-worker cluster has nothing to shard, and
#: oversubscription only costs scheduling, not correctness).
default_num_workers = KNOBS["cluster_workers"].get


# ---------------------------------------------------------------------------
# Process-wide counters (cache_info()["cluster"], bench --json)
# ---------------------------------------------------------------------------


class _ClusterCounters:
    """Process-wide cluster activity totals."""

    _FIELDS = (
        "spawns",
        "respawns",
        "kills",
        "worker_losses",
        "shards",
        "inline_launches",
        "unshippable",
        "halo_plans",
        "halo_exchanges",
        "halo_bytes",
        "replicated_arrays",
        "staged_in_bytes",
        "staged_out_bytes",
        "reduce_folds",
        "rebalances",
        "degradations",
        "shm_segments",
        "shm_bytes",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def reset(self) -> None:
        with self._lock:
            for name in self._FIELDS:
                setattr(self, name, 0)


_COUNTERS = _ClusterCounters()


def cluster_stats() -> dict:
    """Process-wide cluster-backend activity (shards, halo bytes,
    respawns, rebalances, degradations, ...)."""
    return _COUNTERS.snapshot()


def reset_cluster_stats() -> None:
    """Zero the counters (tests / bench isolation)."""
    _COUNTERS.reset()


# ---------------------------------------------------------------------------
# Shared-memory segments
# ---------------------------------------------------------------------------


#: Segments not yet unlinked, for the atexit sweep: unlinking everything
#: we created keeps the resource tracker from reporting "leaked" shared
#: memory at interpreter exit when arrays outlive the final GC pass.
_LIVE_SEGMENTS: dict = {}
_atexit_installed = False


def _sweep_segments() -> None:  # pragma: no cover - exit path
    for seg in list(_LIVE_SEGMENTS.values()):
        seg.destroy()


@dataclass
class _Segment:
    """One owned shared-memory segment backing a parent-side ndarray."""

    shm: shm_mod.SharedMemory
    name: str
    nbytes: int
    shape: tuple
    dtype: np.dtype
    destroyed: bool = False

    def destroy(self) -> None:
        if self.destroyed:
            return
        self.destroyed = True
        _LIVE_SEGMENTS.pop(self.name, None)
        try:
            self.shm.close()
        except BufferError:
            # A live view still exports the buffer (interpreter exit
            # order) — unlink the name anyway; the mapping dies with us.
            pass
        except OSError:
            pass
        try:
            self.shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def _new_segment(shape: tuple, dtype: np.dtype, nbytes: int) -> _Segment:
    global _atexit_installed
    shm = shm_mod.SharedMemory(create=True, size=max(1, nbytes))
    seg = _Segment(shm=shm, name=shm.name, nbytes=nbytes, shape=shape, dtype=dtype)
    _LIVE_SEGMENTS[seg.name] = seg
    _COUNTERS.bump("shm_segments")
    _COUNTERS.bump("shm_bytes", nbytes)
    if not _atexit_installed:
        _atexit_installed = True
        atexit.register(_sweep_segments)
    return seg


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


def _worker_attach(segments: dict, name: str) -> shm_mod.SharedMemory:
    """Map a parent segment in the worker (cached per name).

    The parent owns segment lifetime, so the attach must not register
    with the resource tracker (``track=False`` where available,
    Python 3.13+).  Older Pythons never track plain attaches — and
    under fork the tracker process is *shared* with the parent, so a
    defensive ``unregister`` here would corrupt the parent's
    registration.
    """
    seg = segments.get(name)
    if seg is not None:
        return seg
    try:
        seg = shm_mod.SharedMemory(name=name, track=False)
    except TypeError:  # track= is 3.13+; 3.10-3.12 attaches untracked
        seg = shm_mod.SharedMemory(name=name)
    segments[name] = seg
    return seg


def _worker_run_shard(spec: dict, segments: dict, fns: dict, arena) -> Optional[float]:
    """Rebuild arguments from descriptors and run one shard.

    The worker is a full runtime: the shipped kernel compiles through
    this process's own kernel cache and executor ladder (codegen or
    native), exactly as it would in the parent.
    """
    from ..ir.compile import compile_kernel

    args = []
    for d in spec["args"]:
        if d[0] == "shm":
            _tag, name, shape, dtype = d
            seg = _worker_attach(segments, name)
            args.append(
                np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
            )
        else:
            args.append(d[1])
    token = spec["fn_token"]
    fn = fns.get(token)
    if fn is None:
        fn = pickle.loads(spec["fn_bytes"])
        fns[token] = fn
    is_reduce = spec["construct"] == "reduce"
    kernel = compile_kernel(fn, spec["ndim"], args, reduce=is_reduce)
    dom = IndexDomain(spec["ranges"])
    if is_reduce:
        return float(kernel.run_reduce(dom, args, spec["op"], arena))
    kernel.run_for(dom, args, arena)
    return None


def _worker_main(conn, worker_name: str) -> None:  # pragma: no cover - child
    """Serve shard requests until ``exit``/EOF.

    Runs in the child process.  Protocol (parent → worker):
    ``("ping", n)`` → ``("pong", n)``; ``("forget", [names])`` drops
    cached segment mappings; ``("shard", task_id, spec)`` →
    ``("ok", task_id, partial)`` or ``("err", task_id, type, msg)``;
    ``("exit",)`` ends the loop.
    """
    from ..ir.arena import ScratchArena
    from ..ir.compilecache import enter_worker_mode

    # Forked workers read the parent's compile cache but publish into a
    # per-worker spool the parent promotes (handle_loss/shutdown) — a
    # SIGKILLed worker can never corrupt the shared namespace.
    enter_worker_mode()
    segments: dict = {}
    fns: dict = {}
    arena = ScratchArena()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            tag = msg[0]
            if tag == "exit":
                break
            if tag == "ping":
                conn.send(("pong", msg[1]))
                continue
            if tag == "forget":
                for name in msg[1]:
                    seg = segments.pop(name, None)
                    if seg is not None:
                        try:
                            seg.close()
                        except Exception:
                            pass
                continue
            if tag == "shard":
                task_id, spec = msg[1], msg[2]
                try:
                    partial = _worker_run_shard(spec, segments, fns, arena)
                except BaseException as exc:  # ship, don't die
                    conn.send(("err", task_id, type(exc).__name__, str(exc)))
                else:
                    conn.send(("ok", task_id, partial))
    finally:
        for seg in segments.values():
            try:
                seg.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Supervision
# ---------------------------------------------------------------------------


class _Worker:
    """One supervised worker process and its duplex pipe."""

    __slots__ = ("proc", "conn", "name", "slot", "fn_tokens", "pings")

    def __init__(self, proc, conn, name: str, slot: int):
        self.proc = proc
        self.conn = conn
        self.name = name
        self.slot = slot
        #: fn tokens already shipped to this process (bytes sent once).
        self.fn_tokens: set = set()
        self.pings = 0


class ClusterSupervisor:
    """Spawns, health-checks, kills and respawns the worker set.

    ``slots`` is the membership ledger: a slot holds a live worker, or
    ``None`` after a loss until a respawn fills it again; a slot whose
    respawn budget ran out is removed.  Every membership change bumps
    ``epoch`` — the staleness signal captured launch graphs compare
    before replaying a recorded shard split.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        max_respawns: int = 8,
        spawn_timeout: float = _SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
    ):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        method = start_method or KNOBS["cluster_start"].get()
        self._mp = mp.get_context(method)
        self.start_method = method
        self.n_workers = n_workers
        self.max_respawns = int(max_respawns)
        self.spawn_timeout = float(spawn_timeout)
        self.respawns_used = 0
        self.epoch = 0
        self._uid = 0
        self._started = False
        #: slot index -> _Worker | None (lost, awaiting respawn).
        self.slots: dict[int, Optional[_Worker]] = {}

    # -- membership -------------------------------------------------------
    def alive(self) -> list[_Worker]:
        """Workers currently in the dispatch set (liveness re-checked)."""
        out = []
        for slot in sorted(self.slots):
            w = self.slots[slot]
            if w is None:
                continue
            if not w.proc.is_alive():
                self._drop(w)
                continue
            out.append(w)
        return out

    def _drop(self, w: _Worker) -> None:
        if self.slots.get(w.slot) is w:
            self.slots[w.slot] = None
            self.epoch += 1
        try:
            w.conn.close()
        except Exception:
            pass

    def _spawn_into(self, slot: int, fplan, plan, policy) -> _Worker:
        """Fork one worker and health-check it (``cluster.spawn`` seam).

        The probe fires before the fork: an injected transient retries a
        clean spawn, an injected permanent marks the slot unfillable.
        """
        from .. import faults as _faults

        self._uid += 1
        name = f"cluster:w{slot}.{self._uid}"

        def body():
            if fplan is not None:
                fplan.check("cluster.spawn", device_id=name)
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_worker_main,
                args=(child_conn, name),
                name=name,
                daemon=True,
            )
            proc.start()
            child_conn.close()
            w = _Worker(proc, parent_conn, name, slot)
            # Handshake with a deadline: a worker that cannot pong within
            # the spawn timeout is as lost as one that never forked.
            w.conn.send(("ping", 0))
            if not w.conn.poll(self.spawn_timeout):
                self.sigkill(w)
                raise WorkerLostError(
                    f"worker {name!r} failed its spawn handshake "
                    f"({self.spawn_timeout:g}s)",
                    device_id=name,
                    operation="cluster.spawn",
                )
            reply = w.conn.recv()
            if reply[0] != "pong":  # pragma: no cover - protocol guard
                self.sigkill(w)
                raise WorkerLostError(
                    f"worker {name!r} spoke out of turn at spawn: {reply[0]!r}",
                    device_id=name,
                    operation="cluster.spawn",
                )
            return w

        if fplan is None:
            w = body()
        else:
            w = _faults.retry_transients(
                body,
                policy=policy,
                site="cluster.spawn",
                plan=plan,
                device_id=name,
            )
        self.slots[slot] = w
        self.epoch += 1
        _COUNTERS.bump("spawns")
        return w

    def ensure_started(self, fplan, plan, policy) -> None:
        """Lazily bring the initial worker set up (first sharded launch).

        Deferring the fork past import/tracing time means kernels defined
        in the caller's modules are importable in the children.  A slot
        whose spawn fails permanently is removed; if no slot survives,
        the permanent error escapes to the dispatch ladder.
        """
        if self._started:
            return
        self._started = True
        for slot in range(self.n_workers):
            try:
                self._spawn_into(slot, fplan, plan, policy)
            except PermanentDeviceError:
                self.slots.pop(slot, None)
                self.epoch += 1
        if not any(w is not None for w in self.slots.values()):
            raise PermanentDeviceError(
                "no cluster worker survived spawn",
                operation="cluster.spawn",
            )

    def sigkill(self, w: _Worker) -> None:
        """Hard-terminate a worker (the ``kill=`` injection's teeth)."""
        try:
            if w.proc.pid is not None:
                os.kill(w.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass

    def handle_loss(self, w: _Worker, fplan, plan, policy) -> bool:
        """Process one worker loss; returns True if the slot was refilled.

        The dead process leaves the dispatch set immediately; a respawn
        (budgeted across the supervisor's lifetime) elastically rejoins
        the slot.  Either way the epoch moves, so recorded schedules
        re-split.
        """
        _COUNTERS.bump("worker_losses")
        self.sigkill(w)
        try:
            w.proc.join(timeout=1.0)
        except Exception:
            pass
        self._drop(w)
        # Absorb what the dead worker spooled into the shared compile
        # cache, so the respawn warm-starts from disk instead of
        # recompiling its shard kernels.  Only *its* spool: peers are
        # still alive and may be mid-publish.
        try:
            from ..ir.compilecache import promote_spools

            promote_spools([w.proc.pid])
        except Exception:
            pass
        if self.respawns_used >= self.max_respawns:
            self.slots.pop(w.slot, None)
            self.epoch += 1
            return False
        self.respawns_used += 1
        try:
            self._spawn_into(w.slot, fplan, plan, policy)
        except PermanentDeviceError:
            self.slots.pop(w.slot, None)
            self.epoch += 1
            return False
        _COUNTERS.bump("respawns")
        return True

    def healthcheck(self, timeout: float = 5.0) -> list[str]:
        """Ping every worker; unresponsive ones are dropped.  Returns the
        names of workers that failed the check."""
        failed = []
        for w in self.alive():
            w.pings += 1
            try:
                w.conn.send(("ping", w.pings))
                if not w.conn.poll(timeout):
                    raise EOFError("heartbeat timeout")
                reply = w.conn.recv()
                while reply[0] != "pong":  # drain stale shard replies
                    reply = w.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                failed.append(w.name)
                self.sigkill(w)
                self._drop(w)
        return failed

    def broadcast_forget(self, names: list[str]) -> None:
        """Tell workers to drop cached mappings of retired segments."""
        if not names:
            return
        for w in self.alive():
            try:
                w.conn.send(("forget", names))
            except (OSError, BrokenPipeError):
                pass

    def shutdown(self) -> None:
        """Stop all workers (tests; normally process-lifetime)."""
        for w in self.alive():
            try:
                w.conn.send(("exit",))
            except (OSError, BrokenPipeError):
                pass
        for slot, w in list(self.slots.items()):
            if w is None:
                continue
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                self.sigkill(w)
                w.proc.join(timeout=2.0)
            self._drop(w)
        self.slots.clear()
        self._started = False
        try:
            from ..ir.compilecache import promote_spools

            promote_spools()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Halo schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaloSlab:
    """Bytes one shard needs from rows it does not own, for one array.

    ``kind`` is ``"edge"`` (leading-axis-aligned stencil read: ``rows``
    boundary rows on each applicable side) or ``"replicated"`` (the
    effects lattice could not align the read with the shard axis — the
    whole non-owned remainder is charged, the honest upper bound).
    """

    chunk: int
    pos: int
    kind: str
    rows: int
    nbytes: int


@dataclass(frozen=True)
class HaloSchedule:
    """The per-plan exchange schedule: one slab per (chunk, read array)
    needing non-owned data.  Computed once at schedule time, replayed
    with the plan."""

    slabs: tuple
    nbytes: int

    @property
    def n_slabs(self) -> int:
        return len(self.slabs)


def _stencil_offsets(plan: LaunchPlan) -> dict:
    """Per read-array position: the leading-axis stencil offsets.

    Walks the verifier's raw access records and, for every *load*,
    checks whether the array's leading axis is indexed by the identity
    form ``i0 + c`` (coefficient 1 on launch axis 0, 0 elsewhere).  The
    guard-refined global read region is useless here: a boundary guard
    such as ``0 < i < n-1`` clips the union back inside the array, so
    the ``±1`` of a stencil vanishes from the region but survives in
    the per-access constants.

    Returns ``{pos: [c, ...]}``; a position maps to ``None`` when any
    of its loads is unaligned (non-affine leading index, non-unit
    coefficient, or cross-axis dependence) — the replicated class.
    """
    from ..ir.verify import _args_env, abstract_accesses

    offsets: dict[int, Optional[list]] = {}
    try:
        shapes, scalars = _args_env(plan.resolved_args)
        accesses = abstract_accesses(
            plan.kernel.trace,
            dims=tuple(plan.dims),
            shapes=shapes,
            scalars=scalars,
            kernel=getattr(plan.fn, "__name__", "<kernel>"),
        )
    except Exception:  # pragma: no cover - analysis must never break dispatch
        return {}
    for acc in accesses:
        if acc.kind != "load":
            continue
        pos = acc.array.pos
        form0 = acc.forms[0] if acc.forms else None
        const = getattr(form0, "const", None)
        aligned = (
            form0 is not None
            and len(form0.coeffs) >= 1
            and form0.coeffs[0] == 1
            and all(c == 0 for c in form0.coeffs[1:])
            and isinstance(const, (int, np.integer))
        )
        if not aligned:
            offsets[pos] = None
        elif offsets.get(pos, []) is not None:
            offsets.setdefault(pos, []).append(int(const))
    return offsets


def _halo_schedule(plan: LaunchPlan, chunks: list[tuple[int, int]]) -> HaloSchedule:
    """Derive the exchange schedule from the per-access affine forms."""
    dims0 = plan.dims[0]
    slabs: list[HaloSlab] = []
    stencil = _stencil_offsets(plan)
    for pos, consts in sorted(stencil.items()):
        arr = (
            plan.resolved_args[pos]
            if plan.resolved_args and pos < len(plan.resolved_args)
            else None
        )
        if not isinstance(arr, np.ndarray) or arr.size == 0:
            continue
        aligned = (
            consts is not None and arr.ndim >= 1 and arr.shape[0] == dims0
        )
        if aligned:
            lo_off = max(0, -min(consts))
            hi_off = max(0, max(consts))
            if lo_off == 0 and hi_off == 0:
                continue  # interior reads only — no exchange
            if lo_off >= dims0 or hi_off >= dims0:
                aligned = False  # wider than the domain: replicate
        if aligned:
            row_bytes = arr.nbytes // dims0
            for ci, (lo, hi) in enumerate(chunks):
                if hi <= lo:
                    continue
                rows = min(lo_off, lo) + min(hi_off, dims0 - hi)
                if rows == 0:
                    continue
                slabs.append(
                    HaloSlab(
                        chunk=ci,
                        pos=pos,
                        kind="edge",
                        rows=rows,
                        nbytes=rows * row_bytes,
                    )
                )
        else:
            _COUNTERS.bump("replicated_arrays")
            n_chunks = sum(1 for lo, hi in chunks if hi > lo)
            if n_chunks <= 1:
                continue
            share = arr.nbytes // n_chunks
            for ci, (lo, hi) in enumerate(chunks):
                if hi <= lo:
                    continue
                slabs.append(
                    HaloSlab(
                        chunk=ci,
                        pos=pos,
                        kind="replicated",
                        rows=hi - lo,
                        nbytes=arr.nbytes - share,
                    )
                )
    _COUNTERS.bump("halo_plans")
    return HaloSchedule(
        slabs=tuple(slabs), nbytes=sum(s.nbytes for s in slabs)
    )


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ClusterBackend(Backend):
    """Sharded multi-process backend with supervised, elastic workers."""

    name = "cluster"
    device_kind = "cpu"
    #: Shard splits move with worker membership (losses, rejoins), so a
    #: pinned schedule could name a dead worker's chunk — decline pins,
    #: like the multi-device backend.
    supports_schedule_pin = False

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        min_parallel_size: int = 1 << 16,
        shm_threshold: int = 1 << 12,
        max_respawns: int = 8,
        shard_timeout: float = _SHARD_TIMEOUT,
        spawn_timeout: float = _SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
    ):
        super().__init__()
        self.n_workers = (
            n_workers if n_workers is not None else default_num_workers()
        )
        if self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        self.min_parallel_size = int(min_parallel_size)
        self.shm_threshold = int(shm_threshold)
        self.shard_timeout = float(shard_timeout)
        self._supervisor = ClusterSupervisor(
            self.n_workers,
            max_respawns=max_respawns,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
        )
        #: id(view) -> (_Segment, weakref-to-view) for segment-resident
        #: arrays returned by :meth:`array`.
        self._resident: dict = {}
        #: id(arr) -> (_Segment, weakref-to-arr) staging pool for plain
        #: ndarrays shipped per-launch (copy-in / copy-back).
        self._staging: dict = {}
        #: Segment names retired by finalizers since the last launch;
        #: drained (workers told to forget) at the next execute.  Plain
        #: list mutations are GIL-atomic, so the GC-callback writers need
        #: no lock the callback could deadlock on.
        self._retired: list[str] = []
        #: Launch-unique shard task ids (fault ordinals restart at 0 per
        #: launch without a plan, so they cannot key reply matching).
        self._task_seq = 0

    # -- memory ----------------------------------------------------------
    def _adopt(self, registry: dict, arr: np.ndarray, seg: _Segment) -> None:
        key = id(arr)
        retired = self._retired

        def _finalize(_ref, key=key, seg=seg, registry=registry):
            registry.pop(key, None)
            retired.append(seg.name)
            seg.destroy()

        registry[key] = (seg, weakref.ref(arr, _finalize))

    def array(self, data: Any) -> np.ndarray:
        """``JACC.array``: materialize host data in a shared segment.

        Returns a plain ndarray *view* over the segment — every layer
        above sees ordinary host memory, and every worker maps the same
        pages.  Small or non-numeric payloads stay ordinary ndarrays
        (they ship through the staging pool when a launch needs them).
        """
        host = np.array(data, copy=True)
        if host.nbytes < self.shm_threshold or host.dtype.hasobject:
            return host
        seg = _new_segment(host.shape, host.dtype, host.nbytes)
        view = np.ndarray(host.shape, dtype=host.dtype, buffer=seg.shm.buf)
        view[...] = host
        self._adopt(self._resident, view, seg)
        self.accounting.n_h2d += 1
        self.accounting.bytes_h2d += host.nbytes
        return view

    def to_host(self, arr: Any) -> np.ndarray:
        raw = getattr(arr, "__pyacc_raw_storage__", None)
        return raw() if raw is not None else np.asarray(arr)

    def unwrap(self, arr: Any) -> np.ndarray:
        raw = getattr(arr, "__pyacc_raw_storage__", None)
        return raw() if raw is not None else np.asarray(arr)

    # -- introspection ----------------------------------------------------
    @property
    def supervisor(self) -> ClusterSupervisor:
        return self._supervisor

    def alive_workers(self) -> tuple[str, ...]:
        return tuple(w.name for w in self._supervisor.alive())

    def healthcheck(self, timeout: float = 5.0) -> list[str]:
        """Heartbeat every worker; returns names of dropped workers."""
        return self._supervisor.healthcheck(timeout)

    def close(self) -> None:
        """Stop the worker set (tests; segments stay with their arrays)."""
        self._supervisor.shutdown()

    # -- scheduling --------------------------------------------------------
    def _chunks(self, dims: tuple[int, ...], width: int) -> list[tuple[int, int]]:
        return cpu_chunks(dims, width)

    def _target_width(self) -> int:
        if not self._supervisor._started:
            return self.n_workers
        return max(1, len(self._supervisor.alive()))

    def schedule_epoch(self) -> int:
        """Bumps on every worker loss or elastic rejoin, so captured
        graphs re-schedule their recorded shard splits."""
        return self._supervisor.epoch

    def schedule(self, plan: LaunchPlan) -> LaunchSchedule:
        """Record the shard split (and its halo schedule) for one plan.

        Inline when sharding cannot pay: a sub-``min_parallel_size``
        domain (process dispatch costs far more than a thread handoff),
        an interpreter-tier kernel (closures over Python state do not
        cross processes), or a single-worker set.
        """
        dims = plan.dims
        lanes = int(np.prod(dims))
        width = self._target_width()
        if (
            width <= 1
            or lanes < self.min_parallel_size
            or plan.kernel is None
            or plan.kernel.trace is None
        ):
            return LaunchSchedule(domains=(IndexDomain.full(dims),), inline=True)
        chunks = self._chunks(dims, width)
        tail = [(0, d) for d in dims[1:]]
        domains = tuple(IndexDomain([(lo, hi)] + tail) for lo, hi in chunks)
        halo = _halo_schedule(plan, chunks)
        return LaunchSchedule(domains=domains, inline=False, halo=halo)

    # -- argument shipping -------------------------------------------------
    def _segment_for(self, arr: np.ndarray) -> tuple[Optional[_Segment], bool]:
        """The segment backing ``arr``: resident hit, staging-pool hit,
        or a fresh staging segment.  Returns ``(segment, resident)``;
        ``(None, False)`` when the array cannot be staged."""
        ent = self._resident.get(id(arr))
        if ent is not None and ent[1]() is arr and not ent[0].destroyed:
            return ent[0], True
        if arr.dtype.hasobject or arr.nbytes == 0:
            return None, False
        ent = self._staging.get(id(arr))
        if ent is not None and ent[1]() is arr and not ent[0].destroyed:
            seg = ent[0]
            if seg.shape == arr.shape and seg.dtype == arr.dtype:
                return seg, False
            # Shape/dtype drifted under an id collision; re-stage.
            self._staging.pop(id(arr), None)
        seg = _new_segment(arr.shape, arr.dtype, arr.nbytes)
        self._adopt(self._staging, arr, seg)
        return seg, False

    def _ship_args(self, plan: LaunchPlan):
        """Build worker argument descriptors for the plan.

        Returns ``(descs, writeback)`` or ``None`` when some argument
        cannot cross the process boundary (overlapping views, object
        dtypes, unpicklable scalars) — the launch then runs inline.
        ``writeback`` lists ``(array, staged-view)`` pairs committed
        after the shards complete (the explicit shard-writeback step
        that keeps the parent-side write-version table sound).
        """
        args = plan.resolved_args or []
        nds = [a for a in args if isinstance(a, np.ndarray)]
        for i, a in enumerate(nds):
            for b in nds[i + 1:]:
                if a is not b and np.may_share_memory(a, b):
                    return None  # aliased distinct views: stage would split them
        # ``()`` is a computed answer (every reduce writes nothing);
        # only ``None`` means the ids were never derived.
        written = plan.written_ids
        if written is None:
            try:
                written = plan_access_ids(plan)[0]
            except (IndexError, TypeError):  # args do not fit the trace
                written = [id(a) for a in nds]  # conservative: commit all
        write_ids = set(written)
        descs = []
        writeback = []
        staged_seen = set()
        for a in args:
            if isinstance(a, np.ndarray):
                seg, resident = self._segment_for(a)
                if seg is None:
                    if a.nbytes == 0:
                        descs.append(("val", a))
                        continue
                    return None
                if not resident and id(a) not in staged_seen:
                    staged_seen.add(id(a))
                    view = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.shm.buf)
                    view[...] = a
                    _COUNTERS.bump("staged_in_bytes", a.nbytes)
                    if id(a) in write_ids:
                        writeback.append((a, view))
                descs.append(("shm", seg.name, a.shape, a.dtype.str))
            else:
                try:
                    pickle.dumps(a)
                except Exception:
                    return None
                descs.append(("val", a))
        return descs, writeback

    def _pickle_fn(self, fn) -> Optional[tuple[str, bytes]]:
        """Ship the kernel by reference; ``None`` for closures/lambdas."""
        try:
            payload = pickle.dumps(fn)
        except Exception:
            return None
        token = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
        return token, payload

    # -- halo --------------------------------------------------------------
    def _exchange_halos(self, plan: LaunchPlan, halo: HaloSchedule, fplan, policy):
        """Account (and fault-probe) the exchange the shard split needs.

        Shards map shared segments, so no physical copy moves — the
        schedule is the byte-exact cost model of the exchange a
        distributed-memory run would perform, and ``cluster.halo`` is
        its injection seam.  Probes happen before any shard dispatches:
        a transient retries the (idempotent) exchange, a permanent
        escapes to the dispatch ladder before any shard ran.
        """
        from .. import faults as _faults

        if not halo.slabs:
            return
        base = (
            fplan.next_ordinal("cluster.halo", len(halo.slabs))
            if fplan is not None
            else 0
        )
        for k, slab in enumerate(halo.slabs):

            def body(k=k):
                if fplan is not None:
                    fplan.check("cluster.halo", ordinal=base + k)

            if fplan is None:
                body()
            else:
                _faults.retry_transients(
                    body, policy=policy, site="cluster.halo", plan=plan
                )
        _COUNTERS.bump("halo_exchanges", len(halo.slabs))
        _COUNTERS.bump("halo_bytes", halo.nbytes)

    # -- execution ---------------------------------------------------------
    def _run_inline(self, plan: LaunchPlan, fplan, policy) -> Optional[float]:
        """The unsharded rung: run in-process under the same seam."""
        from .. import faults as _faults

        _COUNTERS.bump("inline_launches")
        kernel, args, op = plan.kernel, plan.resolved_args, plan.op
        domain = (
            plan.schedule.domains[0]
            if plan.schedule is not None and plan.schedule.domains
            else plan.full_domain()
        )
        if plan.schedule is not None and not plan.schedule.inline:
            domain = plan.full_domain()

        def body():
            if fplan is not None:
                fplan.check("cluster.shard")
            if plan.is_reduce:
                return kernel.run_reduce(domain, args, op, plan.arena)
            kernel.run_for(domain, args, plan.arena)
            return None

        if fplan is None:
            return body()
        return _faults.retry_transients(
            body, policy=policy, site="cluster.shard", plan=plan
        )

    def _dispatch_shard(
        self, w: _Worker, plan, span, descs, fn_token, fn_bytes,
        task_id, ordinal, fplan, policy,
    ) -> None:
        """Probe, honour kill injection, and send one shard message.

        The probe and the kill both fire *before* the worker processes
        the message, so a retried or rebalanced shard never
        double-applies stores.
        """
        from .. import faults as _faults

        def body():
            if fplan is not None:
                fplan.check("cluster.shard", device_id=w.name, ordinal=ordinal)
                if fplan.take_kill("cluster.shard", ordinal, device_id=w.name):
                    _COUNTERS.bump("kills")
                    _faults.record_event(
                        _faults.FaultEvent(
                            site="cluster.shard",
                            kind="kill",
                            action="kill",
                            device_id=w.name,
                            kernel=getattr(plan.fn, "__name__", None),
                            detail=f"worker {w.name!r} SIGKILLed at shard "
                            f"ordinal {ordinal}",
                        ),
                        plan,
                    )
                    self._supervisor.sigkill(w)
            spec = {
                "construct": plan.construct,
                "op": plan.op,
                "ndim": plan.ndim,
                "ranges": [span] + [(0, d) for d in plan.dims[1:]],
                "args": descs,
                "fn_token": fn_token,
                "fn_bytes": fn_bytes if fn_token not in w.fn_tokens else b"",
            }
            try:
                w.conn.send(("shard", task_id, spec))
            except (OSError, BrokenPipeError) as exc:
                raise WorkerLostError(
                    f"worker {w.name!r} pipe broke at dispatch: {exc}",
                    device_id=w.name,
                    operation="cluster.shard",
                ) from exc
            w.fn_tokens.add(fn_token)

        if fplan is None:
            body()
        else:
            try:
                _faults.retry_transients(
                    body,
                    policy=policy,
                    site="cluster.shard",
                    plan=plan,
                    device_id=w.name,
                )
            except WorkerLostError:
                raise
            except PermanentDeviceError as exc:
                # An injected permanent at this seam models the worker's
                # device dying — treat it as a loss of the process.
                raise WorkerLostError(
                    str(exc), device_id=w.name, operation="cluster.shard"
                ) from exc

    def _collect_shard(self, w: _Worker, task_id: int, deadline: float):
        """Wait (bounded) for one shard reply from one worker.

        Replies carry the dispatch's task id; stale messages (heartbeat
        pongs, replies from a launch abandoned by an earlier error) are
        drained until this task's answer arrives.
        """
        while True:
            remaining = deadline - time.monotonic()
            try:
                if not w.conn.poll(max(0.0, remaining)):
                    raise WorkerLostError(
                        f"worker {w.name!r} missed the launch deadline",
                        device_id=w.name,
                        operation="cluster.shard",
                    )
                reply = w.conn.recv()
            except WorkerLostError:
                raise
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise WorkerLostError(
                    f"worker {w.name!r} died mid-shard: {exc}",
                    device_id=w.name,
                    operation="cluster.shard",
                ) from exc
            if reply[0] == "pong":
                continue
            if reply[1] != task_id:
                continue
            if reply[0] == "err":
                _tag, _task, exc_type, msg = reply
                raise KernelExecutionError(
                    f"cluster worker {w.name!r} failed shard {task_id}: "
                    f"{exc_type}: {msg}"
                )
            return reply[2]

    def _run_sharded(
        self, plan: LaunchPlan, descs, fn_token, fn_bytes, fplan, policy
    ) -> list[tuple[int, Optional[float]]]:
        """Dispatch row spans over the worker set until all rows ran.

        Round 1 follows the recorded schedule; a lost worker's span goes
        back on the queue and later rounds rebalance it over the
        survivors — the :class:`MultiDeviceBackend` recovery shape,
        lifted to processes.  Raises ``PermanentDeviceError`` when no
        worker remains (the dispatch ladder then demotes the backend).
        """
        from .. import faults as _faults

        sup = self._supervisor
        remaining: list[tuple[int, int]] = [
            dom.ranges[0]
            for dom in plan.schedule.domains
            if dom.ranges[0][1] > dom.ranges[0][0]
        ]
        tail_dims = plan.dims[1:]
        timeout = (
            policy.watchdog
            if policy is not None and policy.watchdog is not None
            else self.shard_timeout
        )
        partials: list[tuple[int, Optional[float]]] = []
        first_round = True
        while remaining:
            workers = sup.alive()
            if not workers:
                _COUNTERS.bump("degradations")
                raise PermanentDeviceError(
                    f"all cluster workers lost with "
                    f"{sum(hi - lo for lo, hi in remaining)} rows unprocessed "
                    f"(respawn budget {sup.max_respawns} spent: "
                    f"{sup.respawns_used})",
                    operation="cluster.shard",
                )
            if not first_round:
                _COUNTERS.bump("rebalances")
            # Assign spans: a lone span re-splits over every survivor;
            # multiple leftover spans go one-per-worker (extras queue).
            # Taken spans leave the queue here; a failed dispatch or
            # collection re-queues its span below.
            if len(remaining) == 1 and len(workers) > 1:
                lo, hi = remaining.pop()
                spans = [
                    (lo + c_lo, lo + c_hi)
                    for c_lo, c_hi in cpu_chunks(
                        (hi - lo,) + tuple(tail_dims), len(workers)
                    )
                ]
            else:
                spans = remaining[: len(workers)]
                remaining = remaining[len(workers):]
            batch = list(zip(workers, spans))
            base = (
                fplan.next_ordinal("cluster.shard", len(batch))
                if fplan is not None
                else 0
            )
            inflight = []
            for k, (w, span) in enumerate(batch):
                self._task_seq += 1
                task_id = self._task_seq
                try:
                    self._dispatch_shard(
                        w, plan, span, descs, fn_token, fn_bytes,
                        task_id, base + k, fplan, policy,
                    )
                except WorkerLostError as exc:
                    self._note_loss(w, span, exc, plan, fplan, policy)
                    remaining.append(span)
                    continue
                inflight.append((w, span, task_id))
            deadline = time.monotonic() + timeout
            for w, span, task_id in inflight:
                try:
                    partial = self._collect_shard(w, task_id, deadline)
                except WorkerLostError as exc:
                    self._note_loss(w, span, exc, plan, fplan, policy)
                    remaining.append(span)
                    continue
                _COUNTERS.bump("shards")
                partials.append((span[0], partial))
            first_round = False
        return partials

    def _note_loss(self, w, span, exc, plan, fplan, policy) -> None:
        """Record a loss event and attempt the elastic respawn."""
        from .. import faults as _faults

        refilled = self._supervisor.handle_loss(w, fplan, plan, policy)
        survivors = len(self._supervisor.alive())
        _faults.record_event(
            _faults.FaultEvent(
                site="cluster.shard",
                kind="permanent",
                action="failover",
                device_id=w.name,
                kernel=getattr(plan.fn, "__name__", None),
                detail=(
                    f"worker {w.name!r} lost ({exc}); rows "
                    f"[{span[0]}, {span[1]}) rebalanced over "
                    f"{survivors} worker(s)"
                    + (" after respawn" if refilled else "")
                ),
            ),
            plan,
        )

    def _fold(self, partials, op: str, plan, fplan, policy) -> float:
        """Deterministic pairwise tree over per-shard partials.

        Partials order by shard row offset (not arrival), so the fold
        tree — and its last-bit rounding — is a pure function of the
        final shard split.  ``cluster.reduce`` probes each combine.
        """
        from .. import faults as _faults

        values = [v for _lo, v in sorted(partials, key=lambda t: t[0])]
        if not values:
            raise KernelExecutionError("reduce plan produced no partials")
        n_folds = len(values) - 1
        base = (
            fplan.next_ordinal("cluster.reduce", max(1, n_folds))
            if fplan is not None
            else 0
        )
        k = 0
        while len(values) > 1:
            nxt = []
            for i in range(0, len(values) - 1, 2):
                a, b = values[i], values[i + 1]

                def body(a=a, b=b, k=k):
                    if fplan is not None:
                        fplan.check("cluster.reduce", ordinal=base + k)
                    if op == "add":
                        return a + b
                    if op == "min":
                        return min(a, b)
                    if op == "max":
                        return max(a, b)
                    raise ValueError(f"unsupported reduction op {op!r}")

                if fplan is None:
                    nxt.append(body())
                else:
                    nxt.append(
                        _faults.retry_transients(
                            body, policy=policy, site="cluster.reduce", plan=plan
                        )
                    )
                k += 1
            if len(values) % 2:
                nxt.append(values[-1])
            values = nxt
        _COUNTERS.bump("reduce_folds", n_folds)
        return float(values[0])

    def execute(self, plan: LaunchPlan) -> Optional[float]:
        from .. import faults as _faults

        self.accounting.n_kernel_launches += 1
        fplan = _faults.active_plan()
        policy = plan.policy or _faults.DEFAULT_POLICY
        sched = plan.schedule
        if sched is None or sched.inline:
            return self._run_inline(plan, fplan, policy)
        shipped = self._ship_args(plan)
        pickled = self._pickle_fn(plan.fn)
        if shipped is None or pickled is None:
            _COUNTERS.bump("unshippable")
            return self._run_inline(plan, fplan, policy)
        descs, writeback = shipped
        fn_token, fn_bytes = pickled
        try:
            self._supervisor.ensure_started(fplan, plan, policy)
        except PermanentDeviceError:
            _COUNTERS.bump("degradations")
            raise
        if self._retired:
            retired, self._retired = self._retired, []
            self._supervisor.broadcast_forget(retired)
        halo = getattr(sched, "halo", None)
        if halo is not None:
            self._exchange_halos(plan, halo, fplan, policy)
        partials = self._run_sharded(
            plan, descs, fn_token, fn_bytes, fplan, policy
        )
        # Shard writeback: commit staged results into the caller's
        # arrays *before* returning, so the dispatch stage's
        # write-version bump (repro.ir.writes) publishes values that
        # are actually there — the process-local contract satellite.
        for arr, view in writeback:
            np.copyto(arr, view)
            _COUNTERS.bump("staged_out_bytes", arr.nbytes)
        if not plan.is_reduce:
            return None
        return self._fold(partials, plan.op, plan, fplan, policy)
