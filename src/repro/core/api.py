"""The portable front end: ``parallel_for``, ``parallel_reduce``, ``launch``.

The paper's two constructs (§III) remain the whole user-facing compute
surface, and both remain **synchronous** — when they return, the
computation has completed on the backend (paper §IV, last paragraph).
Underneath, every construct is now a staged pipeline over a reified
:class:`~repro.core.plan.LaunchPlan`:

``resolve`` (bind backend + args from the current
:class:`~repro.core.context.ExecutionContext`) → ``compile`` (the
specialization ladder, against the context's kernel cache) → ``schedule``
(record the launch-shape/chunking decision on the plan) → ``execute``
(the backend consumes the plan through ``Backend.execute``).

:func:`launch` exposes the plan machinery directly and adds the
asynchronous path: ``launch(dims, f, *args, sync=False)`` enqueues the
plan on the context's in-order launch stream and returns a
:class:`~repro.core.plan.LaunchHandle`; :func:`synchronize` drains the
stream.  The default constructs never queue — the paper's synchronous
guarantee is preserved bit-for-bit.

Backend selection follows the paper's Preferences mechanism (see
:mod:`repro.core.preferences`) on the process-default context;
:func:`~repro.core.context.use_backend` scopes a different backend to the
current thread/task only.
"""

from __future__ import annotations

from typing import Any, Callable, Union

import numpy as np

from .. import faults
from ..ir import writes
from ..ir.compile import compile_kernel
from ..ir.verify import active_verify_mode, verify_launch
from .backend import Backend, normalize_dims
from .context import ExecutionContext, current_context, use_backend
from .exceptions import BackendError, InvalidReduceOpError
from .plan import LaunchHandle, LaunchPlan
from .preferences import write_preference

__all__ = [
    "parallel_for",
    "parallel_reduce",
    "launch",
    "active_backend",
    "set_backend",
    "reset_backend",
    "synchronize",
    "use_backend",
    "REDUCE_OPS",
]

#: The reductions the portable front end accepts (paper: ``add`` only;
#: ``min``/``max`` are the repository's documented extension).
REDUCE_OPS = ("add", "min", "max")


def active_backend() -> Backend:
    """The backend of the current execution context, resolving
    preferences on first call."""
    return current_context().backend()


def set_backend(
    backend: Union[str, Backend], *, persist: bool = False
) -> Backend:
    """Select the active backend by registry name or instance.

    Operates on the *current* execution context — the process-default
    one unless called inside a :func:`use_backend` scope.  With
    ``persist=True`` the name is also written to
    ``LocalPreferences.toml`` so future processes pick it up, mirroring
    Preferences.jl.  Persisting an ad-hoc instance is rejected because it
    cannot be reconstructed from a name.
    """
    if isinstance(backend, Backend):
        if persist:
            raise BackendError(
                "cannot persist a backend instance; pass its registry name"
            )
        return current_context().set_backend(backend)
    if persist:
        write_preference("backend", backend)
    return current_context().set_backend(backend)


def reset_backend() -> None:
    """Drop the current context's backend so the next use re-resolves
    preferences.  Only the calling context is affected."""
    current_context().reset()


def synchronize() -> None:
    """Synchronization point: drain the context's asynchronous launch
    queue, then synchronize the backend device.

    The default constructs are already synchronous; this is required
    only after ``launch(..., sync=False)`` (and kept for symmetry with
    the vendor models — it is a no-op on CPU backends with an empty
    queue).  Errors raised by queued kernels surface here.
    """
    ctx = current_context()
    ctx.drain()
    ctx.backend().synchronize()


# ---------------------------------------------------------------------------
# The staged dispatch pipeline
# ---------------------------------------------------------------------------


def _resolve(plan: LaunchPlan, ctx: ExecutionContext) -> LaunchPlan:
    """Stage 1: bind the context's backend and map user args to kernel
    args (backend arrays → raw storage), and attach the context's
    fault-handling policy."""
    plan.backend = ctx.backend()
    plan.resolved_args = plan.backend.resolve_args(plan.args)
    plan.arena = ctx.arena
    plan.policy = ctx.launch_policy
    return plan


def _compile(plan: LaunchPlan, ctx: ExecutionContext) -> LaunchPlan:
    """Stage 2: attach the compiled kernel, using the context's kernel
    cache when one is scoped (process-global otherwise), then check the
    parallel contract (races, bounds, reduction purity — see
    :mod:`repro.ir.verify`) under the active enforcement mode."""
    plan.kernel = compile_kernel(
        plan.fn,
        plan.ndim,
        plan.resolved_args,
        reduce=plan.is_reduce,
        cache=ctx.kernel_cache,
    )
    mode = active_verify_mode()
    if mode != "off":
        plan.diagnostics = verify_launch(
            plan.kernel,
            plan.dims,
            plan.resolved_args,
            plan.op if plan.is_reduce else None,
            mode,
        )
    return plan


def _schedule(plan: LaunchPlan, ctx: ExecutionContext) -> LaunchPlan:
    """Stage 3: record the backend's launch-shape/chunking decision on
    the plan (GPU thread/block shapes, CPU chunk domains, inline flag)."""
    plan.schedule = plan.backend.schedule(plan)
    return plan


def plan_access_ids(plan: LaunchPlan) -> tuple:
    """``(written_ids, read_ids)`` storage-id tuples for a staged plan.

    Traced kernels report exactly the arrays their stores/loads touch.
    The argument positions come from the trace, walked once per trace
    (:meth:`~repro.ir.nodes.Trace.access_positions`); per launch they are
    only mapped to ``id()`` of the resolved arguments, deduplicated so an
    array passed at two positions counts once.  Opaque
    (interpreter-tier) kernels conservatively count every resolved
    ndarray on both sides.
    """
    kernel = plan.kernel
    trace = kernel.trace if kernel is not None else None
    args = plan.resolved_args
    if trace is None:
        every = tuple(id(a) for a in args if isinstance(a, np.ndarray))
        return every, every
    written, read = trace.access_positions()
    return (
        tuple(dict.fromkeys([id(args[p]) for p in written])),
        tuple(dict.fromkeys([id(args[p]) for p in read])),
    )


def _execute(plan: LaunchPlan, ctx: ExecutionContext) -> LaunchPlan:
    """Stage 4: account the dispatch, fire hooks, and hand the plan to
    the backend's narrowed ``execute`` entry point (with the launch
    policy's permanent-failure failover ladder around it)."""
    backend = plan.backend
    if plan.is_reduce:
        backend.accounting.n_reduce += 1
    else:
        backend.accounting.n_for += 1
    plan.sim_time_before = backend.accounting.sim_time
    ctx.fire_launch(plan)
    backend.account_portable_dispatch(plan.construct, plan.dims)
    written = plan.written_ids
    read = plan.read_ids
    if written is None or read is None:
        written, read = plan_access_ids(plan)
        plan.written_ids = written
        plan.read_ids = read
    # Fire external-access guards *before* the kernel runs: a launch
    # touching an array some graph optimistically optimized (sunk into an
    # arena buffer, dead-store-eliminated) must see the materialized,
    # unoptimized state — see repro.ir.writes / repro.ir.program.
    writes.note_access(read + written)
    plan.result = faults.execute_plan(plan, ctx)
    # Failover may have demoted plan.backend; read the clock that ran.
    plan.sim_time_after = plan.backend.accounting.sim_time
    # Version the arrays this launch stored to, so instantiated graphs
    # that hoisted loads from "const" arrays can detect writers they
    # could not see at instantiation (see repro.ir.writes).
    writes.note_writes(written)
    ctx.fire_complete(plan)
    return plan


def _stage(construct: str, dims, f: Callable, args: tuple, op: str) -> tuple:
    """Build a plan and run the pre-execution stages."""
    ctx = current_context()
    plan = LaunchPlan(
        construct=construct, dims=normalize_dims(dims), fn=f, args=args, op=op
    )
    _resolve(plan, ctx)
    _compile(plan, ctx)
    _schedule(plan, ctx)
    return plan, ctx


def _dispatch(construct: str, dims, f: Callable, args: tuple, op: str) -> LaunchPlan:
    """Run a construct through the full pipeline, synchronously.

    A synchronous construct issued after asynchronous launches observes
    their effects: the context queue is drained first (program order).
    """
    ctx = current_context()
    if ctx.pending_launches:
        ctx.drain()
    cap = ctx.graph_capture
    slot_map = None
    if cap is not None:
        # Relaxed stream capture (see repro.graph): the construct still
        # executes eagerly through the full pipeline; its staged plan is
        # recorded afterwards, with ScalarSlot wrappers stripped to
        # their concrete values first (slots are a graph-level concept —
        # the tracer and cache keys only ever see real scalars).
        args, slot_map = cap.strip_slots(args)
    plan, ctx = _stage(construct, dims, f, args, op)
    _execute(plan, ctx)
    if cap is not None:
        cap.record(plan, slot_map)
    return plan


def _validate_op(op: str) -> None:
    if op not in REDUCE_OPS:
        raise InvalidReduceOpError(
            f"unknown reduction op {op!r}; expected one of "
            "{'add', 'min', 'max'}"
        )


# ---------------------------------------------------------------------------
# The paper's constructs (synchronous, unchanged semantics)
# ---------------------------------------------------------------------------


def parallel_for(dims, f: Callable, *args: Any) -> None:
    """Apply the scalar kernel ``f`` at every index of the launch domain.

    Parameters
    ----------
    dims:
        ``N`` (1-D), ``(M, N)`` (2-D) or ``(L, M, N)`` (3-D) — the number
        of iterations per axis, typically the array sizes (paper Fig. 2).
    f:
        The kernel: ``f(i, *args)``, ``f(i, j, *args)`` or
        ``f(i, j, k, *args)``.  Indices are 0-based.
    *args:
        The kernel's parameters — backend arrays (from
        :func:`repro.array`), plain ndarrays (CPU backends), and scalars.

    The call returns only after the computation has completed.
    """
    _dispatch("for", dims, f, args, op="add")


def parallel_reduce(dims, f: Callable, *args: Any, op: str = "add") -> float:
    """Reduce the values returned by ``f`` over the launch domain.

    Same shape/kernel conventions as :func:`parallel_for`; ``f`` must
    return a value on every path.  ``op`` selects the fold: ``"add"``
    (default, the paper's only reduction), ``"min"`` or ``"max"`` —
    anything else raises :class:`ValueError` here, at the API boundary.

    Returns the reduced value as a Python float.  (JACC returns a
    one-element device array; we return the host scalar directly and
    charge the device→host copy to the model, which is what the paper's
    DOT timing includes.)
    """
    _validate_op(op)
    return _dispatch("reduce", dims, f, args, op=op).result


# ---------------------------------------------------------------------------
# The reified-launch surface
# ---------------------------------------------------------------------------


def launch(
    dims,
    f: Callable,
    *args: Any,
    reduce: bool = False,
    op: str = "add",
    sync: bool = True,
) -> LaunchHandle:
    """Dispatch a construct as an explicit :class:`LaunchPlan`.

    With ``sync=True`` (default) this is :func:`parallel_for` /
    :func:`parallel_reduce` returning an already-completed
    :class:`LaunchHandle` — same synchronous guarantee as the paper's
    constructs.

    With ``sync=False`` the fully staged plan (resolved, compiled,
    scheduled) is enqueued on the context's launch stream and the handle
    returns immediately.  Launches on one stream execute in submission
    order (so dependent kernels stay correct); they overlap with the
    submitting thread.  ``handle.wait()`` blocks for one launch,
    ``handle.result()`` additionally returns the reduce value, and
    :func:`synchronize` drains the whole stream.  Staging errors (unknown
    backend, untraceable kernel, bad op) still raise immediately at the
    call site; only execution is deferred.
    """
    if reduce:
        _validate_op(op)
    construct = "reduce" if reduce else "for"
    if sync:
        return LaunchHandle(_dispatch(construct, dims, f, args, op=op))
    plan, ctx = _stage(construct, dims, f, args, op=op)
    _check_async_hazards(plan, ctx)
    future = ctx.submit(lambda: _execute(plan, ctx))
    handle = LaunchHandle(plan, future)
    ctx.enqueue(handle)
    return handle


def _check_async_hazards(plan: LaunchPlan, ctx: ExecutionContext) -> None:
    """V601: flag a ``sync=False`` launch racing an unsynchronized one.

    Launches on one context's stream execute in submission order, so a
    data dependence between pending launches is *correct* — but it means
    the new launch cannot overlap the stream, which is the only reason
    to pass ``sync=False``.  The diagnostic catches the pattern where a
    user assumed two async launches run concurrently while they in fact
    serialize on a RAW/WAW dependence (or would race on a multi-stream
    backend).  Enforcement follows the kernel-verifier mode: ``warn``
    emits :class:`~repro.ir.diagnostics.KernelVerificationWarning`,
    ``error`` raises, ``off`` skips the analysis entirely.
    """
    mode = active_verify_mode()
    if mode == "off":
        return
    pending = ctx.pending_handles()
    if not pending:
        return
    from ..ir.effects import async_hazards

    diags = async_hazards(plan, [h.plan for h in pending])
    if not diags:
        return
    if mode == "error":
        from .exceptions import KernelVerificationError

        raise KernelVerificationError(plan.label, diags)
    import warnings

    from ..ir.diagnostics import KernelVerificationWarning

    for d in diags:
        warnings.warn(str(d), KernelVerificationWarning, stacklevel=3)
