"""Trace-to-C code generation: the *native* rung of the executor ladder.

The codegen tier (:mod:`repro.ir.codegen`) removed the per-launch IR walk
but still pays NumPy's per-ufunc dispatch and materializes whole-domain
temporaries.  Julia's LLVM JIT — the performance baseline the paper
leans on — emits one fused scalar loop instead.  This module closes that
last gap: a verified, optimized :class:`~repro.ir.nodes.Trace` is
lowered into a single C translation unit — fused scalar loop nests,
guards as branches, gathers via clamped indexing, reduces writing a
per-lane value buffer — compiled once with the system C compiler
(``PYACC_CC``, see :mod:`repro.ir.nativecache`) and called through
stdlib :mod:`ctypes` with per-chunk bounds, so every backend family
(serial / threads / cuda-sim / multi-sim) runs the same machine loop
over its own chunks.  The ctypes call releases the GIL, so the threads
backend gets genuine parallel chunk execution out of the rung for free.

Bit-identity contract
---------------------
The differential suite requires native == codegen == vector **bit for
bit** on every verified kernel, so the lowering only admits constructs
whose per-lane C evaluation provably reproduces the vectorizer's
whole-domain NumPy semantics:

* **Store groups.**  Stores are partitioned into consecutive groups with
  no intra-group cross-lane dependence: a group is either a run of
  identity-indexed stores whose expressions load group-written arrays
  only at identity positions (per-lane load-after-store then equals the
  vectorizer's whole-domain store-then-load), or a singleton scatter
  store.  Each group lowers to one loop nest; the loop boundary is the
  whole-domain barrier the vectorizer's store-by-store order implies.
* **Reduction fold.**  The C loop computes only the *per-lane* float64
  values (into an arena-leased buffer passed as a raw pointer); the fold
  itself stays in NumPy (``values.sum()`` — pairwise summation), so the
  reduce is bit-identical to the other rungs by construction instead of
  by re-implementing pairwise order in C.
* **Operation allowlist.**  Only ops whose C scalar semantics match the
  NumPy ufunc exactly are admitted (IEEE ``+ - * /``, NaN-propagating
  min/max ternaries, ``sqrt``/``floor``/``ceil``/``abs``/``neg``,
  comparisons, logical combinators, select, C-truncation casts); per-node
  dtypes come from the NEP-50 probe lattice (:mod:`repro.ir.shapes`) and
  operands are cast to the probed result dtype, float32 math runs in C
  ``float``.  Everything else — ``pow``/``mod``/``floordiv``,
  transcendentals with libm-vs-NumPy ULP drift, bool arithmetic, float
  indices — **declines** with a recorded reason and the kernel falls to
  codegen, exactly like codegen declines to vector.

Run-time pre-flight declines (see :class:`NativeKernel`) re-check the
assumptions the C code bakes in — dtype/rank/contiguity, identity-access
extents, written-array aliasing, weak-int narrowing — before any side
effect, so an ineligible *call* (not just an ineligible kernel) falls
back with the arrays untouched.
"""

from __future__ import annotations

import ctypes
from typing import Any, Optional, Sequence

import numpy as np

from ..core.exceptions import KernelExecutionError
from . import nodes as N
from .arena import ScratchArena, resolve as _resolve_arena
from .nativecache import (
    NativeCompileError,
    compile_source,
    record_decline,
)
from .shapes import Lattice, _static_identity
from .vectorizer import IndexDomain, _fold

__all__ = [
    "NativeLoweringError",
    "NativeDeclined",
    "NativeKernel",
    "lower_native",
]


class NativeLoweringError(Exception):
    """The trace uses a construct outside the native bit-identity
    contract; the compile ladder stays on codegen.  ``reason`` is the
    decline-taxonomy token recorded in ``cache_info()["native"]``."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


class NativeDeclined(Exception):
    """A *call* failed the run-time pre-flight (taxonomy token in
    ``reason``); the caller falls through to the codegen program with
    every argument untouched."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Dtype mapping
# ---------------------------------------------------------------------------

#: np dtype-code -> C element type.  The allowlist *is* the eligibility
#: certificate: anything else declines with ``dtype:<code>``.
_CTYPE = {
    "f8": "double",
    "f4": "float",
    "i8": "int64_t",
    "i4": "int32_t",
    "b1": "uint8_t",
}

_F8 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)

#: Binary ops with exact C equivalents (min/max are special-cased).
_BIN_SYM = {"add": "+", "sub": "-", "mul": "*", "truediv": "/"}

#: Unary ops admitted (correctly-rounded / exact in both worlds).
_UN_OK = frozenset({"neg", "abs", "sqrt", "floor", "ceil"})

_CMP_SYM = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
_BOOL_SYM = {"and": "&&", "or": "||", "xor": "!="}


def _dt_code(dt: np.dtype) -> str:
    return dt.kind + str(dt.itemsize)


def _ctype_of(dt: np.dtype) -> str:
    if not dt.isnative:
        raise NativeLoweringError(f"dtype:{dt.str}")
    ct = _CTYPE.get(_dt_code(dt))
    if ct is None:
        raise NativeLoweringError(f"dtype:{_dt_code(dt)}")
    return ct


def _float_literal(v: float) -> str:
    import math

    if math.isnan(v):
        return "NAN"
    if math.isinf(v):
        return "INFINITY" if v > 0 else "(-INFINITY)"
    return f"({v.hex()})" if v < 0 else v.hex()


# ---------------------------------------------------------------------------
# Store-group partitioning
# ---------------------------------------------------------------------------


def _store_roots(st: N.Store) -> list[N.Node]:
    roots = list(st.indices) + [st.value]
    if st.condition is not None:
        roots.append(st.condition)
    return roots


def _partition_groups(trace: N.Trace) -> list[list[N.Store]]:
    """Split stores into loops whose per-lane execution matches the
    vectorizer's whole-domain store order (see module docstring)."""
    ndim = trace.ndim
    groups: list[list[N.Store]] = []
    cur: list[N.Store] = []
    cur_written: set[int] = set()
    for st in trace.stores:
        if not _static_identity(st.indices, ndim):
            # A scatter store loops alone: cross-lane writes interleaved
            # with anything else would reorder against the vectorizer.
            if any(
                isinstance(nd, N.Load) and nd.array.pos == st.array.pos
                for root in _store_roots(st)
                for nd in N.walk(root)
            ):
                # Per-lane read/write of the *same* array through
                # computed indices (a permutation) cannot match the
                # gather-all-then-scatter whole-domain order.
                raise NativeLoweringError("scatter-read-overlap")
            if cur:
                groups.append(cur)
                cur, cur_written = [], set()
            groups.append([st])
            continue
        # Identity store: joins the current group unless it reads a
        # group-written array at non-identity indices.
        breaks = any(
            isinstance(nd, N.Load)
            and nd.array.pos in cur_written
            and not _static_identity(nd.indices, ndim)
            for root in _store_roots(st)
            for nd in N.walk(root)
        )
        if breaks and cur:
            groups.append(cur)
            cur, cur_written = [], set()
        cur.append(st)
        cur_written.add(st.array.pos)
    if cur:
        groups.append(cur)
    return groups


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _NativeLowering:
    def __init__(self, trace: N.Trace, args: Sequence[Any]):
        if np.dtype(np.intp).itemsize != 8:  # pragma: no cover - x86/arm64
            raise NativeLoweringError("intp-size")
        self.trace = trace
        self.ndim = trace.ndim
        self.args = args
        self.lat = Lattice(trace.ndim, args)
        # Per-array static facts, keyed by argument position.
        self.arr_dtype: dict[int, np.dtype] = {}
        self.arr_rank: dict[int, int] = {}
        self.extent_slots: set[int] = set()  # identity access: hi <= shape
        self.gather_slots: set[int] = set()  # has non-identity loads
        self.written: dict[int, bool] = {}  # pos -> has scatter store
        self.fscalar: list[int] = []  # positions staged as double
        self.iscalar: list[int] = []  # positions staged as int64
        self.narrow_i4: set[int] = set()  # weak ints cast to int32 sites
        # Emission state (reset per loop body).
        self.body: list[str] = []
        self.emitted: dict[int, tuple[str, Any]] = {}
        self.deps: dict[int, frozenset[int]] = {}
        self._tmp = 0
        self._scalar_codes: dict[int, tuple[str, Any]] = {}

    # -- argument staging --------------------------------------------------
    def _array(self, node: N.ArrayArg) -> int:
        pos = node.pos
        if pos not in self.arr_dtype:
            arr = self.args[pos]
            if not isinstance(arr, np.ndarray):
                raise NativeLoweringError("not-an-array")
            _ctype_of(arr.dtype)  # dtype allowlist
            self.arr_dtype[pos] = arr.dtype
            self.arr_rank[pos] = arr.ndim
        return pos

    def _scalar(self, pos: int) -> tuple[str, Any]:
        got = self._scalar_codes.get(pos)
        if got is not None:
            return got
        from .shapes import scalar_dtype

        elem = scalar_dtype(self.args[pos])
        if elem is None:
            raise NativeLoweringError("scalar-type")
        if isinstance(elem, np.dtype):
            _ctype_of(elem)
            kind = elem.kind
        else:
            kind = {"wf": "f", "wi": "i", "wb": "b"}[elem]
        if kind == "f":
            self.fscalar.append(pos)
        else:
            self.iscalar.append(pos)
        out = (f"s{pos}", elem)
        self._scalar_codes[pos] = out
        return out

    # -- expression emission ----------------------------------------------
    def _new_tmp(self) -> str:
        self._tmp += 1
        return f"t{self._tmp}"

    def _deps_of(self, *children: N.Node) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for c in children:
            d = self.deps.get(id(c))
            if d:
                out |= d
        return out

    def _invalidate(self, pos: int) -> None:
        dead = [nid for nid, dp in self.deps.items() if pos in dp]
        for nid in dead:
            self.emitted.pop(nid, None)
            self.deps.pop(nid, None)

    def _reset_body(self) -> None:
        self.body = []
        self.emitted = {}
        self.deps = {}

    def coerce(self, code_elem: tuple[str, Any], target: np.dtype) -> str:
        """C expression casting ``code`` (of lattice element ``elem``)
        to ``target`` — the NEP-50 operand cast the ufunc would apply."""
        code, elem = code_elem
        if isinstance(elem, np.dtype) and elem == target:
            return code
        tcode = _dt_code(target)
        if tcode == "b1":
            return f"(uint8_t)(({code}) != 0)"
        if tcode == "i4" and elem == "wi":
            # Weak Python int narrowed to int32: exact only when the
            # runtime value fits — checked per call in the pre-flight.
            if code.startswith("s") and code[1:].isdigit():
                self.narrow_i4.add(int(code[1:]))
        return f"({_CTYPE[tcode]})({code})"

    def _as_bool(self, code_elem: tuple[str, Any]) -> str:
        code, elem = code_elem
        if isinstance(elem, np.dtype) and elem == _BOOL:
            return code
        return f"(({code}) != 0)"

    def _node_dtype(self, node: N.Node) -> np.dtype:
        dt = self.lat.dtype(node)
        if not isinstance(dt, np.dtype):
            raise NativeLoweringError("dtype")
        _ctype_of(dt)
        return dt

    def emit(self, node: N.Node) -> tuple[str, Any]:
        """Emit ``node`` into the current loop body; returns
        ``(C code, lattice element)`` — a temp name for interior nodes,
        an inline literal/parameter for leaves."""
        if isinstance(node, N.Const):
            v = node.value
            if isinstance(v, bool):
                return ("1" if v else "0", "wb")
            if isinstance(v, int):
                if not -(2**63) <= v < 2**63:
                    raise NativeLoweringError("const-range")
                return (f"INT64_C({v})", "wi")
            if isinstance(v, float):
                return (_float_literal(v), "wf")
            raise NativeLoweringError("const-type")
        if isinstance(node, N.Index):
            if node.axis >= self.ndim:
                raise NativeLoweringError("axis-range")
            return (f"i{node.axis}", np.dtype(np.intp))
        if isinstance(node, N.ScalarArg):
            return self._scalar(node.pos)
        nid = id(node)
        got = self.emitted.get(nid)
        if got is not None:
            return got
        code, elem, deps = self._emit_inner(node)
        var = self._new_tmp()
        ct = _ctype_of(elem) if isinstance(elem, np.dtype) else "double"
        self.body.append(f"const {ct} {var} = {code};")
        out = (var, elem)
        self.emitted[nid] = out
        if deps:
            self.deps[nid] = deps
        return out

    def _flat_index(self, pos: int, idx_codes: list[str]) -> str:
        """Row-major flat offset from per-axis int64 index codes."""
        rank = self.arr_rank[pos]
        terms = []
        for ax, code in enumerate(idx_codes):
            if ax < rank - 1:
                terms.append(f"({code}) * a{pos}_s{ax}")
            else:
                terms.append(f"({code})")
        return " + ".join(terms)

    def _gather_index(self, pos: int, ix: N.Node, ax: int) -> str:
        """Clamped int64 index for a gather load (mirrors ``_gather``)."""
        code, elem = self.emit(ix)
        if isinstance(elem, np.dtype):
            if elem.kind not in "ib":
                raise NativeLoweringError("float-index")
            code = self.coerce((code, elem), np.dtype(np.int64))
        elif elem == "wi" or elem == "wb":
            pass  # already an int64-typed C expression
        else:
            raise NativeLoweringError("float-index")
        var = self._new_tmp()
        n = f"a{pos}_n{ax}"
        self.body.append(f"int64_t {var} = {code};")
        self.body.append(f"if ({var} < 0) {var} = 0;")
        self.body.append(f"if ({var} >= {n}) {var} = {n} - 1;")
        return var

    def _emit_inner(self, node: N.Node):
        if isinstance(node, N.Load):
            pos = self._array(node.array)
            arr_dt = self.arr_dtype[pos]
            deps = self._deps_of(*node.indices) | {pos}
            if _static_identity(node.indices, self.ndim):
                if self.arr_rank[pos] != self.ndim:
                    raise NativeLoweringError("rank")
                self.extent_slots.add(pos)
                flat = self._flat_index(
                    pos, [f"i{ax}" for ax in range(self.ndim)]
                )
            else:
                self.gather_slots.add(pos)
                idx = [
                    self._gather_index(pos, ix, ax)
                    for ax, ix in enumerate(node.indices)
                ]
                deps = self._deps_of(*node.indices) | {pos}
                flat = self._flat_index(pos, idx)
            code = f"a{pos}[{flat}]"
            if _dt_code(arr_dt) == "b1":
                code = f"({code} != 0)"
            return code, arr_dt, deps
        if isinstance(node, N.BinOp):
            if node.op not in _BIN_SYM and node.op not in ("min", "max"):
                raise NativeLoweringError(f"op:{node.op}")
            rdt = self._node_dtype(node)
            if rdt == _BOOL:
                raise NativeLoweringError("bool-arith")
            a = self.coerce(self.emit(node.lhs), rdt)
            b = self.coerce(self.emit(node.rhs), rdt)
            deps = self._deps_of(node.lhs, node.rhs)
            if node.op in ("min", "max"):
                rel = "<" if node.op == "min" else ">"
                if rdt.kind == "f":
                    # np.minimum/maximum propagate NaN from either side.
                    code = f"(({a} {rel} {b} || {a} != {a}) ? {a} : {b})"
                else:
                    code = f"(({a} {rel} {b}) ? {a} : {b})"
                return code, rdt, deps
            return f"({a} {_BIN_SYM[node.op]} {b})", rdt, deps
        if isinstance(node, N.UnOp):
            if node.op not in _UN_OK:
                raise NativeLoweringError(f"op:{node.op}")
            rdt = self._node_dtype(node)
            v = self.coerce(self.emit(node.operand), rdt)
            deps = self._deps_of(node.operand)
            if node.op == "neg":
                return f"(-({v}))", rdt, deps
            if node.op == "abs":
                if rdt.kind == "f":
                    fn = "fabsf" if rdt.itemsize == 4 else "fabs"
                    return f"{fn}({v})", rdt, deps
                return f"(({v}) < 0 ? -({v}) : ({v}))", rdt, deps
            # sqrt/floor/ceil: correctly-rounded libm = NumPy's loops.
            fn = node.op + ("f" if rdt.itemsize == 4 else "")
            return f"{fn}({v})", rdt, deps
        if isinstance(node, N.Compare):
            from .shapes import promote

            common = promote("add", self.lat.dtype(node.lhs), self.lat.dtype(node.rhs))
            if not isinstance(common, np.dtype):
                raise NativeLoweringError("dtype")
            _ctype_of(common)
            a = self.coerce(self.emit(node.lhs), common)
            b = self.coerce(self.emit(node.rhs), common)
            return (
                f"(uint8_t)({a} {_CMP_SYM[node.op]} {b})",
                _BOOL,
                self._deps_of(node.lhs, node.rhs),
            )
        if isinstance(node, N.BoolOp):
            a = self._as_bool(self.emit(node.lhs))
            b = self._as_bool(self.emit(node.rhs))
            return (
                f"(uint8_t)({a} {_BOOL_SYM[node.op]} {b})",
                _BOOL,
                self._deps_of(node.lhs, node.rhs),
            )
        if isinstance(node, N.Not):
            v = self._as_bool(self.emit(node.operand))
            return f"(uint8_t)(!{v})", _BOOL, self._deps_of(node.operand)
        if isinstance(node, N.Select):
            rdt = self._node_dtype(node)
            c = self._as_bool(self.emit(node.cond))
            t = self.coerce(self.emit(node.if_true), rdt)
            f = self.coerce(self.emit(node.if_false), rdt)
            return (
                f"({c} ? {t} : {f})",
                rdt,
                self._deps_of(node.cond, node.if_true, node.if_false),
            )
        if isinstance(node, N.Cast):
            target = np.dtype(np.int64 if node.kind == "int" else np.float64)
            v = self.coerce(self.emit(node.operand), target)
            return v, target, self._deps_of(node.operand)
        raise NativeLoweringError("node-type")

    # -- stores ------------------------------------------------------------
    def _store_cast(self, code_elem: tuple[str, Any], pos: int) -> str:
        """Value cast for assignment into array ``pos`` (NumPy's unsafe
        same-kind assignment cast = the C conversion)."""
        return self.coerce(code_elem, self.arr_dtype[pos])

    def emit_store(self, st: N.Store) -> None:
        pos = self._array(st.array)
        identity = _static_identity(st.indices, self.ndim)
        self.written.setdefault(pos, False)
        # Evaluation order mirrors codegen: value, then mask, then (for
        # scatters) the index expressions.
        val = self.emit(st.value)
        mask = None
        if st.condition is not None:
            mask = self._as_bool(self.emit(st.condition))
        if identity:
            if self.arr_rank[pos] != self.ndim:
                raise NativeLoweringError("rank")
            self.extent_slots.add(pos)
            flat = self._flat_index(pos, [f"i{ax}" for ax in range(self.ndim)])
            assign = f"a{pos}[{flat}] = {self._store_cast(val, pos)};"
            if mask is None:
                self.body.append(assign)
            else:
                self.body.append(f"if ({mask}) {{ {assign} }}")
            self._invalidate(pos)
            return
        # Scatter store: negative indices wrap, out-of-bounds on a taken
        # lane aborts the kernel (the Python wrapper raises the same
        # KernelExecutionError the vectorizer's fancy-index path does).
        self.written[pos] = True
        idx_codes = []
        for ax, ix in enumerate(st.indices):
            code, elem = self.emit(ix)
            if isinstance(elem, np.dtype):
                if elem.kind not in "ib":
                    raise NativeLoweringError("float-index")
                code = self.coerce((code, elem), np.dtype(np.int64))
            elif elem not in ("wi", "wb"):
                raise NativeLoweringError("float-index")
            idx_codes.append(code)
        guard_open = f"if ({mask}) {{" if mask is not None else "{"
        self.body.append(guard_open)
        checked = []
        for ax, code in enumerate(idx_codes):
            n = f"a{pos}_n{ax}"
            xv = self._new_tmp()
            self.body.append(f"  int64_t {xv} = {code};")
            self.body.append(
                f"  if ({xv} < -{n} || {xv} >= {n}) "
                f"{{ *err = {pos} + 1; return; }}"
            )
            self.body.append(f"  if ({xv} < 0) {xv} += {n};")
            checked.append(xv)
        flat = self._flat_index(pos, checked)
        self.body.append(f"  a{pos}[{flat}] = {self._store_cast(val, pos)};")
        self.body.append("}")
        self._invalidate(pos)

    # -- assembly ----------------------------------------------------------
    def _loop_nest(self, body: list[str], with_out: bool) -> list[str]:
        lines = []
        for ax in range(self.ndim):
            pad = "  " * ax
            lines.append(
                f"{pad}for (int64_t i{ax} = lo{ax}; i{ax} < hi{ax}; ++i{ax}) {{"
            )
        pad = "  " * self.ndim
        lines += [pad + line for line in body]
        for ax in reversed(range(self.ndim)):
            lines.append("  " * ax + "}")
        return lines

    def _out_flat(self) -> str:
        terms = "(i0 - lo0)"
        for ax in range(1, self.ndim):
            terms = f"({terms} * e{ax} + (i{ax} - lo{ax}))"
        return terms

    def lower(self) -> dict:
        groups = _partition_groups(self.trace)
        loops: list[list[str]] = []
        for group in groups:
            self._reset_body()
            for st in group:
                self.emit_store(st)
            loops.append(self._loop_nest(self.body, False))
        has_result = self.trace.result is not None
        result_loop: list[str] = []
        if has_result:
            self._reset_body()
            res = self.emit(self.trace.result)
            self.body.append(
                f"out[{self._out_flat()}] = "
                f"{self.coerce(res, _F8)};"
            )
            result_loop = self._loop_nest(self.body, True)

        arr_order = sorted(self.arr_dtype)
        lines = [
            "#include <stdint.h>",
            "#include <math.h>",
            "",
            "void pyacc_kernel(void **arrs, const int64_t *shp,",
            "                  const double *fsc, const int64_t *isc,",
            "                  const int64_t *bounds, double *out,",
            "                  int64_t *err) {",
            "  (void)arrs; (void)shp; (void)fsc; (void)isc;",
            "  (void)bounds; (void)out; (void)err;",
        ]
        off = 0
        for k, pos in enumerate(arr_order):
            ct = _CTYPE[_dt_code(self.arr_dtype[pos])]
            rank = self.arr_rank[pos]
            lines.append(f"  {ct} *a{pos} = ({ct} *)arrs[{k}];")
            for ax in range(rank):
                lines.append(
                    f"  const int64_t a{pos}_n{ax} = shp[{off + ax}];"
                )
            # Row-major strides (pre-flight requires C-contiguity).
            for ax in range(rank - 1):
                factors = " * ".join(
                    f"a{pos}_n{x}" for x in range(ax + 1, rank)
                )
                lines.append(f"  const int64_t a{pos}_s{ax} = {factors};")
            off += rank
        for k, pos in enumerate(self.fscalar):
            elem = self._scalar_codes[pos][1]
            if isinstance(elem, np.dtype):
                ct = _CTYPE[_dt_code(elem)]
                lines.append(f"  const {ct} s{pos} = ({ct})fsc[{k}];")
            else:
                lines.append(f"  const double s{pos} = fsc[{k}];")
        for k, pos in enumerate(self.iscalar):
            elem = self._scalar_codes[pos][1]
            if isinstance(elem, np.dtype):
                ct = _CTYPE[_dt_code(elem)]
                if ct == "uint8_t":
                    lines.append(
                        f"  const uint8_t s{pos} = (uint8_t)(isc[{k}] != 0);"
                    )
                else:
                    lines.append(f"  const {ct} s{pos} = ({ct})isc[{k}];")
            else:
                lines.append(f"  const int64_t s{pos} = isc[{k}];")
        for ax in range(self.ndim):
            lines.append(f"  const int64_t lo{ax} = bounds[{2 * ax}];")
            lines.append(f"  const int64_t hi{ax} = bounds[{2 * ax + 1}];")
        for ax in range(1, self.ndim):
            lines.append(f"  const int64_t e{ax} = hi{ax} - lo{ax};")
        lines.append("")
        for loop in loops:
            lines += ["  " + line for line in loop]
            lines.append("")
        if has_result:
            lines.append("  if (out) {")
            lines += ["  " + line for line in result_loop]
            lines.append("  }")
        lines.append("}")

        return {
            "source": "\n".join(lines) + "\n",
            "arr_order": tuple(arr_order),
            "arr_dtype": {p: self.arr_dtype[p] for p in arr_order},
            "arr_rank": {p: self.arr_rank[p] for p in arr_order},
            "extent_slots": tuple(sorted(self.extent_slots)),
            "gather_slots": frozenset(self.gather_slots),
            "written": dict(self.written),
            "fscalar": tuple(self.fscalar),
            "iscalar": tuple(self.iscalar),
            "narrow_i4": tuple(sorted(self.narrow_i4)),
            "has_result": has_result,
        }


# ---------------------------------------------------------------------------
# Runtime wrapper
# ---------------------------------------------------------------------------

_REDUCE_IDENTITY = {"add": 0.0, "min": float(np.inf), "max": float(-np.inf)}

_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

_ARGTYPES = [
    ctypes.POINTER(ctypes.c_void_p),
    ctypes.POINTER(ctypes.c_int64),
    ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_int64),
    ctypes.POINTER(ctypes.c_int64),
    ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_int64),
]

_OUT_PTR = ctypes.POINTER(ctypes.c_double)
_ADDRESSOF = ctypes.addressof
_RAW0 = ctypes.c_char * 0


def _data_ptr(arr: np.ndarray) -> int:
    """Raw data pointer without the ``.ctypes`` interface object.

    ``ndarray.ctypes`` constructs a fresh interface wrapper on every
    access (~3x the cost of the whole pointer extraction); going through
    the buffer protocol keeps the per-launch marshal overhead at the
    level of the C call itself.  Read-only arrays refuse the writable
    buffer protocol and take the attribute path.
    """
    try:
        return _ADDRESSOF(_RAW0.from_buffer(arr))
    except (TypeError, ValueError, BufferError):
        return arr.ctypes.data


class NativeKernel:
    """A trace compiled to a shared object, callable per chunk.

    ``run_for``/``run_reduce`` mirror the other rungs' entry points; a
    call whose arguments violate a baked-in assumption raises
    :class:`NativeDeclined` *before any side effect* and the compiled
    kernel falls through to its codegen program.
    """

    __slots__ = (
        "source",
        "ndim",
        "has_result",
        "_fn",
        "_arr_order",
        "_arr_dtype",
        "_arr_rank",
        "_extent_slots",
        "_gather_slots",
        "_written",
        "_fscalar",
        "_iscalar",
        "_narrow_i4",
        "_void_t",
        "_shp_t",
        "_fsc_t",
        "_isc_t",
        "_bounds_t",
    )

    def __init__(self, spec: dict):
        self.source = spec["source"]
        self.ndim = spec["ndim"]
        self.has_result = spec["has_result"]
        self._arr_order = spec["arr_order"]
        self._arr_dtype = spec["arr_dtype"]
        self._arr_rank = spec["arr_rank"]
        self._extent_slots = spec["extent_slots"]
        self._gather_slots = spec["gather_slots"]
        self._written = spec["written"]
        self._fscalar = spec["fscalar"]
        self._iscalar = spec["iscalar"]
        self._narrow_i4 = spec["narrow_i4"]
        fn = compile_source(self.source)
        fn.argtypes = _ARGTYPES
        self._fn = fn
        # Marshal buffer types, sized once: per-call construction from
        # plain ints is ~10x cheaper than the generic ctypes paths.
        n_shp = sum(self._arr_rank[p] for p in self._arr_order)
        self._void_t = ctypes.c_void_p * max(1, len(self._arr_order))
        self._shp_t = ctypes.c_int64 * max(1, n_shp)
        self._fsc_t = ctypes.c_double * max(1, len(self._fscalar))
        self._isc_t = ctypes.c_int64 * max(1, len(self._iscalar))
        self._bounds_t = ctypes.c_int64 * (2 * self.ndim)

    # -- pre-flight --------------------------------------------------------
    def _preflight(self, domain: IndexDomain, args: Sequence[Any]) -> None:
        if domain.ndim != self.ndim:
            raise NativeDeclined("domain-rank")
        for pos in self._arr_order:
            arr = args[pos]
            if not isinstance(arr, np.ndarray):
                raise NativeDeclined("not-an-array")
            if arr.dtype != self._arr_dtype[pos]:
                raise NativeDeclined("dtype-drift")
            if arr.ndim != self._arr_rank[pos]:
                raise NativeDeclined("rank-drift")
            if not arr.flags.c_contiguous:
                raise NativeDeclined("non-contiguous")
            if pos in self._written and not arr.flags.writeable:
                raise NativeDeclined("read-only")
        for pos in self._extent_slots:
            shape = args[pos].shape
            for ax, (lo, hi) in enumerate(domain.ranges):
                if hi > shape[ax]:
                    raise NativeDeclined("extent")
        # Written-array aliasing: per-lane loops can only reorder
        # against the vectorizer through shared storage, so any overlap
        # involving a scatter-written array, or a written array whose
        # alias is gather-loaded, declines.
        for w, w_scatter in self._written.items():
            aw = args[w]
            for o in self._arr_order:
                if o == w:
                    continue
                ao = args[o]
                if not (
                    w_scatter
                    or o in self._gather_slots
                    or self._written.get(o, False)
                    and o in self._written
                    and self._written[o]
                ):
                    continue
                if ao is aw or np.may_share_memory(aw, ao):
                    if w_scatter or o in self._gather_slots:
                        raise NativeDeclined("alias")
        for pos in self._narrow_i4:
            v = args[pos]
            if not _I32_MIN <= int(v) <= _I32_MAX:
                raise NativeDeclined("scalar-overflow")
        for pos in self._iscalar:
            v = int(args[pos])
            if not _I64_MIN <= v <= _I64_MAX:
                raise NativeDeclined("scalar-overflow")

    # -- invocation --------------------------------------------------------
    def _call(self, domain: IndexDomain, args: Sequence[Any], out) -> None:
        ptrs = []
        shp_vals = []
        for pos in self._arr_order:
            a = args[pos]
            ptrs.append(_data_ptr(a))
            shp_vals.extend(a.shape)
        arrs_c = self._void_t(*ptrs)
        shp_c = self._shp_t(*shp_vals)
        fsc_c = self._fsc_t(*[float(args[p]) for p in self._fscalar])
        isc_c = self._isc_t(*[int(args[p]) for p in self._iscalar])
        bounds_c = self._bounds_t(
            *[b for lo_hi in domain.ranges for b in lo_hi]
        )
        err_c = ctypes.c_int64(0)
        out_p = (
            ctypes.cast(_data_ptr(out), _OUT_PTR)
            if out is not None
            else None
        )
        # ctypes releases the GIL for the duration of the call — chunked
        # launches on the threads backend run truly in parallel here.
        self._fn(arrs_c, shp_c, fsc_c, isc_c, bounds_c, out_p, err_c)
        if err_c.value:
            raise KernelExecutionError(
                f"out-of-bounds store into argument {err_c.value - 1}: "
                "native scatter index outside the array extent"
            )

    def run_for(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        arena: Optional[ScratchArena] = None,
    ) -> None:
        self._preflight(domain, args)
        self._call(domain, args, None)

    def evaluate_values(
        self, domain: IndexDomain, args: Sequence[Any]
    ) -> np.ndarray:
        """Per-lane result values over ``domain`` (float64, domain
        shape) — the native analogue of
        :func:`repro.ir.vectorizer.evaluate_values`, used by the
        cuda-sim per-block reduction primitives.  Stores run too,
        exactly like the vectorizer's variant."""
        if not self.has_result:
            raise KernelExecutionError(
                "kernel returns no value on any path"
            )
        self._preflight(domain, args)
        buf = np.empty(domain.shape, dtype=np.float64)
        self._call(domain, args, buf)
        return buf

    def run_reduce(
        self,
        domain: IndexDomain,
        args: Sequence[Any],
        op: str = "add",
        arena: Optional[ScratchArena] = None,
    ) -> float:
        if not self.has_result:
            raise KernelExecutionError(
                "parallel_reduce kernel did not return a value on any path"
            )
        if op not in _REDUCE_IDENTITY:
            raise KernelExecutionError(f"unsupported reduction op {op!r}")
        if domain.size == 0:
            return _REDUCE_IDENTITY[op]
        self._preflight(domain, args)
        # Per-lane values land in an arena-leased float64 buffer (raw
        # pointer handed to C); the fold is NumPy's — same pairwise sum,
        # same bits as the codegen/vector rungs.
        frame = _resolve_arena(arena).frame()
        try:
            buf = frame.take(domain.shape, np.float64)
            self._call(domain, args, buf)
            return _fold(buf, domain.shape, op)
        finally:
            frame.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NativeKernel ndim={self.ndim} arrays={len(self._arr_order)}>"
        )


def lower_native(trace: N.Trace, args: Sequence[Any]) -> NativeKernel:
    """Lower an optimized trace to a compiled :class:`NativeKernel`.

    Raises :class:`NativeLoweringError` (trace outside the bit-identity
    contract) or :class:`~repro.ir.nativecache.NativeCompileError`
    (compiler missing / compile / load failure); both carry the decline
    ``reason`` the caller records.  The caller keeps its codegen program
    as the fallback rung either way.
    """
    lowering = _NativeLowering(trace, args)
    try:
        spec = lowering.lower()
    except (NativeLoweringError, NativeCompileError):
        raise
    except Exception as exc:  # defensive: never break compilation
        raise NativeLoweringError("lowering-failed", str(exc)) from exc
    spec["ndim"] = trace.ndim
    return NativeKernel(spec)


def try_lower_native(
    trace: Optional[N.Trace], args: Sequence[Any]
) -> tuple[Optional[NativeKernel], Optional[str]]:
    """Best-effort native lowering: ``(kernel, None)`` on success,
    ``(None, reason)`` on decline — with the decline recorded in the
    native counters (see :func:`repro.ir.nativecache.native_stats`)."""
    if trace is None:
        return None, "no-trace"
    try:
        return lower_native(trace, args), None
    except (NativeLoweringError, NativeCompileError) as exc:
        record_decline(exc.reason)
        return None, exc.reason
