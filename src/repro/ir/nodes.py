"""Expression IR for traced kernels.

A kernel function ``f(i, j, *args)`` is traced (see :mod:`repro.ir.tracer`)
into a :class:`Trace`: an ordered list of :class:`Store` effects plus an
optional return expression, all built from the node classes below.  The IR
is deliberately small — it is the contract between the tracer and the two
executors (:mod:`repro.ir.vectorizer` and :mod:`repro.ir.interpreter`) and
the analysis pass (:mod:`repro.ir.stats`).

Design notes
------------
* Nodes are immutable after construction and compared by identity.  The
  vectorizer memoizes evaluation per node object, so reusing a Python
  variable inside a kernel automatically yields common-subexpression
  sharing in the executed program.
* Array and scalar kernel arguments are referenced *positionally*
  (:class:`ArrayArg`, :class:`ScalarArg`) so a single trace can be replayed
  against fresh argument values — the JIT-cache analogue of Julia method
  specialization on argument *types* rather than *values*.
* Indices are 0-based (Python/NumPy convention).  The paper's Julia code is
  1-based; the port is mechanical and documented in README.md.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "Node",
    "Const",
    "Index",
    "ScalarArg",
    "ArrayArg",
    "Load",
    "BinOp",
    "UnOp",
    "Compare",
    "BoolOp",
    "Not",
    "Select",
    "Cast",
    "Store",
    "Trace",
    "BINARY_OPS",
    "UNARY_OPS",
    "COMPARE_OPS",
    "BOOL_OPS",
    "walk",
    "format_node",
]

#: Binary arithmetic operators understood by both executors.
BINARY_OPS = frozenset(
    {"add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "min", "max"}
)

#: Unary operators / math intrinsics.
UNARY_OPS = frozenset(
    {
        "neg",
        "abs",
        "sqrt",
        "exp",
        "log",
        "sin",
        "cos",
        "tan",
        "tanh",
        "floor",
        "ceil",
        "sign",
    }
)

#: Comparison operators (produce boolean values).
COMPARE_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})

#: Short-circuit-free boolean combinators (used for path conditions).
BOOL_OPS = frozenset({"and", "or", "xor"})


class Node:
    """Base class for IR expression nodes.

    ``children`` lists sub-expressions in a fixed order so generic
    traversals (:func:`walk`) work without per-class logic.
    """

    __slots__ = ()

    @property
    def children(self) -> tuple["Node", ...]:
        return ()

    # Identity-based hashing/equality (default object behaviour) is what the
    # executors rely on for memoization; declared here for documentation.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return format_node(self)


class Const(Node):
    """A compile-time constant scalar (Python int/float/bool)."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float, bool]):
        self.value = value


class Index(Node):
    """The parallel index along one axis of the launch domain.

    ``axis`` is 0 for ``i``, 1 for ``j``, 2 for ``k`` — matching the
    paper's ``f(i, ...)``, ``f(i, j, ...)``, ``f(i, j, k, ...)`` kernel
    signatures.
    """

    __slots__ = ("axis",)

    def __init__(self, axis: int):
        if not 0 <= axis <= 2:
            raise ValueError(f"index axis must be 0..2, got {axis}")
        self.axis = axis


class ScalarArg(Node):
    """A scalar kernel argument, referenced by its position in ``args``."""

    __slots__ = ("pos",)

    def __init__(self, pos: int):
        self.pos = pos


class ArrayArg(Node):
    """An array kernel argument, referenced by position.

    ``ndim`` is the array rank recorded at trace time; it is part of the
    trace-cache key, so a 1-D and a 2-D call site get distinct traces.
    """

    __slots__ = ("pos", "ndim")

    def __init__(self, pos: int, ndim: int):
        self.pos = pos
        self.ndim = ndim


class Load(Node):
    """An element load ``array[idx0, idx1, ...]``."""

    __slots__ = ("array", "indices")

    def __init__(self, array: ArrayArg, indices: Sequence[Node]):
        if len(indices) != array.ndim:
            raise ValueError(
                f"array arg {array.pos} has ndim={array.ndim} but "
                f"{len(indices)} indices were supplied"
            )
        self.array = array
        self.indices = tuple(indices)

    @property
    def children(self) -> tuple[Node, ...]:
        return self.indices


class BinOp(Node):
    """Binary arithmetic ``op(lhs, rhs)`` with ``op`` in :data:`BINARY_OPS`."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Node, rhs: Node):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.lhs, self.rhs)


class UnOp(Node):
    """Unary arithmetic / math intrinsic with ``op`` in :data:`UNARY_OPS`."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Node):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self.operand = operand

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.operand,)


class Compare(Node):
    """Comparison producing a boolean, ``op`` in :data:`COMPARE_OPS`."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Node, rhs: Node):
        if op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.lhs, self.rhs)


class BoolOp(Node):
    """Boolean combinator (non-short-circuit), ``op`` in :data:`BOOL_OPS`."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Node, rhs: Node):
        if op not in BOOL_OPS:
            raise ValueError(f"unknown bool op {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.lhs, self.rhs)


class Not(Node):
    """Boolean negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Node):
        self.operand = operand

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.operand,)


class Select(Node):
    """``cond ? if_true : if_false`` — the vectorizable conditional."""

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Node, if_true: Node, if_false: Node):
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.cond, self.if_true, self.if_false)


class Cast(Node):
    """Numeric cast.  ``kind`` is ``"int"`` (C-style truncation) or
    ``"float"``."""

    __slots__ = ("kind", "operand")

    def __init__(self, kind: str, operand: Node):
        if kind not in ("int", "float"):
            raise ValueError(f"unknown cast kind {kind!r}")
        self.kind = kind
        self.operand = operand

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.operand,)


class Store:
    """An effect: ``array[indices] = value`` guarded by ``condition``.

    ``condition`` is ``None`` for unconditional stores, otherwise a boolean
    expression built from the branch decisions that were live when the
    store executed during tracing.  Stores appear in :class:`Trace` in
    program order; executors must apply them in that order so that a later
    store to the same location wins, exactly as in the scalar kernel.
    """

    __slots__ = ("array", "indices", "value", "condition")

    def __init__(
        self,
        array: ArrayArg,
        indices: Sequence[Node],
        value: Node,
        condition: Optional[Node] = None,
    ):
        if len(indices) != array.ndim:
            raise ValueError(
                f"array arg {array.pos} has ndim={array.ndim} but "
                f"{len(indices)} store indices were supplied"
            )
        self.array = array
        self.indices = tuple(indices)
        self.value = value
        self.condition = condition

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        idx = ", ".join(format_node(n) for n in self.indices)
        guard = (
            f" if {format_node(self.condition)}" if self.condition is not None else ""
        )
        return f"arg{self.array.pos}[{idx}] = {format_node(self.value)}{guard}"


class Trace:
    """The result of tracing a kernel: effects + optional return value.

    Attributes
    ----------
    ndim:
        Rank of the launch domain (1, 2 or 3).
    stores:
        Effects in program order.
    result:
        Return-value expression (reductions), or ``None`` for
        ``parallel_for`` kernels.
    array_args / scalar_args:
        Positions of array / symbolic-scalar arguments in the call.
    const_args:
        Mapping of positions that were *specialized* to concrete values
        (the ``ConcretizationRequired`` fallback); recorded so the cache
        key and diagnostics can show what the trace was specialized on.
    n_paths:
        Number of distinct control-flow paths that were enumerated.
    shape_dependent:
        True when the kernel observed an array's concrete shape (``len``)
        during tracing; such a trace is only valid for arguments of the
        same shapes and is cached under a shape-specific key.
    implicit_return_paths:
        Number of enumerated control-flow paths that fell off the end of
        the kernel without an explicit ``return`` while other paths did
        return a value.  Those paths contribute the implicit ``0.0``
        merged in by the tracer — neutral for ``op="add"`` but wrong for
        ``min``/``max``, which the verifier flags (rule ``V302``).
    """

    __slots__ = (
        "ndim",
        "stores",
        "result",
        "array_args",
        "scalar_args",
        "const_args",
        "n_paths",
        "shape_dependent",
        "implicit_return_paths",
        # Memoized access_positions result.  Left unset until first
        # computed; pickles with the trace, so persistent-cache entries
        # carry the analysis across processes.
        "_access_memo",
    )

    def __init__(
        self,
        ndim: int,
        stores: Sequence[Store],
        result: Optional[Node],
        array_args: Sequence[int],
        scalar_args: Sequence[int],
        const_args: Optional[dict] = None,
        n_paths: int = 1,
        shape_dependent: bool = False,
        implicit_return_paths: int = 0,
    ):
        self.ndim = ndim
        self.stores = tuple(stores)
        self.result = result
        self.array_args = tuple(array_args)
        self.scalar_args = tuple(scalar_args)
        self.const_args = dict(const_args or {})
        self.n_paths = n_paths
        self.shape_dependent = shape_dependent
        self.implicit_return_paths = implicit_return_paths

    @property
    def is_reduction(self) -> bool:
        return self.result is not None

    def expressions(self) -> Iterator[Node]:
        """Iterate over every root expression in the trace (store values,
        indices, guards, and the result)."""
        for st in self.stores:
            yield from st.indices
            yield st.value
            if st.condition is not None:
                yield st.condition
        if self.result is not None:
            yield self.result

    def access_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(written, read)``: the array argument positions the trace
        stores to, and loads from anywhere (store indices, values,
        guards and the result), each in first-seen order.

        A trace never changes once built, so the IR walk runs once per
        trace and the answer is memoized on it; every later launch of
        the kernel only maps positions to its arguments.
        """
        memo = getattr(self, "_access_memo", None)
        if memo is None:
            written = tuple(dict.fromkeys(st.array.pos for st in self.stores))
            read = tuple(
                dict.fromkeys(
                    node.array.pos
                    for expr in self.expressions()
                    for node in walk(expr)
                    if isinstance(node, Load)
                )
            )
            memo = self._access_memo = (written, read)
        return memo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"Trace(ndim={self.ndim}, paths={self.n_paths})"]
        lines += [f"  {st!r}" for st in self.stores]
        if self.result is not None:
            lines.append(f"  return {format_node(self.result)}")
        return "\n".join(lines)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all of its sub-expressions, depth-first.

    Shared sub-expressions are yielded once per *distinct object*, so
    analyses that count work (see :mod:`repro.ir.stats`) do not double
    count CSE-shared values.
    """
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        yield n
        stack.extend(n.children)


_OP_SYMBOL = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "truediv": "/",
    "floordiv": "//",
    "mod": "%",
    "pow": "**",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "eq": "==",
    "ne": "!=",
    "and": "&",
    "or": "|",
    "xor": "^",
}

_INDEX_NAMES = ("i", "j", "k")


def format_node(node: Node) -> str:
    """Render a node as a compact, kernel-like expression string."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Index):
        return _INDEX_NAMES[node.axis]
    if isinstance(node, ScalarArg):
        return f"s{node.pos}"
    if isinstance(node, ArrayArg):
        return f"arg{node.pos}"
    if isinstance(node, Load):
        idx = ", ".join(format_node(n) for n in node.indices)
        return f"arg{node.array.pos}[{idx}]"
    if isinstance(node, BinOp):
        if node.op in ("min", "max"):
            return f"{node.op}({format_node(node.lhs)}, {format_node(node.rhs)})"
        return f"({format_node(node.lhs)} {_OP_SYMBOL[node.op]} {format_node(node.rhs)})"
    if isinstance(node, UnOp):
        if node.op == "neg":
            return f"(-{format_node(node.operand)})"
        return f"{node.op}({format_node(node.operand)})"
    if isinstance(node, Compare):
        return f"({format_node(node.lhs)} {_OP_SYMBOL[node.op]} {format_node(node.rhs)})"
    if isinstance(node, BoolOp):
        return f"({format_node(node.lhs)} {_OP_SYMBOL[node.op]} {format_node(node.rhs)})"
    if isinstance(node, Not):
        return f"~({format_node(node.operand)})"
    if isinstance(node, Select):
        return (
            f"where({format_node(node.cond)}, "
            f"{format_node(node.if_true)}, {format_node(node.if_false)})"
        )
    if isinstance(node, Cast):
        return f"{node.kind}({format_node(node.operand)})"
    return object.__repr__(node)
