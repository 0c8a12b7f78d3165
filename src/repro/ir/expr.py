"""Expression nodes of the Halide-like IR.

The vector trio that HARDBOILED builds on lives here:

* :class:`Ramp` — ``ramp(base, stride, n)`` concatenates the vectors
  ``base, base + stride, ..., base + (n-1)*stride``.  When ``base`` and
  ``stride`` are themselves vectors this encodes a *nested* (2-D) pattern.
* :class:`Broadcast` — ``xN(v)`` concatenates N copies of ``v`` (a ramp
  with stride zero).
* :class:`VectorReduce` — sums fixed-size groups of adjacent lanes,
  producing a smaller vector; appears when a reduction dimension is
  vectorized under ``atomic()``.

All nodes are immutable; structural equality and hashing come from the
dataclass machinery so expressions can be used as dict keys (the e-graph
hashconses separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple, Union

from .types import BOOL, DataType, Float, Int, promote

ScalarValue = Union[int, float, bool]


class fact:
    """A derived value of an immutable node, computed on first read.

    A non-data descriptor: the value is parked in the instance
    ``__dict__`` under the descriptor's own name, so every later read is
    a plain attribute hit.  Facts are not dataclass fields, so ``==``,
    ``hash``, ``repr`` and ``dataclasses.replace`` never see them, and
    :meth:`Node.__getstate__` keeps them out of pickles and copies.
    """

    #: every name a fact is stored under, on any node class
    names: set = set()

    def __init__(self, compute) -> None:
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        fact.names.add(name)

    def __get__(self, node, owner=None):
        if node is None:
            return self
        value = node.__dict__[self.name] = self.compute(node)
        return value


class Node:
    """What :class:`Expr` and ``Stmt`` share: children and cached facts."""

    #: names of the fields holding child nodes (or tuples of them), in
    #: field order; every concrete class declares it, so generic
    #: traversals never ask ``dataclasses`` per visit
    _child_fields: Tuple[str, ...]

    def children(self) -> List["Node"]:
        """Child nodes in field order (tuples flattened, ``None`` skipped)."""
        out: list = []
        for name in self._child_fields:
            value = getattr(self, name)
            if isinstance(value, tuple):
                out.extend(value)
            elif value is not None:
                out.append(value)
        return out

    @fact
    def free_vars(self) -> FrozenSet[str]:
        """Names of the variables this node uses but does not bind."""
        return self._children_union("free_vars")

    def _children_union(self, name: str) -> FrozenSet[str]:
        """The union of the children's set-valued fact ``name``."""
        out: FrozenSet[str] = frozenset()
        for child in self.children():
            part = getattr(child, name)
            if not part <= out:  # share the child's set where it covers all
                out = out | part if out else part
        return out

    def _free_vars_binding(self, name: str, body: "Node", *outer: "Node"):
        """Free variables of a node that binds ``name`` within ``body``."""
        return (body.free_vars - {name}).union(*[o.free_vars for o in outer])

    @fact
    def size(self) -> int:
        """Number of IR nodes in this subtree (the paper's AST-size cost)."""
        return 1 + sum(child.size for child in self.children())

    def __getstate__(self):
        state = self.__dict__
        if fact.names.isdisjoint(state):
            return state
        return {k: v for k, v in state.items() if k not in fact.names}


@dataclass(frozen=True)
class Expr(Node):
    """Base class for all IR expressions."""

    @fact
    def buffers(self) -> FrozenSet[str]:
        """Names of the buffers this expression names: those it loads,
        and the buffer arguments of its intrinsic calls."""
        return self._children_union("buffers")

    @property
    def type(self) -> DataType:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def lanes(self) -> int:
        return self.type.lanes

    # -- operator sugar (delegates to builders for folding/promotion) ------

    def _bin(self, op: str, other: object, reverse: bool = False):
        from . import builders

        other_expr = builders.wrap(other, self.type.element_of())
        a, b = (other_expr, self) if reverse else (self, other_expr)
        return builders.BINARY_BUILDERS[op](a, b)

    def __add__(self, other):
        return self._bin("add", other)

    def __radd__(self, other):
        return self._bin("add", other, reverse=True)

    def __sub__(self, other):
        return self._bin("sub", other)

    def __rsub__(self, other):
        return self._bin("sub", other, reverse=True)

    def __mul__(self, other):
        return self._bin("mul", other)

    def __rmul__(self, other):
        return self._bin("mul", other, reverse=True)

    def __truediv__(self, other):
        return self._bin("div", other)

    def __rtruediv__(self, other):
        return self._bin("div", other, reverse=True)

    def __floordiv__(self, other):
        return self._bin("div", other)

    def __rfloordiv__(self, other):
        return self._bin("div", other, reverse=True)

    def __mod__(self, other):
        return self._bin("mod", other)

    def __rmod__(self, other):
        return self._bin("mod", other, reverse=True)

    def __neg__(self):
        from . import builders

        return builders.make_sub(builders.const(0, self.type), self)

    def __lt__(self, other):
        return self._bin("lt", other)

    def __le__(self, other):
        return self._bin("le", other)

    def __gt__(self, other):
        return self._bin("gt", other)

    def __ge__(self, other):
        return self._bin("ge", other)

    def eq(self, other):
        """Pointwise equality (``==`` is reserved for structural equality)."""
        return self._bin("eq", other)

    def ne(self, other):
        return self._bin("ne", other)


@dataclass(frozen=True)
class IntImm(Expr):
    """An integer immediate of a given (possibly unsigned) type."""

    value: int
    dtype: DataType = field(default=Int(32))
    _child_fields = ()

    @property
    def type(self) -> DataType:
        return self.dtype


@dataclass(frozen=True)
class FloatImm(Expr):
    """A floating-point immediate (covers float16/32/64 and bfloat16)."""

    value: float
    dtype: DataType = field(default=Float(32))
    _child_fields = ()

    @property
    def type(self) -> DataType:
        return self.dtype


@dataclass(frozen=True)
class StringImm(Expr):
    """A string immediate (used for intrinsic name arguments)."""

    value: str
    _child_fields = ()

    @property
    def type(self) -> DataType:
        from .types import Handle

        return Handle()

    @fact
    def buffers(self) -> FrozenSet[str]:
        return frozenset((self.value,))


@dataclass(frozen=True)
class Variable(Expr):
    """A scalar (or vector) variable reference by name."""

    name: str
    dtype: DataType = field(default=Int(32))
    _child_fields = ()

    @property
    def type(self) -> DataType:
        return self.dtype

    @fact
    def free_vars(self) -> FrozenSet[str]:
        return frozenset((self.name,))


@dataclass(frozen=True)
class Cast(Expr):
    """Value conversion to a target type (lane count must match)."""

    dtype: DataType
    value: Expr
    _child_fields = ("value",)

    def __post_init__(self) -> None:
        if self.dtype.lanes != self.value.type.lanes:
            raise ValueError(
                f"cast lane mismatch: {self.dtype} vs {self.value.type}"
            )

    @property
    def type(self) -> DataType:
        return self.dtype


class _Binary(Expr):
    """Shared shape for binary arithmetic nodes."""

    a: Expr
    b: Expr
    _child_fields = ("a", "b")

    @fact
    def type(self) -> DataType:
        return promote(self.a.type, self.b.type)


def _binary_node(name: str):
    cls = dataclass(frozen=True)(
        type(name, (_Binary,), {"__annotations__": {"a": Expr, "b": Expr}})
    )
    return cls


Add = _binary_node("Add")
Sub = _binary_node("Sub")
Mul = _binary_node("Mul")
Div = _binary_node("Div")
Mod = _binary_node("Mod")
Min = _binary_node("Min")
Max = _binary_node("Max")


class _Compare(Expr):
    a: Expr
    b: Expr
    _child_fields = ("a", "b")

    @fact
    def type(self) -> DataType:
        return BOOL.with_lanes(promote(self.a.type, self.b.type).lanes)


def _compare_node(name: str):
    cls = dataclass(frozen=True)(
        type(name, (_Compare,), {"__annotations__": {"a": Expr, "b": Expr}})
    )
    return cls


EQ = _compare_node("EQ")
NE = _compare_node("NE")
LT = _compare_node("LT")
LE = _compare_node("LE")
GT = _compare_node("GT")
GE = _compare_node("GE")
And = _compare_node("And")
Or = _compare_node("Or")


@dataclass(frozen=True)
class Not(Expr):
    value: Expr
    _child_fields = ("value",)

    @fact
    def type(self) -> DataType:
        return BOOL.with_lanes(self.value.type.lanes)


@dataclass(frozen=True)
class Select(Expr):
    """Pointwise ternary: ``condition ? true_value : false_value``."""

    condition: Expr
    true_value: Expr
    false_value: Expr
    _child_fields = ("condition", "true_value", "false_value")

    @fact
    def type(self) -> DataType:
        return promote(self.true_value.type, self.false_value.type)


@dataclass(frozen=True)
class Load(Expr):
    """A (vector) load: ``name[index]`` with ``index.lanes`` result lanes."""

    dtype: DataType
    name: str
    index: Expr
    _child_fields = ("index",)

    def __post_init__(self) -> None:
        if self.dtype.lanes != self.index.type.lanes:
            raise ValueError(
                f"load lane mismatch: type {self.dtype} vs index "
                f"{self.index.type}"
            )

    @property
    def type(self) -> DataType:
        return self.dtype

    @fact
    def buffers(self) -> FrozenSet[str]:
        return self.index.buffers | {self.name}


@dataclass(frozen=True)
class Ramp(Expr):
    """``ramp(base, stride, count)``: concat of base + i*stride, i < count."""

    base: Expr
    stride: Expr
    count: int
    _child_fields = ("base", "stride")

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"ramp count must be >= 1, got {self.count}")
        if self.base.type.lanes != self.stride.type.lanes:
            raise ValueError(
                f"ramp base/stride lane mismatch: {self.base.type} vs "
                f"{self.stride.type}"
            )

    @fact
    def type(self) -> DataType:
        return promote(self.base.type, self.stride.type).widen_lanes(self.count)


@dataclass(frozen=True)
class Broadcast(Expr):
    """``xN(value)``: N concatenated copies of ``value``."""

    value: Expr
    count: int
    _child_fields = ("value",)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"broadcast count must be >= 1, got {self.count}")

    @fact
    def type(self) -> DataType:
        return self.value.type.widen_lanes(self.count)


@dataclass(frozen=True)
class VectorReduce(Expr):
    """Sums adjacent groups of lanes down to ``result_lanes`` lanes.

    ``value.lanes`` must be divisible by ``result_lanes``; each output lane
    ``i`` is the sum of input lanes ``[i*g, (i+1)*g)`` with
    ``g = value.lanes // result_lanes``.  Only the ``add`` reducer is
    needed for this paper.
    """

    op: str
    value: Expr
    result_lanes: int
    _child_fields = ("value",)

    def __post_init__(self) -> None:
        if self.value.type.lanes % self.result_lanes != 0:
            raise ValueError(
                f"vector_reduce: {self.value.type.lanes} lanes not divisible"
                f" by {self.result_lanes}"
            )
        if self.op != "add":
            raise ValueError(f"unsupported reduce op {self.op!r}")

    @fact
    def type(self) -> DataType:
        return self.value.type.with_lanes(self.result_lanes)


class CallType:
    """How a Call node should be resolved."""

    INTRINSIC = "intrinsic"
    HALIDE = "halide"  # frontend reference to another Func
    IMAGE = "image"  # frontend reference to an input image
    EXTERN = "extern"


@dataclass(frozen=True)
class Call(Expr):
    """An intrinsic or function call."""

    dtype: DataType
    name: str
    args: Tuple[Expr, ...]
    call_type: str = CallType.INTRINSIC
    _child_fields = ("args",)

    @property
    def type(self) -> DataType:
        return self.dtype


@dataclass(frozen=True)
class Let(Expr):
    """``let name = value in body``."""

    name: str
    value: Expr
    body: Expr
    _child_fields = ("value", "body")

    @fact
    def type(self) -> DataType:
        return self.body.type

    @fact
    def free_vars(self) -> FrozenSet[str]:
        return self._free_vars_binding(self.name, self.body, self.value)


@dataclass(frozen=True)
class Shuffle(Expr):
    """Select lanes from a concatenation of input vectors.

    ``indices[i]`` picks lane ``indices[i]`` of ``concat(vectors)``.  This
    is the Halide node that HARDBOILED's shuffle intrinsics
    (``KWayInterleave``, ``ConvolutionShuffle``) desugar into.
    """

    vectors: Tuple[Expr, ...]
    indices: Tuple[int, ...]
    _child_fields = ("vectors",)

    def __post_init__(self) -> None:
        total = sum(v.type.lanes for v in self.vectors)
        for i in self.indices:
            if not 0 <= i < total:
                raise ValueError(f"shuffle index {i} out of range 0..{total-1}")

    @fact
    def type(self) -> DataType:
        return self.vectors[0].type.with_lanes(len(self.indices))
