"""Smart constructors for IR expressions.

These perform type promotion (inserting casts/broadcasts) and fold
constants at construction time, the way Halide's ``IROperator`` helpers
do.  Heavier restructuring (the pattern-obscuring rewrites) lives in
:mod:`repro.lowering.simplify`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Union

from .expr import (
    EQ,
    GE,
    GT,
    LE,
    LT,
    NE,
    Add,
    Broadcast,
    Call,
    CallType,
    Cast,
    Div,
    Expr,
    FloatImm,
    IntImm,
    Max,
    Min,
    Mod,
    Mul,
    Ramp,
    Select,
    Sub,
    VectorReduce,
)
from .types import BOOL, DataType, Float, Int, promote


def const(value: Union[int, float, bool], dtype: DataType) -> Expr:
    """An immediate of the given type (broadcast if ``dtype`` is vector)."""
    scalar_t = dtype.element_of()
    if scalar_t.is_float():
        imm: Expr = FloatImm(float(value), scalar_t)
    else:
        imm = IntImm(int(value), scalar_t)
    if dtype.lanes > 1:
        return Broadcast(imm, dtype.lanes)
    return imm


def wrap(value: object, hint: DataType) -> Expr:
    """Coerce a Python scalar into an immediate; pass Exprs through.

    Frontend objects exposing ``to_expr`` (Var, RDom, FuncRef) coerce too,
    so mixed ``Expr <op> Var`` arithmetic works in either order.
    """
    if isinstance(value, Expr):
        return value
    if hasattr(value, "to_expr"):
        return value.to_expr()
    if isinstance(value, bool):
        return IntImm(int(value), BOOL)
    if isinstance(value, int):
        if hint.is_float():
            return IntImm(value, Int(32))
        return IntImm(value, hint.element_of())
    if isinstance(value, float):
        if hint.is_float():
            return FloatImm(value, hint.element_of())
        return FloatImm(value, Float(32))
    raise TypeError(f"cannot convert {value!r} to an IR expression")


def is_const(e: Expr) -> bool:
    return isinstance(e, (IntImm, FloatImm)) or (
        isinstance(e, Broadcast) and is_const(e.value)
    )


def const_value(e: Expr):
    """The Python value of a constant expression (scalar or broadcast)."""
    if isinstance(e, (IntImm, FloatImm)):
        return e.value
    if isinstance(e, Broadcast):
        return const_value(e.value)
    raise ValueError(f"not a constant: {e}")


def as_int(e: Expr) -> int:
    v = const_value(e)
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"constant {v} is not integral")
    return int(v)


def match_lanes(a: Expr, b: Expr):
    """Broadcast the scalar side so both expressions have equal lanes."""
    if a.type.lanes == b.type.lanes:
        return a, b
    if a.type.lanes == 1:
        return Broadcast(a, b.type.lanes), b
    if b.type.lanes == 1:
        return a, Broadcast(b, a.type.lanes)
    raise ValueError(f"lane mismatch: {a.type} vs {b.type}")


def match_types(a: Expr, b: Expr):
    """Promote both operands to a common type (cast + broadcast)."""
    a, b = match_lanes(a, b)
    target = promote(a.type, b.type)
    a = cast(target, a)
    b = cast(target, b)
    return a, b


def cast(dtype: DataType, value: Expr) -> Expr:
    """Cast with lane auto-broadcast and constant folding."""
    if value.type.lanes == 1 and dtype.lanes > 1:
        return Broadcast(cast(dtype.element_of(), value), dtype.lanes)
    if value.type == dtype:
        return value
    if isinstance(value, IntImm) and dtype.is_scalar():
        if dtype.is_float():
            return FloatImm(float(value.value), dtype)
        return IntImm(int(value.value), dtype)
    if isinstance(value, FloatImm) and dtype.is_scalar():
        if dtype.is_float():
            return FloatImm(value.value, dtype)
        return IntImm(int(value.value), dtype)
    return Cast(dtype, value)


_PY_OPS: Dict[str, Callable] = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "min": min,
    "max": max,
}


def _fold_or_build(node_cls, op: str, a: Expr, b: Expr) -> Expr:
    a, b = match_types(a, b)
    if is_const(a) and is_const(b) and op in _PY_OPS:
        result = _PY_OPS[op](const_value(a), const_value(b))
        return const(result, a.type)
    return node_cls(a, b)


def make_add(a: Expr, b: Expr) -> Expr:
    a, b = match_types(a, b)
    if is_const(b) and const_value(b) == 0:
        return a
    if is_const(a) and const_value(a) == 0:
        return b
    return _fold_or_build(Add, "add", a, b)


def make_sub(a: Expr, b: Expr) -> Expr:
    a, b = match_types(a, b)
    if is_const(b) and const_value(b) == 0:
        return a
    return _fold_or_build(Sub, "sub", a, b)


def make_mul(a: Expr, b: Expr) -> Expr:
    a, b = match_types(a, b)
    for x, y in ((a, b), (b, a)):
        if is_const(y):
            v = const_value(y)
            if v == 1:
                return x
            if v == 0:
                return const(0, x.type)
    return _fold_or_build(Mul, "mul", a, b)


def make_div(a: Expr, b: Expr) -> Expr:
    a, b = match_types(a, b)
    if is_const(b) and const_value(b) == 1:
        return a
    if is_const(a) and is_const(b) and const_value(b) != 0:
        va, vb = const_value(a), const_value(b)
        if a.type.is_float():
            return const(va / vb, a.type)
        # Halide integer division rounds towards negative infinity
        return const(va // vb, a.type)
    return Div(a, b)


def make_mod(a: Expr, b: Expr) -> Expr:
    a, b = match_types(a, b)
    if is_const(a) and is_const(b) and const_value(b) != 0:
        va, vb = const_value(a), const_value(b)
        if a.type.is_float():
            return const(math.fmod(va, vb), a.type)
        return const(va % vb, a.type)  # Euclidean, like Halide
    return Mod(a, b)


def make_min(a: Expr, b: Expr) -> Expr:
    if a == b:
        return a
    return _fold_or_build(Min, "min", a, b)


def make_max(a: Expr, b: Expr) -> Expr:
    if a == b:
        return a
    return _fold_or_build(Max, "max", a, b)


_CMP_PY = {
    "eq": lambda x, y: x == y,
    "ne": lambda x, y: x != y,
    "lt": lambda x, y: x < y,
    "le": lambda x, y: x <= y,
    "gt": lambda x, y: x > y,
    "ge": lambda x, y: x >= y,
}
_CMP_NODE = {"eq": EQ, "ne": NE, "lt": LT, "le": LE, "gt": GT, "ge": GE}


def _make_cmp(op: str, a: Expr, b: Expr) -> Expr:
    a, b = match_types(a, b)
    if is_const(a) and is_const(b):
        result = _CMP_PY[op](const_value(a), const_value(b))
        return const(result, BOOL.with_lanes(a.type.lanes))
    return _CMP_NODE[op](a, b)


BINARY_BUILDERS: Dict[str, Callable[[Expr, Expr], Expr]] = {
    "add": make_add,
    "sub": make_sub,
    "mul": make_mul,
    "div": make_div,
    "mod": make_mod,
    "min": make_min,
    "max": make_max,
    **{op: (lambda op: (lambda a, b: _make_cmp(op, a, b)))(op) for op in _CMP_PY},
}


def make_select(cond: Expr, t: Expr, f: Expr) -> Expr:
    t, f = match_types(t, f)
    if is_const(cond):
        return t if const_value(cond) else f
    return Select(cond, t, f)


def make_ramp(base: Expr, stride: Expr, count: int) -> Expr:
    if count == 1:
        return base
    base, stride = match_types(base, stride)
    return Ramp(base, stride, count)


def make_broadcast(value: Expr, count: int) -> Expr:
    if count == 1:
        return value
    return Broadcast(value, count)


def vector_reduce_add(value: Expr, result_lanes: int) -> Expr:
    if value.type.lanes == result_lanes:
        return value
    return VectorReduce("add", value, result_lanes)


def intrinsic(dtype: DataType, name: str, *args: Expr) -> Call:
    return Call(dtype, name, tuple(args), CallType.INTRINSIC)
