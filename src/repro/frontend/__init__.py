"""The user-schedulable frontend: algorithms + schedules, Halide style."""

from ..ir import (
    BFloat,
    Bool,
    DataType,
    Expr,
    Float,
    Int,
    MemoryType,
    UInt,
)
from ..ir import builders as _builders
from .func import Func, FuncRef, ImageParam, ScheduleError, Stage
from .var import RDom, RVar, Var, to_expr


def cast(dtype: DataType, value) -> Expr:
    """Explicit type conversion (``cast<float>(x)``)."""
    return _builders.cast(dtype, to_expr(value))


def select(condition, true_value, false_value) -> Expr:
    return _builders.make_select(
        to_expr(condition), to_expr(true_value), to_expr(false_value)
    )


def minimum(a, b) -> Expr:
    return _builders.make_min(to_expr(a), to_expr(b))


def maximum(a, b) -> Expr:
    return _builders.make_max(to_expr(a), to_expr(b))


def _unary_intrinsic(name: str):
    from ..ir import Call, CallType

    def fn(value) -> Expr:
        e = to_expr(value)
        dtype = e.type if e.type.is_float() else Float(32, e.type.lanes)
        return Call(dtype, name, (cast(dtype, e),), CallType.INTRINSIC)

    fn.__name__ = name
    fn.__doc__ = f"Pointwise {name}(x)."
    return fn


exp = _unary_intrinsic("exp")
log = _unary_intrinsic("log")
sqrt = _unary_intrinsic("sqrt")
abs_ = _unary_intrinsic("abs")
sin = _unary_intrinsic("sin")
cos = _unary_intrinsic("cos")
floor = _unary_intrinsic("floor")


def f32(value) -> Expr:
    """Shorthand for ``cast(Float(32), value)``."""
    return cast(Float(32), value)


def f16(value) -> Expr:
    return cast(Float(16), value)


def bf16(value) -> Expr:
    return cast(BFloat(16), value)


def i32(value) -> Expr:
    """Shorthand for ``cast(Int(32), value)`` (quantized accumulation)."""
    return cast(Int(32), value)


__all__ = [
    "BFloat",
    "Bool",
    "DataType",
    "Expr",
    "Float",
    "Func",
    "FuncRef",
    "ImageParam",
    "Int",
    "MemoryType",
    "RDom",
    "RVar",
    "ScheduleError",
    "Stage",
    "UInt",
    "Var",
    "abs_",
    "bf16",
    "cast",
    "cos",
    "exp",
    "f16",
    "f32",
    "floor",
    "i32",
    "log",
    "maximum",
    "minimum",
    "select",
    "sin",
    "sqrt",
    "to_expr",
]
