"""A direct interpreter for the lowered IR with vector semantics.

Scalar values are Python numbers; vector values are 1-D numpy arrays whose
length equals the expression's lane count.  The interpreter doubles as the
project's instrumentation layer: every load, store, floating-point lane
operation, and tensor intrinsic is recorded in :class:`Counters`, which the
roofline performance model consumes.

Tensor intrinsics (``tile_matmul``, ``wmma_mma_sync``, shuffle
constructors, ...) are dispatched through a registry that the target
simulators populate at import time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from ..ir import expr as E
from ..ir import stmt as S
from ..ir.stmt import ForKind, MemoryType
from ..ir.types import DataType, TypeCode
from ..targets.bfloat16 import round_to_bfloat16
from .buffer import Buffer
from .counters import Counters

IntrinsicHandler = Callable[["Interpreter", E.Call, dict], object]

INTRINSICS: Dict[str, IntrinsicHandler] = {}


def memory_level(buffer: Buffer) -> str:
    """Traffic-accounting level for a buffer.

    External buffers and heap intermediates (compute_root stages) live in
    DRAM; stack intermediates (compute_at tiles) live in L1/local memory.
    """
    return _level(buffer.memory_type, buffer.is_external)


@lru_cache(maxsize=None)  # a handful of keys: memory types x two
def _level(memory_type: MemoryType, is_external: bool) -> str:
    if memory_type in (
        MemoryType.AMX_TILE,
        MemoryType.WMMA_ACCUMULATOR,
        MemoryType.DP4A_ACCUMULATOR,
        MemoryType.REGISTER,
    ):
        return "reg"
    if memory_type is MemoryType.GPU_SHARED:
        return "shared"
    if is_external or memory_type is MemoryType.HEAP:
        return "dram"
    return "l1"


class EvalError(RuntimeError):
    pass


def _np_dtype(dtype: DataType):
    return dtype.to_numpy()


# -- shared vector-semantics cores ---------------------------------------------
#
# Both backends evaluate vector IR with these exact functions: the
# interpreter calls them per node, the compiled backend (runtime/codegen)
# injects them into generated kernels.  Keeping one copy is what makes
# the backends' bit-for-bit parity contract hold by construction.


def ramp_value(base, stride, count: int):
    """``ramp(base, stride, count)`` over scalar or vector base/stride."""
    steps = np.arange(count)
    if isinstance(base, np.ndarray) or isinstance(stride, np.ndarray):
        base = np.atleast_1d(np.asarray(base))
        stride = np.atleast_1d(np.asarray(stride))
        if base.size == 1 and stride.size > 1:
            base = np.full_like(stride, base[0])
        if stride.size == 1 and base.size > 1:
            stride = np.full_like(base, stride[0])
        return (base[None, :] + steps[:, None] * stride[None, :]).ravel()
    return base + steps * stride


def broadcast_value(value, count: int, np_dtype):
    """``xN(value)``: scalars take the IR element dtype, vectors tile."""
    if isinstance(value, np.ndarray):
        return np.tile(value, count)
    return np.full(count, value, dtype=np_dtype)


def as_vector(value, lanes: int) -> np.ndarray:
    """Normalize a scalar-or-array value to a 1-D array of ``lanes``."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = np.full(lanes, arr[()])
    return arr


def reduce_groups(value: np.ndarray, result_lanes: int) -> np.ndarray:
    """Sum fixed-size groups of adjacent lanes down to ``result_lanes``."""
    groups = value.reshape(result_lanes, -1)
    return groups.sum(axis=1, dtype=groups.dtype)


class _Handlers(dict):
    """Node class -> the :class:`Interpreter` method ``prefix + class
    name``, entered the first time the class is seen: a visit costs one
    dict lookup.  An unknown class raises ``cannot <verb> <class>`` and
    is not entered."""

    def __init__(self, prefix: str, verb: str) -> None:
        super().__init__()
        self.prefix, self.verb = prefix, verb

    def __missing__(self, cls: type):
        handler = getattr(Interpreter, self.prefix + cls.__name__, None)
        if handler is None:
            raise EvalError(f"cannot {self.verb} {cls.__name__}")
        self[cls] = handler
        return handler


_EVAL = _Handlers("_eval_", "evaluate")
_EXEC = _Handlers("_exec_", "execute")


def _bounded(idx, buf: Buffer, what: str, name: str) -> np.ndarray:
    """``idx`` as a 1-D int64 array, checked against ``buf`` by its
    lowest and highest entry."""
    idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
    lo, hi = idx.min(), idx.max()
    if lo < 0 or hi >= buf.size:
        raise EvalError(
            f"{what} out of bounds on {name!r}: index range "
            f"[{lo}, {hi}], size {buf.size}"
        )
    return idx


class Interpreter:
    """Evaluates statements against a set of named buffers."""

    def __init__(
        self,
        buffers: Dict[str, Buffer],
        counters: Optional[Counters] = None,
    ) -> None:
        self.buffers = dict(buffers)
        self.counters = counters if counters is not None else Counters()
        #: scratch state shared with accelerator simulators
        self.target_state: Dict[str, object] = {}

    # -- public entry points -------------------------------------------------

    def run(self, stmt: S.Stmt, env: Optional[dict] = None) -> None:
        self.exec_stmt(stmt, env or {})

    # -- expression evaluation -------------------------------------------------

    def eval_expr(self, e: E.Expr, env: dict):
        return _EVAL[type(e)](self, e, env)

    def eval_vector(self, e: E.Expr, env: dict) -> np.ndarray:
        """Evaluate and normalize to a 1-D numpy array of ``e.lanes``."""
        return as_vector(_EVAL[type(e)](self, e, env), e.type.lanes)

    def eval_int(self, e: E.Expr, env: dict) -> int:
        if type(e) is E.IntImm:
            return int(e.value)
        value = _EVAL[type(e)](self, e, env)
        if isinstance(value, np.ndarray):
            if value.size != 1:
                raise EvalError(f"expected scalar, got vector of {value.size}")
            value = value[0]
        return int(value)

    # -- leaves ---------------------------------------------------------------

    def _eval_IntImm(self, e: E.IntImm, env):
        return e.value

    def _eval_FloatImm(self, e: E.FloatImm, env):
        return e.value

    def _eval_StringImm(self, e: E.StringImm, env):
        return e.value

    def _eval_Variable(self, e: E.Variable, env):
        if e.name not in env:
            raise EvalError(f"unbound variable {e.name!r}")
        return env[e.name]

    # -- arithmetic -------------------------------------------------------------

    def _count_float_op(self, e: E.Expr) -> None:
        if e.type.is_float():
            self.counters.scalar_flops += e.type.lanes
        else:
            self.counters.int_ops += e.type.lanes

    def _binary_operands(self, e, env):
        a, b = e.a, e.b
        return _EVAL[type(a)](self, a, env), _EVAL[type(b)](self, b, env)

    def _eval_Add(self, e, env):
        a, b = self._binary_operands(e, env)
        self._count_float_op(e)
        return a + b

    def _eval_Sub(self, e, env):
        a, b = self._binary_operands(e, env)
        self._count_float_op(e)
        return a - b

    def _eval_Mul(self, e, env):
        a, b = self._binary_operands(e, env)
        self._count_float_op(e)
        return a * b

    def _eval_Div(self, e, env):
        a, b = self._binary_operands(e, env)
        self._count_float_op(e)
        if e.type.is_float():
            return a / b
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.asarray(a) // np.asarray(b)
        return a // b  # Halide rounds toward negative infinity

    def _eval_Mod(self, e, env):
        a, b = self._binary_operands(e, env)
        self._count_float_op(e)
        if e.type.is_float():
            return np.fmod(a, b)
        return a % b  # numpy/python % matches Halide's Euclidean mod

    def _eval_Min(self, e, env):
        a, b = self._binary_operands(e, env)
        self._count_float_op(e)
        return np.minimum(a, b)

    def _eval_Max(self, e, env):
        a, b = self._binary_operands(e, env)
        self._count_float_op(e)
        return np.maximum(a, b)

    def _eval_EQ(self, e, env):
        a, b = self._binary_operands(e, env)
        return a == b

    def _eval_NE(self, e, env):
        a, b = self._binary_operands(e, env)
        return a != b

    def _eval_LT(self, e, env):
        a, b = self._binary_operands(e, env)
        return a < b

    def _eval_LE(self, e, env):
        a, b = self._binary_operands(e, env)
        return a <= b

    def _eval_GT(self, e, env):
        a, b = self._binary_operands(e, env)
        return a > b

    def _eval_GE(self, e, env):
        a, b = self._binary_operands(e, env)
        return a >= b

    def _eval_And(self, e, env):
        a, b = self._binary_operands(e, env)
        return np.logical_and(a, b)

    def _eval_Or(self, e, env):
        a, b = self._binary_operands(e, env)
        return np.logical_or(a, b)

    def _eval_Not(self, e, env):
        return np.logical_not(self.eval_expr(e.value, env))

    def _eval_Select(self, e, env):
        cond = self.eval_expr(e.condition, env)
        t = self.eval_expr(e.true_value, env)
        f = self.eval_expr(e.false_value, env)
        return np.where(cond, t, f)

    # -- casts -----------------------------------------------------------------

    def _eval_Cast(self, e: E.Cast, env):
        value = self.eval_expr(e.value, env)
        target = e.dtype
        if target.code is TypeCode.BFLOAT:
            return round_to_bfloat16(np.asarray(value, dtype=np.float32))
        np_dtype = _np_dtype(target)
        if isinstance(value, np.ndarray):
            if target.is_int() or target.is_uint():
                # C-style truncation toward zero for float -> int casts
                return np.trunc(value).astype(np_dtype) if value.dtype.kind == "f" else value.astype(np_dtype)
            return value.astype(np_dtype)
        if target.is_float():
            return np_dtype.type(value)
        return int(value)

    # -- vectors ---------------------------------------------------------------

    def _eval_Ramp(self, e: E.Ramp, env):
        base = self.eval_expr(e.base, env)
        stride = self.eval_expr(e.stride, env)
        return ramp_value(base, stride, e.count)

    def _eval_Broadcast(self, e: E.Broadcast, env):
        value = self.eval_expr(e.value, env)
        return broadcast_value(value, e.count, _np_dtype(e.type.element_of()))

    def _eval_VectorReduce(self, e: E.VectorReduce, env):
        value = self.eval_vector(e.value, env)
        if e.type.is_float():
            self.counters.scalar_flops += value.size - e.result_lanes
        return reduce_groups(value, e.result_lanes)

    def _eval_Shuffle(self, e: E.Shuffle, env):
        parts = [self.eval_vector(v, env) for v in e.vectors]
        concat = np.concatenate(parts) if len(parts) > 1 else parts[0]
        return concat[list(e.indices)]

    # -- memory ------------------------------------------------------------------

    def buffer(self, name: str) -> Buffer:
        if name not in self.buffers:
            raise EvalError(f"unknown buffer {name!r}")
        return self.buffers[name]

    def _eval_Load(self, e: E.Load, env):
        buf = self.buffer(e.name)
        idx_arr = _bounded(self.eval_expr(e.index, env), buf, "load", e.name)
        values = buf.gather(idx_arr)
        self.counters.add_load(
            memory_level(buf), idx_arr.size * buf.dtype.bytes_per_lane()
        )
        if e.type.lanes == 1:
            return values[0]
        return values

    # -- other -----------------------------------------------------------------

    def _eval_Let(self, e: E.Let, env):
        value = self.eval_expr(e.value, env)
        inner = dict(env)
        inner[e.name] = value
        return self.eval_expr(e.body, inner)

    def _eval_Call(self, e: E.Call, env):
        handler = INTRINSICS.get(e.name)
        if handler is None:
            raise EvalError(f"no intrinsic handler for {e.name!r}")
        self.counters.intrinsic_calls[e.name] += 1
        return handler(self, e, env)

    # -- statements ---------------------------------------------------------------

    def exec_stmt(self, stmt: S.Stmt, env: dict) -> None:
        _EXEC[type(stmt)](self, stmt, env)

    def _exec_Store(self, stmt: S.Store, env) -> None:
        buf = self.buffer(stmt.name)
        idx = self.eval_expr(stmt.index, env)
        value = self.eval_expr(stmt.value, env)
        idx_arr = _bounded(idx, buf, "store", stmt.name)
        value_arr = np.atleast_1d(np.asarray(value))
        if value_arr.size == 1 and idx_arr.size > 1:
            value_arr = np.full(idx_arr.size, value_arr[0])
        buf.scatter(idx_arr, value_arr.astype(buf.data.dtype, copy=False))
        self.counters.add_store(
            memory_level(buf), idx_arr.size * buf.dtype.bytes_per_lane()
        )
        self.counters.stores_executed += 1

    def _exec_For(self, stmt: S.For, env) -> None:
        start = self.eval_int(stmt.min_expr, env)
        extent = self.eval_int(stmt.extent, env)
        self.counters.loop_iterations[stmt.kind.value] += max(extent, 0)
        if stmt.kind is ForKind.GPU_LANE:
            # WMMA statements are warp-collective: the body computes the
            # whole tile, so the lane loop executes once in simulation.
            inner = dict(env)
            inner[stmt.name] = start
            self.exec_stmt(stmt.body, inner)
            return
        inner = dict(env)
        for i in range(start, start + extent):
            inner[stmt.name] = i
            self.exec_stmt(stmt.body, inner)

    def _exec_Block(self, stmt: S.Block, env) -> None:
        for part in stmt.stmts:
            self.exec_stmt(part, env)

    def _exec_Allocate(self, stmt: S.Allocate, env) -> None:
        extents = tuple(self.eval_int(e, env) for e in stmt.extents)
        saved = self.buffers.get(stmt.name)
        self.buffers[stmt.name] = Buffer(
            stmt.name,
            stmt.dtype.element_of(),
            extents,
            memory_type=stmt.memory_type,
            is_external=False,
        )
        try:
            self.exec_stmt(stmt.body, env)
        finally:
            freed = self.buffers[stmt.name]
            level = memory_level(freed)
            self.counters.add_load(
                f"{level}_unique", freed.load_footprint_bytes()
            )
            self.counters.add_store(
                f"{level}_unique", freed.store_footprint_bytes()
            )
            if saved is None:
                del self.buffers[stmt.name]
            else:
                self.buffers[stmt.name] = saved

    def _exec_LetStmt(self, stmt: S.LetStmt, env) -> None:
        inner = dict(env)
        inner[stmt.name] = self.eval_expr(stmt.value, env)
        self.exec_stmt(stmt.body, inner)

    def _exec_IfThenElse(self, stmt: S.IfThenElse, env) -> None:
        cond = self.eval_expr(stmt.condition, env)
        if isinstance(cond, np.ndarray):
            cond = bool(cond.all())
        if cond:
            self.exec_stmt(stmt.then_case, env)
        elif stmt.else_case is not None:
            self.exec_stmt(stmt.else_case, env)

    def _exec_Evaluate(self, stmt: S.Evaluate, env) -> None:
        self.eval_expr(stmt.value, env)

    def _exec_ProducerConsumer(self, stmt: S.ProducerConsumer, env) -> None:
        self.exec_stmt(stmt.body, env)


# -- built-in math intrinsics -------------------------------------------------


def _unary_math(np_fn, flops_per_lane: int = 1):
    def handler(interp: Interpreter, call: E.Call, env):
        value = interp.eval_expr(call.args[0], env)
        interp.counters.scalar_flops += call.type.lanes * flops_per_lane
        return np_fn(value)

    return handler


INTRINSICS["exp"] = _unary_math(np.exp, flops_per_lane=4)
INTRINSICS["log"] = _unary_math(np.log, flops_per_lane=4)
INTRINSICS["sqrt"] = _unary_math(np.sqrt, flops_per_lane=2)
INTRINSICS["abs"] = _unary_math(np.abs)
INTRINSICS["floor"] = _unary_math(np.floor)
INTRINSICS["sin"] = _unary_math(np.sin, flops_per_lane=4)
INTRINSICS["cos"] = _unary_math(np.cos, flops_per_lane=4)
