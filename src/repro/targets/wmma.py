"""Functional simulator for Nvidia Tensor Core WMMA operations.

Models warp-level matrix-multiply-accumulate as HARDBOILED emits it:
``wmma.mma.sync`` consumes fp16 A/B fragments and an fp32 accumulator
fragment and produces ``C + A @ B``.  Supported fragment geometries are
the hardware's fp16 shapes: m16n16k16, m32n8k16, and m8n32k16.

In simulation a *fragment* is the whole collective tile (a flattened
row-major numpy array); the per-thread distribution across the 32 lanes
of a warp is an implementation detail the instruction selector never
observes.  The tile extractor still wraps WMMA statements in a warp-level
``gpu_lane`` loop (paper §III-D.1), which the interpreter executes once
per warp for exactly this reason.

Intrinsic signatures:

* ``wmma.fill.sync(m, n, value)``
* ``wmma.load.a.sync(buffer, base, row_stride, m, k)`` — row-major
* ``wmma.load.b.sync(buffer, base, row_stride, k, n)`` — row-major
* ``wmma.mma.sync(C, A, B, m, n, k)``
* ``wmma.store.d.sync(buffer, base, row_stride, m, n, tile)``
"""

from __future__ import annotations

import numpy as np

from ..ir import expr as E
from ..runtime.interpreter import (
    Interpreter,
    memory_level,
    register_intrinsic,
    tile_index,
)

#: fp16 WMMA fragment shapes (m, n, k)
SUPPORTED_SHAPES = {(16, 16, 16), (32, 8, 16), (8, 32, 16)}

WARP_SIZE = 32


class WMMAError(RuntimeError):
    pass


def check_shape(m: int, n: int, k: int) -> None:
    if (m, n, k) not in SUPPORTED_SHAPES:
        raise WMMAError(
            f"unsupported WMMA shape m{m}n{n}k{k}; fp16 WMMA supports "
            + ", ".join(f"m{a}n{b}k{c}" for a, b, c in sorted(SUPPORTED_SHAPES))
        )


def _fp16_operand(x: np.ndarray) -> np.ndarray:
    """A fragment operand's values: fp16-representable, held as float32.

    A float16 array is widened, which is exact.  Anything else goes
    through float32 — what every intrinsic handler passes — and is
    rounded to float16 first; on fp16-representable values that
    rounding is the identity, so both routes agree bit for bit.
    """
    x = np.asarray(x)
    if x.dtype != np.float16:
        x = x.astype(np.float32, copy=False).astype(np.float16)
    return x.astype(np.float32)


def mma_sync(
    c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """C + A @ B with fp16 operands and fp32 accumulation."""
    return np.asarray(c, dtype=np.float32) + (
        _fp16_operand(a) @ _fp16_operand(b)
    )


def _load_tile(interp: Interpreter, call: E.Call, env, rows_i: int, cols_i: int):
    name_expr = call.args[0]
    if not isinstance(name_expr, E.StringImm):
        raise WMMAError("wmma load expects a buffer name as first argument")
    buf = interp.buffer(name_expr.value)
    base = interp.eval_int(call.args[1], env)
    stride = interp.eval_int(call.args[2], env)
    rows = interp.eval_int(call.args[rows_i], env)
    cols = interp.eval_int(call.args[cols_i], env)
    idx = tile_index(base, stride, rows, cols)
    if np.any(idx < 0) or np.any(idx >= buf.size):
        raise WMMAError(
            f"wmma load out of bounds on {buf.name!r}:"
            f" [{idx.min()}, {idx.max()}] vs size {buf.size}"
        )
    values = buf.gather(idx)
    interp.counters.add_load(
        memory_level(buf), idx.size * buf.dtype.bytes_per_lane()
    )
    return values.astype(np.float32, copy=False)


@register_intrinsic("wmma.fill.sync")
def _fill(interp: Interpreter, call: E.Call, env):
    m = interp.eval_int(call.args[0], env)
    n = interp.eval_int(call.args[1], env)
    value = interp.eval_expr(call.args[2], env)
    return np.full(m * n, value, dtype=np.float32)


@register_intrinsic("wmma.load.a.sync")
def _load_a(interp: Interpreter, call: E.Call, env):
    return _load_tile(interp, call, env, 3, 4)


@register_intrinsic("wmma.load.b.sync")
def _load_b(interp: Interpreter, call: E.Call, env):
    return _load_tile(interp, call, env, 3, 4)


@register_intrinsic("wmma.mma.sync")
def _mma(interp: Interpreter, call: E.Call, env):
    c = interp.eval_vector(call.args[0], env)
    a = interp.eval_vector(call.args[1], env)
    b = interp.eval_vector(call.args[2], env)
    m = interp.eval_int(call.args[3], env)
    n = interp.eval_int(call.args[4], env)
    k = interp.eval_int(call.args[5], env)
    check_shape(m, n, k)
    interp.counters.tensor_macs += m * n * k
    return mma_sync(
        np.asarray(c, np.float32).reshape(m, n),
        np.asarray(a, np.float32).reshape(m, k),
        np.asarray(b, np.float32).reshape(k, n),
    ).ravel()


@register_intrinsic("wmma.store.d.sync")
def _store_d(interp: Interpreter, call: E.Call, env):
    name_expr = call.args[0]
    if not isinstance(name_expr, E.StringImm):
        raise WMMAError("wmma store expects a buffer name as first argument")
    buf = interp.buffer(name_expr.value)
    base = interp.eval_int(call.args[1], env)
    stride = interp.eval_int(call.args[2], env)
    m = interp.eval_int(call.args[3], env)
    n = interp.eval_int(call.args[4], env)
    tile = interp.eval_vector(call.args[5], env)
    idx = tile_index(base, stride, m, n)
    if np.any(idx < 0) or np.any(idx >= buf.size):
        raise WMMAError(
            f"wmma store out of bounds on {buf.name!r}:"
            f" [{idx.min()}, {idx.max()}] vs size {buf.size}"
        )
    buf.scatter(idx, np.asarray(tile, dtype=buf.data.dtype))
    interp.counters.add_store(
        memory_level(buf), idx.size * buf.dtype.bytes_per_lane()
    )
    return np.float32(0.0)
