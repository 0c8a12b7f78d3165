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

Intrinsic signatures (their one definition each is
:class:`repro.targets.isa.TileISA`'s role cores):

* ``wmma.fill.sync(m, n, value)``
* ``wmma.load.a.sync(buffer, base, row_stride, m, k)`` — row-major
* ``wmma.load.b.sync(buffer, base, row_stride, k, n)`` — row-major
* ``wmma.mma.sync(C, A, B, m, n, k)``
* ``wmma.store.d.sync(buffer, base, row_stride, m, n, tile)``
"""

from __future__ import annotations

import numpy as np

from .isa import TileISA, accumulate, register_isa

#: fp16 WMMA fragment shapes (m, n, k)
SUPPORTED_SHAPES = {(16, 16, 16), (32, 8, 16), (8, 32, 16)}

WARP_SIZE = 32


class WMMAError(RuntimeError):
    pass


def _fp16_operand(x: np.ndarray) -> np.ndarray:
    """A fragment operand's values: fp16-representable, held as float32.

    A float16 array is widened, which is exact.  Anything else goes
    through float32 — what a load outside a MAC operand slot hands
    over — and is rounded to float16 first; on fp16-representable
    values that rounding is the identity, so both routes agree bit for
    bit.
    """
    x = np.asarray(x)
    if x.dtype != np.float16:
        x = x.astype(np.float32, copy=False).astype(np.float16)
    return x.astype(np.float32)


def _mma_exact(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C + A @ B on operands already through :func:`_fp16_operand`."""
    return accumulate(c, a @ b)


def mma_sync(
    c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """C + A @ B with fp16 operands and fp32 accumulation."""
    return _mma_exact(c, _fp16_operand(a), _fp16_operand(b))


ISA = TileISA(
    name="wmma",
    error=WMMAError,
    acc=np.float32,
    narrow=np.float16,
    group=1,
    operand=_fp16_operand,
    mac_core=_mma_exact,
    product=np.matmul,
    counter="tensor_macs",
    mac_shapes=frozenset(SUPPORTED_SHAPES),
    max_rows=None,  # fragments live in ordinary registers
    max_row_bytes=None,
    fill_name="wmma.fill.sync",
    load_names=("wmma.load.a.sync", "wmma.load.b.sync"),
    mac_name="wmma.mma.sync",
    store_name="wmma.store.d.sync",
    to_mem_name="WMMA2Mem",
)
register_isa(ISA)

check_shape = ISA.check_mac
