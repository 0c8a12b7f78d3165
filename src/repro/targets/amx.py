"""Functional simulator for Intel AMX (Advanced Matrix Extensions).

Models the architectural contract HARDBOILED's lowering rules rely on:

* tile registers hold up to 16 rows x 64 bytes (16x32 bf16, 16x16 fp32);
* ``TDPBF16PS`` computes ``C += A @ B`` where A is 16x32 bf16 (row-major),
  B is 16x32 bf16 in the *VNNI* layout (pairs of logical rows
  interleaved), and C is 16x16 fp32;
* ``tile_load``/``tile_store`` move tiles between memory and registers
  with a row base/stride addressing scheme.

Tiles flow through the interpreter as flattened numpy arrays (row-major),
so the simulator is value-oriented: each intrinsic consumes and produces
tile values.  The register-file limit (8 tiles) is checked by the
instruction selector, not here.

Intrinsic signatures (as emitted by :mod:`repro.hardboiled`; their one
definition each is :class:`repro.targets.isa.TileISA`'s role cores):

* ``tile_zero(rows, cols)``
* ``tile_load(buffer, base, row_stride, rows, cols)``
* ``tile_matmul(C, A, B_vnni, m, n, k)`` — TDPBF16PS
* ``tile_store(buffer, base, row_stride, rows, cols, tile)``
"""

from __future__ import annotations

import numpy as np

from .bfloat16 import round_to_bfloat16
from .isa import TileISA, accumulate, register_isa

#: architectural limits (Sapphire Rapids AMX)
MAX_ROWS = 16
MAX_BYTES_PER_ROW = 64
NUM_TILE_REGISTERS = 8

#: the TDPBF16PS tile shape: C[16,16] f32 += A[16,32] bf16 . B[32,16] bf16
TDP_M = 16
TDP_N = 16
TDP_K = 32


class AMXError(RuntimeError):
    pass


def vnni_pack(b: np.ndarray) -> np.ndarray:
    """Pack a (K, N) matrix into the VNNI layout (K/2, 2N).

    Row pairs are interleaved element-wise: ``vnni[p, 2j + t]`` holds
    ``b[2p + t, j]``.
    """
    k, n = b.shape
    if k % 2 != 0:
        raise AMXError(f"VNNI pack needs even K, got {k}")
    out = np.empty((k // 2, 2 * n), dtype=b.dtype)
    out[:, 0::2] = b[0::2, :]
    out[:, 1::2] = b[1::2, :]
    return out


def vnni_unpack(vnni: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vnni_pack`: (..., K/2, 2N) -> (..., K, N).

    Rank-polymorphic over leading axes, so a ``[B, K/2, 2N]`` stack of
    per-request operands unpacks in one call — the batch-axis kernels
    rely on this.
    """
    kp, n2 = vnni.shape[-2], vnni.shape[-1]
    if n2 % 2 != 0:
        raise AMXError(f"VNNI unpack needs even row length, got {n2}")
    n = n2 // 2
    out = np.empty(vnni.shape[:-2] + (kp * 2, n), dtype=vnni.dtype)
    out[..., 0::2, :] = vnni[..., :, 0::2]
    out[..., 1::2, :] = vnni[..., :, 1::2]
    return out


def tdpbf16ps(
    c: np.ndarray, a: np.ndarray, b_vnni: np.ndarray
) -> np.ndarray:
    """The TDPBF16PS instruction: C += A @ unpack(B_vnni), bf16 inputs.

    Hardware multiplies bf16 pairs and accumulates in fp32; rounding the
    inputs to bf16 here reproduces that precision.

    Rank-polymorphic: any operand may carry leading batch axes
    (``[B, m, k]`` etc.); mixed batched/shared operands broadcast the
    way ``np.matmul`` does, and each batch slice is bit-identical to
    the 2-D call on that slice.
    """
    return _tdp_exact(c, round_to_bfloat16(a), round_to_bfloat16(b_vnni))


def _tdp_exact(c: np.ndarray, a: np.ndarray, b_vnni: np.ndarray):
    """:func:`tdpbf16ps` on operands already bf16-rounded."""
    return accumulate(c, _tdp_product(a, b_vnni))


def _tdp_product(a: np.ndarray, b_vnni: np.ndarray) -> np.ndarray:
    b = vnni_unpack(b_vnni)
    if a.shape[-1] != b.shape[-2]:
        raise AMXError(
            f"TDPBF16PS shape mismatch: A {a.shape} vs B {b.shape}"
        )
    return a @ b


ISA = TileISA(
    name="amx",
    error=AMXError,
    acc=np.float32,
    narrow=None,
    group=2,
    operand=round_to_bfloat16,
    mac_core=_tdp_exact,
    product=_tdp_product,
    counter="tensor_macs",
    mac_shapes=frozenset({(TDP_M, TDP_N, TDP_K)}),
    max_rows=MAX_ROWS,
    max_row_bytes=MAX_BYTES_PER_ROW,
    fill_name="tile_zero",
    load_names=("tile_load",),
    mac_name="tile_matmul",
    store_name="tile_store",
)
register_isa(ISA)

check_tile_shape = ISA.check_tile
