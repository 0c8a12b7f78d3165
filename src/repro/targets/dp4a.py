"""Functional simulator for int8 dot-product accelerators (VNNI/DP4A).

Models the 4-way int8 multiply-accumulate family — Intel AVX512-VNNI's
``VPDPBSSD``/AMX-INT8 and NVIDIA's ``DP4A``/IMMA — the way
:mod:`repro.targets.amx` models TDPBF16PS:

* an accumulator tile holds 16x16 int32 values;
* ``dp4a_matmul`` computes ``C += A @ B`` where A is 16x64 int8
  (row-major), B is 64x16 int8 in the *VNNI-4* layout (groups of four
  logical rows interleaved element-wise — ``KWayInterleave`` with
  ``k = 4``), and C is 16x16 int32;
* products are formed in int8, accumulated in int32 with wraparound (no
  saturation), exactly like the hardware instructions.

Unlike AMX tiles, DP4A accumulators live in ordinary vector registers:
reading one pointwise (the ``DP4A2Mem`` marker) is legal, which is how
quantized epilogues (bias add, ReLU, requantization) consume them.

Intrinsic signatures (as emitted by :mod:`repro.hardboiled`; their one
definition each is :class:`repro.targets.isa.TileISA`'s role cores):

* ``dp4a_zero(rows, cols)``
* ``dp4a_load(buffer, base, row_stride, rows, cols)``
* ``dp4a_matmul(C, A, B_vnni4, m, n, k)``
* ``dp4a_store(buffer, base, row_stride, rows, cols, tile)``
"""

from __future__ import annotations

import numpy as np

from .isa import TileISA, register_isa

#: the interleave factor: one instruction consumes 4 int8 values per lane
K_GROUP = 4

#: architectural limits mirrored from the AMX tile file (a 64-byte row
#: holds 64 int8 or 16 int32 lanes)
MAX_ROWS = 16
MAX_BYTES_PER_ROW = 64

#: the dp4a_matmul macro-tile: C[16,16] i32 += A[16,64] i8 . B[64,16] i8
DP_M = 16
DP_N = 16
DP_K = 64

#: deepest dot product :func:`dp4a_mac` sums exactly in float32:
#: ``k`` int8 products reach at most ``k * 2**14``, exact below ``2**24``
MAX_EXACT_K = 2**24 // 2**14 - 1


class DP4AError(RuntimeError):
    pass


def vnni4_pack(b: np.ndarray) -> np.ndarray:
    """Pack a (K, N) matrix into the VNNI-4 layout (K/4, 4N).

    Groups of four rows are interleaved element-wise:
    ``vnni[p, 4j + t]`` holds ``b[4p + t, j]`` — the int8 analogue of
    AMX's pair-interleaved bf16 layout, produced by ``KWayInterleave``
    with ``k = 4``.
    """
    k, n = b.shape
    if k % K_GROUP != 0:
        raise DP4AError(f"VNNI-4 pack needs K divisible by 4, got {k}")
    out = np.empty((k // K_GROUP, K_GROUP * n), dtype=b.dtype)
    for t in range(K_GROUP):
        out[:, t::K_GROUP] = b[t::K_GROUP, :]
    return out


def vnni4_unpack(vnni: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vnni4_pack`: (..., K/4, 4N) -> (..., K, N).

    Rank-polymorphic over leading axes so batched ``[B, K/4, 4N]``
    operands unpack in one call (batch-axis kernels).
    """
    kp, n4 = vnni.shape[-2], vnni.shape[-1]
    if n4 % K_GROUP != 0:
        raise DP4AError(f"VNNI-4 unpack needs 4N row length, got {n4}")
    n = n4 // K_GROUP
    out = np.empty(vnni.shape[:-2] + (kp * K_GROUP, n), dtype=vnni.dtype)
    for t in range(K_GROUP):
        out[..., t::K_GROUP, :] = vnni[..., :, t::K_GROUP]
    return out


def dp4a_mac(c: np.ndarray, a: np.ndarray, b_vnni4: np.ndarray) -> np.ndarray:
    """The dp4a macro-instruction: C += A @ unpack(B_vnni4), int8 inputs.

    Hardware multiplies int8 pairs and accumulates in int32 with
    wraparound; truncating the inputs to int8 here reproduces that
    behaviour for out-of-range values (an int8 operand is taken as is).

    The products are summed by the float32 matmul (BLAS; numpy's int32
    matmul is an order of magnitude slower): every partial sum is an
    integer of magnitude at most ``k * 2**14``, which float32 holds
    exactly while that stays below ``2**24``, so the result is the
    integer dot product whatever order the library sums in.  Only the
    final add into ``c`` can leave the int32 range, and it wraps.

    Rank-polymorphic like :func:`repro.targets.amx.tdpbf16ps`: operands
    may carry a leading batch axis; the int8 truncation and int32
    wraparound apply elementwise per batch slice, bit-identical to the
    2-D call.
    """
    return _dp4a_exact(c, _int8_operand(a), _int8_operand(b_vnni4))


def _int8_operand(x: np.ndarray) -> np.ndarray:
    """An operand's values: truncated to int8, held as float32 (exact)."""
    return np.asarray(x).astype(np.int8, copy=False).astype(np.float32)


def _dp4a_exact(c: np.ndarray, a: np.ndarray, b_vnni4: np.ndarray):
    """:func:`dp4a_mac` on operands already through :func:`_int8_operand`."""
    return np.asarray(c, dtype=np.int32) + _dp4a_product(a, b_vnni4)


def _dp4a_product(a: np.ndarray, b_vnni4: np.ndarray) -> np.ndarray:
    b = vnni4_unpack(b_vnni4)
    k = a.shape[-1]
    if k != b.shape[-2]:
        raise DP4AError(
            f"dp4a_matmul shape mismatch: A {a.shape} vs B {b.shape}"
        )
    if k > MAX_EXACT_K:
        raise DP4AError(
            f"dp4a_matmul depth {k} > {MAX_EXACT_K}: the float32 dot"
            " product would no longer be exact"
        )
    return (a @ b).astype(np.int32)


ISA = TileISA(
    name="dp4a",
    error=DP4AError,
    acc=np.int32,
    narrow=np.int8,
    group=K_GROUP,
    operand=_int8_operand,
    mac_core=_dp4a_exact,
    product=_dp4a_product,
    counter="int8_macs",
    mac_shapes=frozenset({(DP_M, DP_N, DP_K)}),
    max_rows=MAX_ROWS,
    max_row_bytes=MAX_BYTES_PER_ROW,
    fill_name="dp4a_zero",
    load_names=("dp4a_load",),
    mac_name="dp4a_matmul",
    store_name="dp4a_store",
    to_mem_name="DP4A2Mem",
)
register_isa(ISA)

check_tile_shape = ISA.check_tile
