"""Shuffle intrinsics HARDBOILED emits to re-layout operands.

These are the "application-specific" data movement helpers from the
paper: ``KWayInterleave`` produces the VNNI layout AMX expects, and
``ConvolutionShuffle`` materializes the (generalized) Toeplitz matrix
that turns convolution-like patterns into MatMul (paper §V-A/V-B and
Appendix B).  On real hardware they desugar into LLVM shuffle
instructions; here each is one value-level core, registered in
:data:`repro.targets.isa.REGISTRY` with the interpreter driver that
checks and counts its reads; the compiled backend calls the core
directly.

Intrinsic signatures:

* ``KWayInterleave(k, rows, cols, tile)``
* ``ConvolutionShuffle(buffer, base, rows, cols, taps, stride)`` — reads
  ``taps`` kernel coefficients starting at ``base`` and builds the
  ``rows x cols`` Toeplitz matrix (row-major)
* ``MultiphaseShuffle(buffer, base, rows, cols, taps, factor)`` — the
  upsampling coefficient matrix A_up of §V-B over the same window
* ``TileExpand(tile, valid_cols, cols)`` / ``TileCompact(tile, cols,
  valid_cols)`` — pad each row with zeros / drop the padding again, for
  strided-convolution tiles where only the first ``valid_cols`` columns
  of each row hold real outputs
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..ir import expr as E
from ..ir.types import TypeCode
from ..runtime.interpreter import EvalError, memory_level
from ..targets.bfloat16 import round_to_bfloat16
from ..targets.isa import (
    PerIteration, check_bounds, named_buffer, register, tile_rows, tile_view,
)


class ShuffleError(RuntimeError):
    pass


def kway_interleave(tile: np.ndarray, k: int) -> np.ndarray:
    """Interleave groups of ``k`` rows element-wise: (..., R, C) ->
    (..., R/k, k*C).

    ``out[p, k*j + t] == tile[k*p + t, j]`` — for ``k = 2`` this is the
    VNNI layout of AMX's B operand.
    """
    rows, cols = tile.shape[-2:]
    if rows % k != 0:
        raise ShuffleError(f"KWayInterleave: {rows} rows not divisible by {k}")
    out = np.empty(tile.shape[:-2] + (rows // k, cols * k), dtype=tile.dtype)
    for t in range(k):
        out[..., t::k] = tile[..., t::k, :]
    return out


def _coefficient_matrix(kernel: np.ndarray, tap: np.ndarray) -> np.ndarray:
    """``A[c, j] = K[tap[c, j]]`` where that tap index is in range, else 0
    — what both coefficient-window shuffles build; an ``[n, taps]``
    stack of kernels yields the ``[n, rows, cols]`` stack of them."""
    out = np.zeros(kernel.shape[:-1] + tap.shape, dtype=np.float32)
    valid = (tap >= 0) & (tap < kernel.shape[-1])
    if kernel.ndim == 1:  # the per-tile path: no slower than it was
        out[valid] = kernel[tap[valid]]
    else:
        out[:, valid] = kernel[:, tap[valid]]
    return out


def toeplitz_from_kernel(
    kernel: np.ndarray, rows: int, cols: int, stride: int = 1
) -> np.ndarray:
    """The generalized Toeplitz coefficient matrix A_K (paper §V-A/V-B).

    ``A[c, j] = K[c - stride*j]`` when ``0 <= c - stride*j < len(K)``,
    else 0.  ``stride=1`` is plain convolution; ``stride=2`` is the
    downsampling matrix ``A_down`` of §V-B.
    """
    c, j = np.indices((rows, cols))
    return _coefficient_matrix(kernel, c - stride * j)


def multiphase_matrix(
    kernel: np.ndarray, rows: int, cols: int, factor: int
) -> np.ndarray:
    """The upsampling coefficient matrix A_up of §V-B.

    Output column ``j`` covers output pixel ``j`` whose phase is
    ``j % factor`` and whose input offset advances by ``j // factor``.
    Entry ``[c, j]`` holds ``K[factor*(c - j//factor) + j%factor]`` when
    that tap index is in range — the multiphase filter-bank
    decomposition of the kernel.
    """
    c, j = np.indices((rows, cols))
    return _coefficient_matrix(kernel, factor * (c - j // factor) + j % factor)


# -- the value-level cores -----------------------------------------------------
#
# Signature ``(arena, *values)``, as the compiled backend calls them;
# ``arena`` (a :class:`repro.runtime.plan.BufferArena`, or None) caches
# what is re-derivable from small immutable inputs — the shuffle
# matrices, keyed on the source *values* so changed weights can never hit
# a stale entry.  Memoized results are treated as immutable by every
# caller (they are operands or right-hand sides, never written through).
# The elementwise pair accepts a leading axis (``[N, rows*cols]`` tiles);
# the shuffles build operands every row shares.


def _memo(arena, build, source: np.ndarray, *geometry):
    """``build(source, *geometry).ravel()``, through the arena's memo."""
    if arena is None:
        return build(source, *geometry).ravel()
    # dtype and shape are part of the key: byte-identical coefficients
    # of a different element type or layout must not collide (arenas
    # may be shared)
    key = (build.__name__, source.dtype.str, source.shape, source.tobytes())
    return arena.memo(key + geometry, lambda: build(source, *geometry).ravel())


def interleave(arena, k, rows, cols, tile):
    matrix = np.asarray(tile, dtype=np.float32).reshape(rows, cols)
    return _memo(arena, kway_interleave, matrix, k)


def interleave_stack(arena, isa, dtype, k, data, bases, stride, rows, cols):
    """``KWayInterleave`` of the ``[rows, cols]`` tiles of ``data`` at
    every one of ``bases`` (:func:`~repro.targets.isa.tile_rows`: one
    that leaves ``data`` raises the interpreter's load error) at once,
    as the MAC operands a ``dtype`` scratch tile makes of them."""
    tiles = tile_rows(data, bases, stride, rows, cols, EvalError)
    return _operands(isa, dtype, kway_interleave(tiles.astype(np.float32), k))


def window_shuffle(build, arena, buf, base, rows, cols, taps, param):
    """A coefficient-window shuffle over ``buf[base : base + taps]``; a
    window that leaves ``buf`` raises, as the interpreter's does."""
    if base < 0 or base + taps > buf.size:
        raise ShuffleError(
            f"coefficient window [{base}, {base + taps - 1}] leaves"
            f" {buf.name!r} of size {buf.size}"
        )
    return _memo(arena, build, buf.data[base : base + taps], rows, cols, param)


def _operands(isa, dtype, values):
    """Coefficient matrices as the MAC operands a scratch tile makes of
    them: stored into ``dtype`` elements, loaded back narrow and put
    through ``isa``'s :attr:`operand`."""
    if dtype.code is TypeCode.BFLOAT:
        values = round_to_bfloat16(values)
    stored = np.empty(values.shape, dtype.to_numpy())
    stored[...] = values
    return isa.operand(isa.loaded(stored, True))


def window_stack(build, arena, isa, dtype, buf, base, outer, rows, cols,
                 taps, param):
    """A coefficient-window shuffle over every iteration of a serial
    loop nest at once — window ``base + sum(i * step)`` per ``(count,
    step)`` axis of ``outer`` — as the ``[*counts, rows, cols]`` stack
    of MAC operands (:func:`_operands`) it becomes.  One memo entry,
    keyed on the bytes of every window; read-only.  When a window
    leaves ``buf``, a :class:`~repro.targets.isa.PerIteration` that
    shuffles each window alone, raising at the first that leaves."""
    view = tile_view(buf.data, base, 0, 1, taps, outer)
    if view is None:
        return PerIteration(
            lambda at: _operands(isa, dtype, window_shuffle(
                build, arena, buf, at, rows, cols, taps, param
            ).reshape(rows, cols)),
            base, outer,
        )
    kernels = view[..., 0, :]

    def make():
        values = build(kernels.reshape(-1, taps), rows, cols, param)
        out = _operands(
            isa, dtype, values.reshape(kernels.shape[:-1] + (rows, cols))
        )
        out.flags.writeable = False
        return out

    if arena is None:
        return make()
    key = ("stack", build.__name__, kernels.dtype.str, kernels.shape,
           kernels.tobytes(), rows, cols, param, isa.name, dtype)
    return arena.memo(key, make)


def tile_expand(arena, tile, valid, cols):
    """Pad each ``valid``-wide row of ``[..., rows*valid]`` tiles with
    zeros up to ``cols``."""
    t = np.asarray(tile, np.float32)
    rows = t.reshape(-1, valid)  # of every tile: the padding is per row
    out = np.zeros((len(rows), cols), dtype=np.float32)
    out[:, :valid] = rows
    return out.reshape(t.shape[:-1] + (-1,))


def tile_compact(arena, tile, cols, valid):
    """Drop the padding columns of ``[..., rows*cols]`` tiles."""
    t = np.asarray(tile, np.float32)
    kept = t.reshape(-1, cols)[:, :valid]
    return np.ascontiguousarray(kept).reshape(t.shape[:-1] + (-1,))


# -- the interpreter's driver --------------------------------------------------


def _interp_values(core, interp, call: E.Call, env):
    """Drive a core whose arguments are all values — tiles and ints."""
    values = []
    for a in call.args:
        evaluate = interp.eval_vector if a.type.lanes > 1 else interp.eval_int
        values.append(evaluate(a, env))
    return core(None, *values)


def _interp_window(build, interp, call: E.Call, env):
    """The checked coefficient-window reader both shuffles share."""
    buf = named_buffer(interp, call, ShuffleError)
    base, rows, cols, taps, param = (
        interp.eval_int(a, env) for a in call.args[1:6]
    )
    idx = base + np.arange(taps)
    check_bounds(call, buf, idx, ShuffleError)
    kernel = buf.gather(idx)
    interp.counters.add_load(
        memory_level(buf), idx.size * buf.dtype.bytes_per_lane()
    )
    return _memo(None, build, kernel, rows, cols, param)


def _register_values(name: str, role: str, core) -> None:
    register(name, None, role, partial(_interp_values, core), core)


def _register_window(name: str, build) -> None:
    register(
        name, None, "shuffle",
        partial(_interp_window, build), partial(window_shuffle, build),
    )


_register_values("KWayInterleave", "shuffle", interleave)
_register_values("TileExpand", "elementwise", tile_expand)
_register_values("TileCompact", "elementwise", tile_compact)
_register_window("ConvolutionShuffle", toeplitz_from_kernel)
_register_window("MultiphaseShuffle", multiphase_matrix)
