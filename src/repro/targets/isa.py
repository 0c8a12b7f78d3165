"""One description per tile accelerator, one definition per intrinsic.

A :class:`TileISA` says what distinguishes one tile-MAC accelerator
from the next — its error class, accumulator and narrow operand dtypes,
shape limits, B-operand layout, MAC core and intrinsic names — and
carries each intrinsic *role* (zero/fill, load, MAC, store) once, as a
value-level core.  :mod:`.amx`, :mod:`.wmma` and :mod:`.dp4a`
instantiate it; nothing about an intrinsic is written per accelerator.

Both backends drive the same cores.  The interpreter's driver (the
``_interp_*`` functions below) evaluates the ``Call`` arguments, checks
buffer name, bounds and shape with the accelerator's own error class,
and moves data through ``Buffer.gather``/``scatter`` so footprint masks
and :class:`~repro.runtime.counters.Counters` see every element.  The
compiled driver (:mod:`repro.runtime.codegen`) calls the cores straight
from emitted source with already-evaluated values, unchecked.

Every core accepts an optional *leading axis* — the batch of a batched
kernel, the lanes of a vectorised block loop, or both as one ``B × N``
axis — and tells it from the values alone: a stacked buffer holds ``[B,
size]`` data, a vector of per-lane bases yields an ``[N, rows*cols]``
index grid (into a stacked buffer, ``B·N`` rows), a varying tile is
``[N, rows*cols]``.  Each leading-axis row is bit-identical to the call
without the axis (``tests/test_target_cores.py``).

:data:`REGISTRY` is the one table of tensor intrinsics; what the
emitter and the analyses ask about one ("is this a store?", "which
loads feed this MAC narrow?") is a read of it.
"""

from __future__ import annotations

import importlib
import mmap
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..ir import expr as E
from ..ir.types import TypeCode
from ..runtime.interpreter import INTRINSICS, memory_level, tile_index
from .bfloat16 import round_to_bfloat16


def tile_grid(arena, base, stride, rows, cols):
    """``tile_index`` with the base-0 grid cached per geometry.

    A ``[N]`` vector of per-lane bases (bare, or in a :func:`tile_view`
    pair) yields the ``[N, rows*cols]`` stack of the lanes' index grids.
    """
    if type(base) is tuple:
        base = base[0]
    if isinstance(base, np.ndarray) and base.ndim:
        base = base[:, None]
    if arena is None:
        return tile_index(0, stride, rows, cols) + base
    return arena.tile_grid(stride, rows, cols) + base


def tile_view(data, base, stride, rows, cols, outer=()):
    """The tile stack at an affine ``base`` — a scalar, over a flat or
    stacked ``[B, size]`` buffer, or per-lane bases proved ``bases[0] +
    step * lane`` and passed as ``(bases, step)`` — as one strided view
    of C-contiguous ``data``, lowest and highest address checked.
    ``outer`` adds leading ``(count, step)`` axes ahead of all of those:
    the iterations of a serial loop nest, whose tiles it stacks in one
    view.  None: the gather / scatter runs, raising (or wrapping) as it
    always has."""
    axes = [*outer, (rows, stride)]
    if type(base) is tuple:
        axes.insert(len(outer), (len(base[0]), base[1]))
        base = base[0][0]
    elif isinstance(base, np.ndarray) and base.ndim:
        return None
    reach = [step * (n - 1) for n, step in axes]
    low = base + sum(r for r in reach if r < 0)
    high = base + sum(r for r in reach if r > 0) + cols
    if low < 0 or high > data.shape[-1] or min(rows, cols) < 1:
        return None
    if not data.flags.c_contiguous:
        return None
    if data.ndim == 2:  # stacked: one request per row
        axes.insert(len(outer), (len(data), data.shape[1]))
    item = data.itemsize
    return np.ndarray(
        tuple(n for n, _ in axes) + (cols,), data.dtype, data,
        int(base) * item, tuple(s * item for _, s in axes) + (item,),
    )


def tile_gather(arena, data, base, stride, rows, cols):
    """The tile(s) at ``base`` (see :func:`tile_view`) as a fresh flat
    ``[..., rows*cols]`` copy: of the strided view where it is in range,
    else the index gather, raising (or wrapping) as it always has."""
    view = tile_view(data, base, stride, rows, cols)
    if view is not None:  # one copy: fresh, C-contiguous
        tile = view.copy().reshape(view.shape[:-2] + (rows * cols,))
    else:
        idx = tile_grid(arena, base, stride, rows, cols)
        # a branch, not ``data[..., idx]``: the ellipsis spelling costs
        # a fancy-index gather two to three times over
        tile = data[idx] if data.ndim == 1 else data[:, idx]
    # a stacked buffer at per-lane bases: ``[B, N, ...]``, one B·N axis
    return tile.reshape(-1, rows * cols) if tile.ndim == 3 else tile


def tile_scatter(arena, data, base, stride, rows, cols, values):
    """Store flat ``values`` at the tile(s) at ``base``: through the
    strided view where it is in range and no two elements share an
    address (rows apart; lanes by the ``(bases, step)`` pair's
    lanes-disjoint proof), else the index scatter.  A shared tile
    broadcasts along the batch; ``B·N`` rows land as ``[B, N, ...]``."""
    view = None
    if rows == 1 or abs(stride) >= cols:
        view = tile_view(data, base, stride, rows, cols)
    if view is not None:
        tiles = values.reshape(values.shape[:-1] + (rows, cols))
        if tiles.ndim == 3 and view.ndim == 4:
            tiles = tiles.reshape((-1,) + view.shape[1:])
        view[...] = tiles
    elif data.ndim == 1:
        data[tile_grid(arena, base, stride, rows, cols)] = values
    else:
        grid = tile_grid(arena, base, stride, rows, cols)
        if values.ndim == 2 and grid.ndim == 2:
            values = values.reshape((-1,) + grid.shape)
        data[:, grid] = values


def tile_bases(base, outer):
    """Each iteration's ``base`` (a scalar, or per-lane ``[N]`` bases,
    bare or in their pair) plus ``i * step`` per ``(count, step)`` axis
    of ``outer``, flattened in loop order: ``[R]`` or ``[R, N]``."""
    shift = 0
    for count, step in outer:
        shift = np.add.outer(shift, np.arange(count) * step)
    return np.add.outer(np.ravel(shift), base[0] if type(base) is tuple else base)


def tile_rows(data, bases, stride, rows, cols, error):
    """The ``[*bases.shape, rows, cols]`` tiles at ``bases`` as one gather
    of a view holding a tile at every address, bounds-checked: one that
    leaves ``data`` raises ``error``, as the interpreter's load does.  A
    stacked ``[B, size]`` buffer puts its request axis second: ``[R, B,
    ...]``, per-lane bases and requests as one ``B·N`` axis."""
    reach = stride * (rows - 1)
    above, span = max(0, -reach), abs(reach) + cols  # row 0 over the lowest
    size, lo, hi = data.shape[-1], bases.min() - above, bases.max() - above
    if lo < 0 or hi > size - span:
        raise error(f"tile out of bounds: [{lo}, {hi + span - 1}] vs size {size}")
    if not data.flags.c_contiguous:
        data = np.ascontiguousarray(data)
    item, lead = data.itemsize, data.shape[:-1]
    windows = np.ndarray(
        lead + (size - span + 1, rows, cols), data.dtype, data, above * item,
        data.strides[:-1] + (item, stride * item, item),
    )
    at = bases - above if above else bases
    if not lead:
        return windows[at]
    request = np.arange(lead[0]).reshape((1, -1) + (1,) * (at.ndim - 1))
    tiles = windows[request, at[:, None]]
    return tiles.reshape(tiles.shape[:1] + (-1, rows, cols))


def wrapping_sum(products):
    """The wrapping int32 sum over the leading axis: associative, so R
    accumulations in loop order (DP4A's fold)."""
    return np.add.reduce(products, axis=0, dtype=np.int32)


def accumulate(c, product):
    """A float32 MAC core's ``c + product``, into ``product`` where the
    shapes allow.  ``+`` would, from 256 KiB up, swap the operands (and
    a NaN's sign), and a fresh sum costs a page fault per 4 KiB."""
    out = product if product.ndim >= np.ndim(c) else None
    return np.add(np.asarray(c, dtype=np.float32), product, out=out)


class PerIteration:
    """A serial nest's stack whose one view cannot be built, indexed as
    that view is: ``[ix]`` is ``cut(base)`` at iteration ``ix`` of the
    ``(count, step)`` axes of ``outer`` — the per-tile loop's own work,
    raising (or wrapping) where it does, after the same writes."""

    def __init__(self, cut: Callable, base, outer) -> None:
        self.cut, self.base, self.outer = cut, base, outer

    def __getitem__(self, ix):
        ix = ix if type(ix) is tuple else (ix,)
        shift = sum(i * step for i, (_, step) in zip(ix, self.outer))
        if type(self.base) is tuple:  # per-lane ``(bases, step)``
            return self.cut((self.base[0] + shift, self.base[1]))
        return self.cut(self.base + shift)


#: private, anonymous, and pre-faulted where the platform can (one
#: system call rather than a page fault per page: -8% B=32 time)
_MAP_FLAGS = (
    mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
)


def _unheaped(shape, dtype=np.float32):
    """An uninitialised array; from 128 KiB up, a mapping of its
    own, unmapped when the array dies.  A widened input lives one call:
    freed back to malloc it would raise glibc's dynamic mmap threshold,
    and the heap would then keep the pages of later transients
    (``peak_rss_mb`` +6% on ``apps``)."""
    size = np.dtype(dtype).itemsize * int(np.prod(shape))
    if size < 128 * 1024:
        return np.empty(shape, dtype)
    pages = mmap.mmap(-1, size, _MAP_FLAGS)
    return np.frombuffer(pages, dtype).reshape(shape)


def _tiles(value, rows, cols):
    """A flat tile value — ``[rows*cols]``, or ``[N, rows*cols]`` under
    a leading axis — as ``[rows, cols]`` / ``[N, rows, cols]`` matrices.

    Under the axis the value is forced C-contiguous: a stacked gather
    (``data[:, idx]``) comes back in transposed layout, and the MAC
    cores (``np.matmul``) must see the layout the flat call feeds them
    — float summation order must not depend on the gather's strides.
    """
    v = np.asarray(value)
    if v.ndim == 1:
        return v.reshape(rows, cols)
    return np.ascontiguousarray(v).reshape(-1, rows, cols)


@dataclass(frozen=True)
class TileISA:
    """A tile-MAC accelerator: ``C[m,n] += A[m,k] . B[k,n]``."""

    name: str
    #: what every check of this accelerator's intrinsics raises
    error: type
    #: accumulator element type; tile loads widen to it as well
    acc: type
    #: the operand element type a buffer may hold and the MAC core takes
    #: as is (None: bf16 has no numpy dtype, AMX tiles are float32)
    narrow: Optional[type]
    #: B arrives as ``(k // group, group * n)``: rows interleaved in
    #: groups (VNNI); 1 is plain row-major
    group: int
    #: the widening rule, elementwise: any operand value -> the exact
    #: float32 values the instruction multiplies
    operand: Callable
    #: the rank-polymorphic ``(c, a, b) -> c + a . b`` instruction, on
    #: operands already through ``operand``
    mac_core: Callable
    #: its ``(a, b) -> a . b``, in the accumulator type: what ``mac_core``
    #: adds to ``c``
    product: Callable
    #: the :class:`Counters` field one MAC adds ``m * n * k`` to
    counter: str
    #: the ``(m, n, k)`` shapes the MAC instruction exists in
    mac_shapes: frozenset
    #: register-file limit on a tile: rows, bytes per row (None: none)
    max_rows: Optional[int]
    max_row_bytes: Optional[int]
    fill_name: str
    load_names: Tuple[str, ...]
    mac_name: str
    store_name: str
    #: accumulator -> register read marker that survives selection when
    #: a fused epilogue reads the tile pointwise (identity in simulation)
    to_mem_name: Optional[str] = None

    def __reduce__(self):
        # by reference: a kernel payload names its cores, not their code
        return (_isa, (self.name,))

    # -- the architectural contract -------------------------------------------

    def check_tile(self, rows: int, cols: int, bytes_per_element: int) -> None:
        if self.max_rows is None:
            return
        label = self.name.upper()
        if rows > self.max_rows:
            raise self.error(f"{label} tile rows {rows} > {self.max_rows}")
        if cols * bytes_per_element > self.max_row_bytes:
            raise self.error(
                f"{label} tile row of {cols} x {bytes_per_element}B exceeds"
                f" {self.max_row_bytes} bytes"
            )

    def check_mac(self, m: int, n: int, k: int) -> None:
        if (m, n, k) not in self.mac_shapes:
            legal = ", ".join(
                f"m{a}n{b}k{c}" for a, b, c in sorted(self.mac_shapes)
            )
            raise self.error(
                f"{self.mac_name} supports {legal}, got m{m}n{n}k{k}"
            )

    # -- the role cores ------------------------------------------------------

    def fill(self, arena, rows, cols, value=None):
        """Zero/fill: an accumulator tile of ``value`` (zeros without
        one).  The IR's fill value is a scalar, so an array of them is
        one per leading-axis row and yields ``[N, rows*cols]``."""
        if value is None:
            return np.zeros(rows * cols, dtype=self.acc)
        if isinstance(value, np.ndarray) and value.ndim:
            column = value.reshape(-1, 1)
            return np.full((len(column), rows * cols), column, self.acc)
        return np.full(rows * cols, value, dtype=self.acc)

    def loaded(self, tile, mac_operand=False):
        """A gathered tile as its load intrinsic's value.

        Widened to the accumulator type — except in a MAC operand slot
        (``mac_operand``, a literal the emitter appends there and
        nowhere else), which takes the buffer's own narrow elements so
        the core widens them exactly once.  Anywhere else numpy would
        compute in the narrow type where the interpreter computes wide.
        """
        if mac_operand and tile.dtype == self.narrow:
            return tile
        return tile.astype(self.acc, copy=False)

    def widen(self, buf):
        """``(source, exact)`` of a MAC input the kernel only reads, once
        per call: the whole buffer through :attr:`operand` when it holds
        this ISA's narrow type (bf16 for AMX), its tiles then exact;
        else the buffer itself, its tiles rounded per tile as ever."""
        data = buf.data
        if self.narrow is None:  # bf16 in float32 storage: round it
            if buf.dtype.code is TypeCode.BFLOAT:
                return self.operand(data), True
        elif data.dtype == self.narrow:  # ``operand`` is the exact cast
            out = _unheaped(data.shape)
            np.copyto(out, data)
            return out, True
        return buf, False

    def load(self, arena, buf, base, stride, rows, cols, mac_operand=False):
        exact = isinstance(buf, np.ndarray)  # a :meth:`widen` source
        data = buf if exact else buf.data
        tile = tile_gather(arena, data, base, stride, rows, cols)
        return tile if exact else self.loaded(tile, mac_operand)

    def stack(self, arena, source, exact, base, stride, rows, cols, outer):
        """Every iteration's MAC operand tile of a serial nest over a
        read-only input (:meth:`widen`'s ``source, exact``), ``[ix]``
        each: one strided view (:func:`tile_view`) when ``exact`` and in
        range — a read copies its tile, which the core must see
        C-contiguous — else a :class:`PerIteration` that loads and
        :meth:`shaped` each tile as the per-tile loop does."""
        if exact:
            view = tile_view(source, base, stride, rows, cols, outer)
            if view is not None:
                return view
        return PerIteration(
            lambda at: self.shaped(
                self.load(arena, source, at, stride, rows, cols, True),
                rows, cols, exact,
            ),
            base, outer,
        )

    def gathered(self, arena, source, exact, bases, stride, rows, cols):
        """:func:`tile_rows` of a read-only input (:meth:`widen`'s
        ``source, exact``), widened as :meth:`load` and :meth:`shaped`
        widen one tile."""
        tiles = tile_rows(
            source if exact else source.data, bases, stride, rows, cols, self.error
        )
        return tiles if exact else self.operand(self.loaded(tiles, True))

    def accumulator(self, data, base, stride, rows, cols, outer):
        """:func:`tile_view` of a MAC nest's accumulator tiles, or this
        accelerator's error, as the interpreter's load raises."""
        view = tile_view(data, base, stride, rows, cols, outer)
        if view is None:
            raise self.error(f"{self.name} accumulator tile out of bounds")
        return view

    def shaped(self, tile, rows, cols, exact=False):
        """A flat MAC operand as the core's ``[..., rows, cols]`` matrix,
        through :attr:`operand` unless already ``exact`` — what
        :meth:`mac` does per operand, for a kernel's settled MAC."""
        tile = _tiles(tile, rows, cols)
        return tile if exact else self.operand(tile)

    def mac(self, arena, c, a, b, m, n, k, a_exact=False, b_exact=False):
        self.check_mac(m, n, k)
        g = self.group
        a, b = _tiles(a, m, k), _tiles(b, k // g, g * n)
        out = self.mac_core(
            _tiles(c, m, n),
            a if a_exact else self.operand(a),
            b if b_exact else self.operand(b),
        )
        return out.ravel() if out.ndim == 2 else out.reshape(len(out), -1)

    def store(self, arena, buf, base, stride, rows, cols, tile):
        data = buf.data
        values = np.asarray(tile, dtype=data.dtype)
        if buf.dtype.code is TypeCode.BFLOAT:
            values = round_to_bfloat16(values)
        tile_scatter(arena, data, base, stride, rows, cols, values)
        return self.acc(0)


def _isa(name: str) -> TileISA:
    return importlib.import_module(f"{__package__}.{name}").ISA


def to_mem(arena, tile):
    return tile


# -- the registry --------------------------------------------------------------


@dataclass(frozen=True)
class Intrinsic:
    name: str
    #: the accelerator it belongs to; None for the re-layout helpers
    #: any of them may use
    isa: Optional[TileISA]
    #: ``fill`` | ``load`` | ``mac`` | ``store`` | ``to_mem`` |
    #: ``shuffle`` (weight-derived operand constructor, shared along a
    #: leading axis by construction) | ``elementwise`` (per-tile re-layout)
    role: str
    #: False: the call mutates a buffer
    pure: bool
    #: interpreter driver ``(interp, call, env) -> value``
    interp: Callable
    #: compiled core ``(arena, *values) -> value``; pickled by reference
    #: into kernel payloads
    core: Callable


REGISTRY: Dict[str, Intrinsic] = {}


def register(name, isa, role, interp, core, pure=True) -> None:
    REGISTRY[name] = Intrinsic(name, isa, role, pure, interp, core)
    INTRINSICS[name] = interp


def role_of(name: str) -> Optional[str]:
    """The role of tensor intrinsic ``name`` (None: not one)."""
    entry = REGISTRY.get(name)
    return None if entry is None else entry.role


def register_isa(isa: TileISA) -> None:
    register(isa.fill_name, isa, "fill", partial(_interp_fill, isa), isa.fill)
    for name in isa.load_names:
        register(name, isa, "load", partial(_interp_load, isa), isa.load)
    register(isa.mac_name, isa, "mac", partial(_interp_mac, isa), isa.mac)
    register(
        isa.store_name, isa, "store", partial(_interp_store, isa), isa.store,
        pure=False,
    )
    if isa.to_mem_name is not None:
        register(isa.to_mem_name, isa, "to_mem", _interp_to_mem, to_mem)


# -- the interpreter's driver --------------------------------------------------


def named_buffer(interp, call: E.Call, error: type):
    """The buffer a load/store/shuffle call names in its first slot."""
    name = call.args[0]
    if not isinstance(name, E.StringImm):
        raise error(f"{call.name} expects a buffer name as first argument")
    return interp.buffer(name.value)


def check_bounds(call: E.Call, buf, idx: np.ndarray, error: type) -> None:
    if np.any(idx < 0) or np.any(idx >= buf.size):
        raise error(
            f"{call.name} out of bounds on {buf.name!r}:"
            f" [{idx.min()}, {idx.max()}] vs size {buf.size}"
        )


def _tile_address(isa: TileISA, interp, call: E.Call, env, check_shape):
    buf = named_buffer(interp, call, isa.error)
    args, eval_int = call.args, interp.eval_int
    base, stride = eval_int(args[1], env), eval_int(args[2], env)
    rows, cols = eval_int(args[3], env), eval_int(args[4], env)
    if check_shape:
        isa.check_tile(rows, cols, buf.dtype.bytes_per_lane())
    idx = tile_index(base, stride, rows, cols)
    check_bounds(call, buf, idx, isa.error)
    return buf, idx


def _interp_fill(isa: TileISA, interp, call: E.Call, env):
    rows = interp.eval_int(call.args[0], env)
    cols = interp.eval_int(call.args[1], env)
    isa.check_tile(rows, cols, np.dtype(isa.acc).itemsize)
    value = interp.eval_expr(call.args[2], env) if len(call.args) > 2 else None
    return isa.fill(None, rows, cols, value)


def _interp_load(isa: TileISA, interp, call: E.Call, env):
    buf, idx = _tile_address(isa, interp, call, env, check_shape=True)
    interp.counters.add_load(
        memory_level(buf), idx.size * buf.dtype.bytes_per_lane()
    )
    return isa.loaded(buf.gather(idx))


def _interp_mac(isa: TileISA, interp, call: E.Call, env):
    # spelled out, like _tile_address: a generator per argument list is
    # measurable on interp_ms_geomean (hundreds of MACs and loads a run)
    args, tile, dim = call.args, interp.eval_vector, interp.eval_int
    c, a, b = tile(args[0], env), tile(args[1], env), tile(args[2], env)
    m, n, k = dim(args[3], env), dim(args[4], env), dim(args[5], env)
    out = isa.mac(None, c, a, b, m, n, k)
    counters = interp.counters
    setattr(counters, isa.counter, getattr(counters, isa.counter) + m * n * k)
    return out


def _interp_store(isa: TileISA, interp, call: E.Call, env):
    buf, idx = _tile_address(isa, interp, call, env, check_shape=False)
    tile = interp.eval_vector(call.args[5], env)
    # scatter rounds into a bfloat16 buffer, as TileISA.store does
    buf.scatter(idx, np.asarray(tile, dtype=buf.data.dtype))
    interp.counters.add_store(
        memory_level(buf), idx.size * buf.dtype.bytes_per_lane()
    )
    return isa.acc(0)


def _interp_to_mem(interp, call: E.Call, env):
    return interp.eval_expr(call.args[0], env)
