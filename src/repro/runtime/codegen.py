"""The compiled NumPy backend: lowered IR -> Python source -> kernel.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` is the
project's *instrumented* path — it counts every FLOP and byte for the
roofline model, at the price of a dict lookup, an env copy, and a
bounds check per IR node visit.  This module is the *fast* path: it
walks the lowered statement once at compile time and emits plain Python
source in which

* serial/unrolled loops become native ``for`` loops; a ``gpu_block``
  or ``parallel`` nest becomes *one* array pass with a leading lane
  axis when its stores are provably disjoint (see ``_emit_lanes``),
  and a native loop otherwise,
* vector expressions become vectorized NumPy — a stride-1 ramp load
  turns into a slice ``data[base:base+n]``, a broadcast into
  ``np.full``, a constant-stride ramp into a precomputed ``np.arange``
  offset table,
* tensor intrinsics (``tile_matmul``, ``wmma.mma.sync``, the shuffle
  constructors, ...) call the one value-level core each has in
  :data:`repro.targets.isa.REGISTRY` — the function the interpreter's
  driver for that intrinsic ends in, and
* a statement holding anything the emitter does not recognize runs
  on the interpreter whole (:func:`compile_stmt`'s fallback kernel),
  so the compiled backend is never *less* capable, only faster.

Each emitted operation mirrors the interpreter's NumPy semantics
operation-for-operation (same dtypes, same rounding, same cast rules),
so the two backends produce identical outputs; the parity test suite
asserts this for every application.  What the compiled path deliberately
drops is instrumentation: no counters, no footprint masks, no bounds
checks.  Runs that request :class:`~repro.runtime.counters.Counters`
are routed to the interpreter by the executor.

Kernels are memoized in :mod:`.kernel_cache`, keyed on a structural
fingerprint of the lowered statement.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import ExitStack, contextmanager
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..ir import expr as E
from ..ir import stmt as S
from ..ir.stmt import ForKind
from ..ir.types import TypeCode
from ..ir.visitor import IRVisitor
from ..ir.analysis import contains
from ..ir.printer import print_expr
from ..hardboiled import intrinsics as _shuffles
from ..targets import amx as _amx, dp4a as _dp4a, wmma as _wmma  # noqa: F401
from ..targets.bfloat16 import round_to_bfloat16
from ..targets.isa import (
    REGISTRY, PerIteration, _tiles, role_of, tile_bases,
    tile_gather, tile_scatter, wrapping_sum,
)
from .buffer import Buffer, StackedBuffer
from .interpreter import (
    Interpreter, as_vector, broadcast_value, ramp_value, reduce_groups,
)


class CodegenError(RuntimeError):
    """Raised when a statement cannot be compiled (emitter falls back)."""


class _PerTile(CodegenError):
    """Lanes under the batch would gather a request tile by index; the
    batch-only loops stack or view it (B=32, 2-core x86: conv2d 8.7 ms,
    12.5 on lanes; downsample 14.3, 18.2): the nest keeps them, whole."""


# -- runtime helpers injected into every kernel's globals ----------------------
#
# The vector-semantics cores (ramp_value, broadcast_value, as_vector,
# reduce_groups) are the *same objects* the interpreter evaluates with —
# parity between the backends holds by construction, not by keeping two
# copies in sync.  The helpers below mirror the remaining interpreter
# code paths (casts, stores, condition collapsing).


def _bf16(value):
    """Mirror of the interpreter's bfloat16 cast/store rounding.  Always
    a fresh array: ``value`` may be a live view of a buffer."""
    value = np.asarray(value, dtype=np.float32)
    rounded = round_to_bfloat16(value)
    return rounded.copy() if rounded is value else rounded


def _ident(value):
    return value


def _store_wrap(buf: Buffer):
    """Store-value transform for a buffer whose dtype is only known at
    run time (pipeline inputs/outputs)."""
    if buf.dtype.code is TypeCode.BFLOAT:
        return _bf16
    return _ident


def _cond(c):
    """Mirror of ``Interpreter._exec_IfThenElse`` condition collapsing."""
    if isinstance(c, np.ndarray):
        return bool(c.all())
    return bool(c)


def _idx(x):
    return np.asarray(x, dtype=np.int64)


# -- arena plumbing ------------------------------------------------------------
#
# Kernels receive an optional BufferArena (see repro.runtime.plan): the
# steady-state serving path passes one so Allocate storage is pooled and
# derived operands (tile index grids, weight shuffle matrices) are
# cached across calls.  With arena=None — a plain CompiledPipeline.run —
# every helper below degrades to the exact uncached behavior, and the
# cached variants are bit-identical by construction (same functions,
# same inputs), so both modes produce the same outputs.


def _take(arena, name, dtype, extents, memory_type, batch=None):
    """Allocate scope entry: a fresh zeroed buffer, pooled when possible
    — with ``batch`` (the live leading axis' rows), a ``[batch, size]``
    one."""
    if arena is not None:
        return arena.take(name, dtype, extents, memory_type, batch)
    if batch is not None:
        return StackedBuffer(
            name, dtype, extents, memory_type=memory_type, batch=batch
        )
    return Buffer(
        name, dtype, extents, memory_type=memory_type, is_external=False
    )


def _give(arena, buf):
    """Allocate scope exit: recycle the buffer into the arena's pool."""
    if arena is not None:
        arena.give(buf)


def _cast_f(value, np_dtype):
    """Mirror of ``Interpreter._eval_Cast`` for float targets."""
    if isinstance(value, np.ndarray):
        return value.astype(np_dtype)
    return np_dtype.type(value)


def _cast_i(value, np_dtype):
    """Mirror of ``Interpreter._eval_Cast`` for int/uint/bool targets."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return np.trunc(value).astype(np_dtype)
        return value.astype(np_dtype)
    return int(value)


# -- batch-axis helpers --------------------------------------------------------
#
# A batched kernel (see compile_batched_stmt) executes a whole shape
# bucket of B requests in one call.  Buffers marked *stacked* hold
# ``[B, size]`` data and every access gains a leading batch axis; the
# rest of the statement — weights, shuffle-operand construction, tile
# index grids, loop bounds — is emitted exactly as the scalar emitter
# would, so those values are shared across the batch *by construction*.
# Each helper below is the batched twin of a vector-semantics core and
# is bit-identical per batch row (same dtypes, same rounding); the
# differential parity suite in tests/test_batched.py asserts this for
# every app.
#
# Values at run time are either *shared* (scalar, or ``[lanes]``) or
# *batched* (``[B]``, ``[B·N]`` in a lane pass, for a batched scalar;
# ``[B, lanes]`` for a batched vector).  A ``[B]`` batched scalar and a
# ``[lanes]`` vector are both 1-D and cannot be told apart at run time,
# so the emitter decides statically (``_Emitter.batched``) which twin to
# call.  (Tensor intrinsics need none: they read the axis off operands.)


def _vec_b(x):
    """Batched ``as_vector``: a ``[B]`` batched scalar as a ``[B, 1]``
    column."""
    return np.asarray(x)[:, None]


def _bcast_b(value, count, np_dtype):
    """Batched ``broadcast_value``: per-row scalar fill / vector tile."""
    value = np.asarray(value)
    if value.ndim == 1:
        col = value.astype(np_dtype, copy=False)[:, None]
        return np.broadcast_to(col, (value.shape[0], count))
    return np.tile(value, (1, count))


def _vred_b(value, result_lanes):
    """Batched ``reduce_groups``: row-wise grouped sums.

    The input must be made C-contiguous first: a stacked gather
    (``data[:, idx]``) comes back in transposed layout, and numpy's
    strided reduce loop sums in a different order than the contiguous
    pairwise loop the scalar kernel's ``reduce_groups`` uses — a
    last-ULP divergence the batch-parity suite catches.
    """
    groups = np.ascontiguousarray(value)
    groups = groups.reshape(groups.shape[0], result_lanes, -1)
    return groups.sum(axis=2, dtype=groups.dtype)


def _cat_b(parts):
    """Batched concatenate: shared parts broadcast up to the batch."""
    arrays = [np.asarray(p) for p in parts]
    batch = max(a.shape[0] for a in arrays if a.ndim == 2)
    arrays = [
        a if a.ndim == 2 else np.broadcast_to(a, (batch,) + a.shape)
        for a in arrays
    ]
    return np.concatenate(arrays, axis=1)


def _whole(stack, counts):
    """A window stack as one ``[R, rows, cols]`` array (a ``PerIteration``
    raises at the first window that leaves its buffer)."""
    if isinstance(stack, PerIteration):
        stack = np.stack([stack[ix] for ix in np.ndindex(*counts)])
    return stack.reshape((-1,) + stack.shape[-2:])


# -- intrinsics ----------------------------------------------------------------
#
# The interpreter dispatches intrinsic Calls through drivers that
# receive (interp, call, env) and re-walk the argument expressions.  The
# compiled backend evaluates the arguments itself (buffer-name StringImm
# arguments become Buffer objects) and calls the value-level core that
# ``repro.targets.isa.REGISTRY`` holds for the name — the *same*
# function the interpreter's driver ends in — with the kernel's arena
# first (None outside a plan).

#: unary math intrinsics emitted as direct NumPy calls
MATH_INTRINSICS = {
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "abs": "np.abs",
    "floor": "np.floor",
    "sin": "np.sin",
    "cos": "np.cos",
}


def _is_pure(name: str) -> bool:
    """Is intrinsic ``name`` known to be pure (loads of frozen data
    count as pure)?  Everything else is assumed to mutate a buffer,
    which disables the zero-copy slice-view optimization inside the
    same statement."""
    entry = REGISTRY.get(name)
    return name in MATH_INTRINSICS if entry is None else entry.pure


def _expr_nodes(e: E.Expr):
    """Yield every node of an expression tree."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def _has_impure_call(e: E.Expr) -> bool:
    return any(
        isinstance(n, E.Call) and not _is_pure(n.name) for n in _expr_nodes(e)
    )


#: the ``macs`` reason of an input :meth:`TileISA.widen` feeds the MAC
WIDENED = "widened once per call"


def _direct_load(isa, a: E.Expr) -> bool:
    """Is MAC operand ``a`` one of ``isa``'s tile loads of a named buffer?"""
    return (
        isinstance(a, E.Call)
        and a.name in isa.load_names
        and isinstance(a.args[0], E.StringImm)
    )


def _settled(isa, mac: E.Call) -> Optional[tuple]:
    """A MAC's ``(m, n, k)`` when constant and legal for ``isa``."""
    dims = tuple(d.value if isinstance(d, E.IntImm) else None for d in mac.args[3:6])
    return dims if dims in isa.mac_shapes else None


def _window(e: E.Expr) -> Optional[Callable]:
    """The matrix function of a coefficient-window shuffle call (its
    core is ``partial(window_shuffle, build)``), else None."""
    core = getattr(REGISTRY.get(getattr(e, "name", None)), "core", None)
    if getattr(core, "func", None) is _shuffles.window_shuffle:
        return core.args[0]
    return None


def _fill(a: S.Allocate) -> Optional[E.Expr]:
    """The value that fills scratch ``a`` whole as its first statement,
    else None."""
    head = a.body.stmts[0] if isinstance(a.body, S.Block) else None
    idx = getattr(head, "index", None)
    if (
        isinstance(head, S.Store)
        and head.name == a.name
        and all(isinstance(e, E.IntImm) for e in a.extents)
        and isinstance(idx, E.Ramp)
        and idx.count == math.prod(e.value for e in a.extents)
        and (idx.base, idx.stride) == (E.IntImm(0), E.IntImm(1))
    ):
        return head.value
    return None


def _tile_geometry(idx: E.Expr) -> Optional[tuple]:
    """``(base, stride, rows, cols)`` of a dense ramp index (one row) or
    a two-level one, ``ramp(ramp(base, 1, cols), x(stride), rows)``,
    with scalar ``base`` and ``stride``; else None."""
    stride, rows = E.IntImm(0), 1
    if isinstance(idx, E.Ramp) and isinstance(idx.stride, E.Broadcast):
        idx, stride, rows = idx.base, idx.stride.value, idx.count
    if (
        isinstance(idx, E.Ramp)
        and idx.base.type.lanes == stride.type.lanes == 1
        and isinstance(idx.stride, E.IntImm)
        and idx.stride.value == 1
    ):
        return idx.base, stride, rows, idx.count
    return None


def _statements(stmt: S.Stmt):
    """Every statement of ``stmt``, itself first."""
    stack = [stmt]
    while stack:
        stmt = stack.pop()
        yield stmt
        stack.extend(c for c in stmt.children() if isinstance(c, S.Stmt))


#: a reduce loop's op -> its row's name and the op as the loop emits it
_FOLDS = {
    E.Max: ("max", "np.maximum({}, {})"),
    E.Min: ("min", "np.minimum({}, {})"),
    E.Add: ("+", "({} + {})"),
}


def _invariant(e: E.Expr, names, bound: Set[str]) -> None:
    """Raise unless ``e`` is known before a loop nest over ``names``
    runs: it reads no variable the nest's body binds (``bound``) but
    those, and no buffer."""
    if not bound.isdisjoint(e.free_vars - names):
        raise CodegenError("address reads a variable the body binds")
    if contains(e, lambda n: isinstance(n, (E.Load, E.Call))):
        raise CodegenError("address reads a buffer")


# -- the fact walk -------------------------------------------------------------
#
# Every decision the emitter takes from more than the node in hand —
# which buffers the statement writes, whether a lane nest is legal,
# which values vary along a leading axis, what a serial nest can hoist
# — is a read of one KernelFacts, made by one walk when the emitter is
# built.  Its rows are flat and in walk order, so the body of a For or
# a LetStmt is one span of every row, and a decision about one loop is
# a read of its slices.


class _Rows(NamedTuple):
    """The facts of one span of the walk, a tuple per kind, in walk
    order.  ``seq`` orders ``bound`` and ``sites`` entries together."""

    #: ``(seq, name, node)`` per For / LetStmt / Let
    bound: tuple
    #: ``(seq, buffer, scalar base, ((stride, count), ...) footprint or
    #: None — a Store whose vector index is not a ramp —, the
    #: ``(name, For | LetStmt)`` binders around it)`` per store site
    sites: tuple
    #: buffers read: loaded, or named by a call (a store's target aside)
    loaded: tuple
    #: Allocate nodes
    allocs: tuple
    #: tensor intrinsic calls
    calls: tuple
    #: buffers written: stored, allocated, or named by an impure call
    written: tuple
    #: ``(target, is_buffer, source expressions)`` per def-use edge: a
    #: let's value to its name, a store's value and index to its buffer
    edges: tuple


class KernelFacts(IRVisitor):
    """What the emitter reads off a statement: one walk, then read-only."""

    def __init__(self, stmt: S.Stmt) -> None:
        self._rows = _Rows(*([] for _ in _Rows._fields))
        #: enclosing ``(name, For | LetStmt)`` binders, while walking
        self._chain: List[tuple] = []
        #: id of a For / LetStmt -> its body's span of every row, and
        #: how many binders enclose that body
        self.spans: Dict[int, tuple] = {}
        self.visit(stmt)
        self.whole = _Rows(*map(tuple, self._rows))
        del self._rows, self._chain

    def rows(self, node=None) -> _Rows:
        """The facts of ``node``'s body, or of the whole statement."""
        if node is None:
            return self.whole
        start, end, _ = self.spans[id(node)]
        return _Rows(*(row[a:b] for row, a, b in zip(self.whole, start, end)))

    def varying(self, node, names=(), buffers=()) -> tuple:
        """The variables and buffers of ``node``'s body (or the whole
        statement) that vary along a leading axis: ``names`` (lane
        variables) and ``buffers`` (stacked externals) from the start,
        then, to a fixpoint, each let whose value and each allocation
        whose stored value or address reads one of them.  A serial
        loop's variable and an env value never vary."""
        rows = self.rows(node)
        names, buffers = set(names), set(buffers)
        allocated = {a.name for a in rows.allocs}
        changed = True
        while changed:
            changed = False
            for target, is_buffer, sources in rows.edges:
                into = buffers if is_buffer else names
                if target in into or is_buffer and target not in allocated:
                    continue
                if any(_varies(e, names, buffers) for e in sources):
                    into.add(target)
                    changed = True
        return frozenset(names), frozenset(buffers)

    # -- the walk -------------------------------------------------------------

    def visit(self, node):
        if isinstance(node, E.Expr):
            return self.scan(node)
        return super().visit(node)

    def _bind(self, name: str, node) -> None:
        rows = self._rows
        rows.bound.append((len(rows.bound) + len(rows.sites), name, node))

    def _site(self, name: str, base: E.Expr, axes) -> None:
        rows = self._rows
        rows.sites.append((
            len(rows.bound) + len(rows.sites), name, base, axes,
            tuple(self._chain),
        ))

    def _body(self, node, body: S.Stmt) -> None:
        self._chain.append((node.name, node))
        start = tuple(map(len, self._rows))
        self.visit(body)
        end = tuple(map(len, self._rows))
        self.spans[id(node)] = (start, end, len(self._chain))
        self._chain.pop()

    def visit_For(self, s: S.For) -> None:
        self._bind(s.name, s)
        self.visit(s.min_expr)
        self.visit(s.extent)
        self._body(s, s.body)

    def visit_LetStmt(self, s: S.LetStmt) -> None:
        self._bind(s.name, s)
        self._rows.edges.append((s.name, False, (s.value,)))
        self.visit(s.value)
        self._body(s, s.body)

    def visit_Store(self, s: S.Store) -> None:
        rows = self._rows
        rows.written.append(s.name)
        rows.edges.append((s.name, True, (s.value, s.index)))
        index, axes = s.index, []
        while axes is not None and index.type.lanes > 1:
            if isinstance(index, E.Ramp):
                stride = index.stride
                if isinstance(stride, E.Broadcast):
                    stride = stride.value
                axes.append((stride, E.IntImm(index.count)))
                index = index.base
            else:
                axes = None
        self._site(s.name, index, axes if axes is None else tuple(axes))
        self.generic_visit(s)

    def visit_Allocate(self, a: S.Allocate) -> None:
        self._rows.written.append(a.name)
        self._rows.allocs.append(a)
        self.generic_visit(a)

    def scan(self, e: E.Expr) -> None:
        """An expression tree, as one flat loop: per-node dispatch
        would dominate."""
        rows = self._rows
        for node in _expr_nodes(e):
            if isinstance(node, E.Load):
                rows.loaded.append(node.name)
            elif isinstance(node, E.Let):
                self._bind(node.name, node)
                rows.edges.append((node.name, False, (node.value,)))
            elif isinstance(node, E.Call):
                names = [a.value for a in node.args if isinstance(a, E.StringImm)]
                if not _is_pure(node.name):
                    rows.written.extend(names)
                entry = REGISTRY.get(node.name)
                if entry is None:
                    rows.loaded.extend(names)
                    continue
                rows.calls.append(node)
                if entry.role == "store" and isinstance(node.args[0], E.StringImm):
                    base, stride, height, width = node.args[1:5]
                    self._site(
                        names[0], base, ((stride, height), (E.IntImm(1), width))
                    )
                    rows.edges.append((names[0], True, node.args[1:]))
                    names = names[1:]
                rows.loaded.extend(names)


def _varies(e: E.Expr, names, buffers) -> bool:
    """Does ``e`` read a variable in ``names`` or a buffer in
    ``buffers``?  A store intrinsic returns a shared scalar zero,
    whatever it reads."""
    if isinstance(e, E.Call) and role_of(e.name) == "store":
        return False
    return not (names.isdisjoint(e.free_vars) and buffers.isdisjoint(e.buffers))


# -- lane legality -------------------------------------------------------------

#: loop kinds whose iterations the schedule declares independent
_LANE_KINDS = (ForKind.GPU_BLOCK, ForKind.PARALLEL)

#: lanes per array pass — bounds every lane-private ``[N, size]`` slab
#: and gather temporary, however large the block grid is
_LANES = 64
#: rows (``B × lanes``, one lane at least) per pass under the batch: 512
#: held +10% peak RSS on the sweep, 128 the same time within noise
_ROWS = 128
#: elements of an operand stack per stacked-product pass (one iteration
#: at least): below 128 KiB of float32, so no pass maps memory of its own
_STACK = 32767


def lanes_disjoint(terms) -> bool:
    """Is ``sum(coef * v)`` injective over ``0 <= v < extent``?

    ``terms`` holds one ``(coef, extent)`` per lane dimension, inner
    serial loop and footprint axis of a store site.  Mixed-radix
    sufficient condition: taken by ascending ``|coef|``, each
    coefficient exceeds the largest sum the smaller terms can reach.
    Distinct lanes then never write the same element.
    """
    reach = 0
    for coef, extent in sorted((abs(c), n) for c, n in terms if n > 1):
        if coef <= reach:
            return False
        reach += coef * (extent - 1)
    return True


def _affine(e: E.Expr, scale, names, coefs: Dict[str, object]) -> None:
    """Add the coefficients of ``scale * e`` over ``names`` to ``coefs``.

    Sub-expressions free of every name are offsets all lanes share and
    drop out; anything else must be affine.  A coefficient is an int,
    or an expression free of every name where a factor is symbolic.
    """
    if names.isdisjoint(e.free_vars):
        return
    if isinstance(e, E.Variable):
        coefs[e.name] = coefs.get(e.name, 0) + scale
    elif isinstance(e, (E.Add, E.Sub)):
        _affine(e.a, scale, names, coefs)
        _affine(e.b, scale if isinstance(e, E.Add) else -scale, names, coefs)
    elif isinstance(e, E.Mul) and names.isdisjoint(e.a.free_vars):
        _affine(e.b, scale * _factor(e.a), names, coefs)
    elif isinstance(e, E.Mul) and names.isdisjoint(e.b.free_vars):
        _affine(e.a, scale * _factor(e.b), names, coefs)
    else:
        raise CodegenError("address is not affine")


def _factor(e: E.Expr):
    return e.value if isinstance(e, E.IntImm) else e


def _constant_coefs(e: E.Expr, names) -> Dict[str, int]:
    """:func:`_affine`'s coefficients of ``e`` over ``names``, each
    required constant."""
    coefs: Dict[str, object] = {}
    _affine(e, 1, names, coefs)
    if not all(isinstance(c, int) for c in coefs.values()):
        raise CodegenError("store address is not affine in constants")
    return coefs


def _prove_lanes(dims: Dict[str, int], facts, loop: S.For) -> Dict[str, tuple]:
    """Prove the body of lane nest ``loop`` may run once with ``dims``
    (name -> extent) as lanes.

    Iterations of the loop nest can only interact through buffers, so
    it is enough that every buffer the body stores is either allocated
    inside it (a lane then owns a private copy, or all lanes compute
    one identical copy) or is never read in the body and written by a
    single store site whose footprints — over every inner serial
    iteration — are disjoint across lanes: its final contents cannot
    depend on the order the lanes ran in.  Returns that site's
    :func:`lanes_disjoint` terms per such buffer; raises
    :class:`CodegenError` naming the obstacle otherwise.
    """
    rows = facts.rows(loop)
    obstacles = [
        (seq, f"body rebinds lane variable {name!r}")
        for seq, name, node in rows.bound
        if name in dims and not isinstance(node, E.Let)
    ] + [
        (seq, f"store index into {name!r} is not a ramp")
        for seq, name, _, axes, _ in rows.sites
        if axes is None
    ]
    if obstacles:
        raise CodegenError(min(obstacles)[1])
    allocated, loaded = {a.name for a in rows.allocs}, set(rows.loaded)
    #: an expression-level let has no constant range
    opaque = dict.fromkeys(n for _, n, node in rows.bound if isinstance(node, E.Let))
    sites: Dict[str, list] = {}
    for site in rows.sites:
        sites.setdefault(site[1], []).append(site)
    proved: Dict[str, tuple] = {}
    for name, found in sites.items():
        if name in allocated:
            continue
        if name in loaded:
            raise CodegenError(
                f"body loads {name!r}, which another lane stores"
            )
        if len(found) > 1:
            raise CodegenError(f"{len(found)} store sites into {name!r}")
        _, _, base, axes, chain = found[0]
        # every variable in scope at the site the address may be affine
        # in: None where it has no constant range
        extents: Dict[str, Optional[int]] = dict(dims)
        for var, node in chain[facts.spans[id(loop)][2]:]:
            extent = None
            if isinstance(node, S.For) and extents.keys().isdisjoint(
                node.min_expr.free_vars
            ):
                if node.kind is ForKind.GPU_LANE:
                    extent = 1
                elif isinstance(node.extent, E.IntImm):
                    extent = node.extent.value
            extents[var] = extent
        extents.update(opaque)
        if not all(
            isinstance(stride, E.IntImm) and isinstance(count, E.IntImm)
            for stride, count in axes
        ):
            raise CodegenError(f"symbolic store stride into {name!r}")
        if contains(
            base,
            lambda n: isinstance(n, E.Call)
            or isinstance(n, E.Load)
            and (n.name in allocated or n.name in sites),
        ):
            raise CodegenError(f"data-dependent store into {name!r}")
        coefs = _constant_coefs(base, extents.keys())
        terms = [(stride.value, count.value) for stride, count in axes]
        for var, coef in coefs.items():
            if var in dims or not coef:
                continue
            if extents[var] is None:
                raise CodegenError(
                    f"store address into {name!r} follows {var!r},"
                    " which has no constant range"
                )
            terms.append((coef, extents[var]))
        terms.extend((coefs.get(var, 0), n) for var, n in dims.items())
        if not lanes_disjoint(terms):
            raise CodegenError(f"lane store footprints into {name!r} overlap")
        proved[name] = tuple(terms)
    return proved


_NOT_AFFINE = "per-lane bases not affine in the lane"

#: an emitted integer literal
_INT = re.compile(r"-?\d+")

#: integer operators a kernel applies to two literals as Python does,
#: so the emitter applies them itself (not by zero: that raises at run)
_LITERAL_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "//": operator.floordiv, "%": operator.mod,
}

#: the nodes of a value that depends on loop and let variables alone:
#: within one suite, one temp holds it (:meth:`_Emitter._once`)
_INDEX_NODES = (
    E.IntImm, E.Variable, E.Add, E.Sub, E.Mul, E.Div, E.Mod, E.Min, E.Max,
)


def _constant(loop: S.For) -> bool:
    return isinstance(loop.min_expr, E.IntImm) and isinstance(
        loop.extent, E.IntImm
    )


def _row(loop: S.For, status: str) -> tuple:
    """``loop``'s :attr:`CompiledKernel.loops` row."""
    extent = loop.extent
    extent = extent.value if isinstance(extent, E.IntImm) else print_expr(extent)
    return (loop.name, extent, status)


# -- the emitter ---------------------------------------------------------------


class _Emitter:
    """Walks a lowered statement and produces Python kernel source."""

    def __init__(self, stmt: S.Stmt) -> None:
        self.lines: List[str] = []
        self.indent = 1
        self.counter = 0
        #: IR loop/let variable name -> python local
        self.scope: Dict[str, str] = {}
        #: env-sourced variable name -> python local (bound in preamble)
        self.env_locals: Dict[str, str] = {}
        #: buffer name -> python local for the flat data array
        self.data_locals: Dict[str, str] = {}
        #: buffer name -> python local for the Buffer object
        self.obj_locals: Dict[str, str] = {}
        #: external buffer name -> python local for its store transform
        self.wrap_locals: Dict[str, str] = {}
        #: buffer introduced by an enclosing Allocate (not preamble-bound)
        #: -> its element dtype, for bf16 store rounding
        self.allocated: Dict[str, object] = {}
        #: buffer names that must be bound from ``buffers`` in the preamble
        self.ext_data: List[str] = []
        self.ext_obj: List[str] = []
        #: injected globals (constants, helper functions)
        self.globals: Dict[str, object] = {}
        #: inside a statement that may mutate buffers mid-expression
        self.copy_views = False
        #: python local holding the leading axis' length while one is live:
        #: lanes ``N``, the batch ``_B``, or ``B × N`` (row ``b·N + lane``)
        self.lead: Optional[str] = None
        #: buffers holding ``[rows, size]`` data: every access gains
        #: the leading axis (``data[:, index]``); the variables that
        #: vary along it (:meth:`KernelFacts.varying`)
        self.stacked: frozenset = frozenset()
        self.varying: frozenset = frozenset()
        #: inside a lane loop: shared buffer -> lanes_disjoint terms of
        #: its per-lane store.  None elsewhere — the batch alone
        #: addresses nothing per row
        self.proved: Optional[Dict[str, tuple]] = None
        #: under the batch, in a lane loop: the ``(variables, buffers)``
        #: varying along the lanes, and the batch (lane-private ones both);
        #: ``requests``: stacked buffers of ``[B, size]``, a request a row
        self.merged: Optional[tuple] = None
        self.requests: frozenset = frozenset()
        #: (variable, extent, status) per data-parallel loop ("lanes" |
        #: why not) and per serial block loop (what was hoisted | why not)
        self.loops: List[tuple] = []
        #: (intrinsic, A, B) per MAC call site: ``"narrow"`` when the
        #: operand reaches the core in its buffer's narrow elements,
        #: else why it is widened first (see ``_operand_width``)
        self.macs: List[tuple] = []
        #: shared, never changed (a rolled-back lane attempt keeps it)
        self.facts = KernelFacts(stmt)
        self.written = frozenset(self.facts.whole.written)
        #: (isa, buffer) -> (source, exact, preamble line) (``_widen``)
        self.widened: Dict[tuple, tuple] = {}
        #: while a hoisted loop nest is emitted: id of a MAC operand node
        #: -> its read of a preheader stack; id of a shuffle scratch
        #: Allocate -> the line binding that read in its place
        self.hoisted: Dict[int, str] = {}
        #: in a lane loop: lane variable -> its value per lane of the grid
        self.lane_index: Dict[str, np.ndarray] = {}
        #: emitted index arithmetic -> (its temp, the indent of the suite
        #: binding it), while that suite is open (:meth:`_once`)
        self.temps: Dict[str, Tuple[str, int]] = {}

    def batched(self, e: E.Expr) -> bool:
        """Does ``e`` vary along the live leading axis (if any)?"""
        return self.lead is not None and _varies(e, self.varying, self.stacked)

    @contextmanager
    def bind(self, name: str, local: str):
        """Scope IR variable ``name`` to python ``local`` for a suite."""
        saved = self.scope.get(name)
        self.scope[name] = local
        try:
            yield
        finally:
            if saved is None:
                self.scope.pop(name, None)
            else:
                self.scope[name] = saved

    # -- small utilities ----------------------------------------------------

    def fresh(self, prefix: str = "t") -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"

    def const(self, value) -> str:
        name = f"_C{len(self.globals)}"
        self.globals[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def block(self):
        """Context manager for an indented suite; emits ``pass`` if empty."""
        emitter = self

        class _Block:
            def __enter__(self):
                self.mark = len(emitter.lines)
                emitter.indent += 1

            def __exit__(self, *exc):
                if len(emitter.lines) == self.mark:
                    emitter.line("pass")
                emitter.indent -= 1
                temps = emitter.temps
                for text in [t for t, (_, at) in temps.items()
                             if at > emitter.indent]:
                    del temps[text]

        return _Block()

    # -- buffer locals ------------------------------------------------------

    def buf_data(self, name: str) -> str:
        local = self.data_locals.get(name)
        if local is None:
            local = self.fresh("d")
            self.data_locals[name] = local
            if name not in self.allocated:
                self.ext_data.append(name)
        return local

    def buf_obj(self, name: str) -> str:
        local = self.obj_locals.get(name)
        if local is None:
            local = self.fresh("b")
            self.obj_locals[name] = local
            if name not in self.allocated:
                self.ext_obj.append(name)
        return local

    def store_wrap(self, name: str) -> str:
        """The store-value transform local for an *external* buffer."""
        local = self.wrap_locals.get(name)
        if local is None:
            self.buf_obj(name)
            local = self.fresh("w")
            self.wrap_locals[name] = local
        return local

    # -- expressions --------------------------------------------------------

    def emit(self, e: E.Expr) -> str:
        method = getattr(self, f"_emit_{type(e).__name__}", None)
        if method is None:
            raise CodegenError(f"cannot compile {type(e).__name__}")
        if self.merged is not None:
            self._meets(e)
        return method(e)

    def _axes(self, e: E.Expr) -> tuple:
        """Does ``e`` vary along the lanes, and the batch, of ``B × N``?"""
        if self.merged is None:
            return False, False
        return tuple(_varies(e, *roots) for roots in self.merged)

    def _meets(self, e: E.Expr) -> None:
        """Refuse a value with ``B`` rows, or ``N`` rows meeting ``B·N``
        — save a tile load's per-lane base into a request buffer, which
        the core reads as ``[B, N, ...]``."""
        lanes, batch = self._axes(e)
        if batch and not lanes:
            raise CodegenError("a value varies along the batch only")
        if not batch or isinstance(e, (E.Let, E.Load)):
            return
        skip = 2 if isinstance(e, E.Call) and role_of(e.name) == "load" else 0
        if any(self._axes(x) == (True, False) for x in e.children()[skip:]):
            raise CodegenError("a lane-only value meets a batch-varying value")

    def emit_vector(self, e: E.Expr) -> str:
        """Emit ``e`` guaranteed to evaluate to a 1-D array."""
        if e.type.lanes > 1:
            return self.emit(e)
        if self.batched(e):
            return f"_vec_b({self.emit(e)})"
        return f"_vec({self.emit(e)}, 1)"

    def _emit_IntImm(self, e: E.IntImm) -> str:
        return repr(e.value)

    def _emit_FloatImm(self, e: E.FloatImm) -> str:
        if math.isfinite(e.value):
            return repr(e.value)
        return self.const(e.value)

    def _emit_Variable(self, e: E.Variable) -> str:
        local = self.scope.get(e.name)
        if local is not None:
            return local
        local = self.env_locals.get(e.name)
        if local is None:
            local = self.fresh("v")
            self.env_locals[e.name] = local
        return local

    def _emit_Cast(self, e: E.Cast) -> str:
        value = self.emit(e.value)
        target = e.dtype
        if target.code is TypeCode.BFLOAT:
            return f"_bf16({value})"
        np_dtype = self.const(target.to_numpy())
        if target.is_float():
            return f"_cast_f({value}, {np_dtype})"
        return f"_cast_i({value}, {np_dtype})"

    def _operands(self, *operands: E.Expr) -> List[str]:
        """The emitted operands of one pointwise node.

        The IR lets a scalar operand broadcast against a vector one.  A
        scalar that varies along the leading axis is an ``[N]`` array,
        which numpy would line up with the vector's lanes instead — so
        it is emitted as an ``[N, 1]`` column.
        """
        wide = any(x.type.lanes > 1 for x in operands)
        return [
            f"_vec_b({self.emit(x)})"
            if wide and x.type.lanes == 1 and self.batched(x)
            else self.emit(x)
            for x in operands
        ]

    def _binary(self, e, op: str) -> str:
        a, b = self._operands(e.a, e.b)
        fold = _LITERAL_OPS.get(op)
        if fold and _INT.fullmatch(a) and _INT.fullmatch(b) and (
            op in "+-*" or int(b)
        ):
            return repr(fold(int(a), int(b)))
        return f"({a} {op} {b})"

    def _pointwise(self, fn: str, *operands: E.Expr) -> str:
        return f"{fn}({', '.join(self._operands(*operands))})"

    def _emit_Add(self, e):
        return self._binary(e, "+")

    def _emit_Sub(self, e):
        return self._binary(e, "-")

    def _emit_Mul(self, e):
        return self._binary(e, "*")

    def _emit_Div(self, e):
        if e.type.is_float():
            return self._binary(e, "/")
        return self._binary(e, "//")

    def _emit_Mod(self, e):
        if e.type.is_float():
            return self._pointwise("np.fmod", e.a, e.b)
        return self._binary(e, "%")

    def _emit_Min(self, e):
        return self._pointwise("np.minimum", e.a, e.b)

    def _emit_Max(self, e):
        return self._pointwise("np.maximum", e.a, e.b)

    def _emit_EQ(self, e):
        return self._binary(e, "==")

    def _emit_NE(self, e):
        return self._binary(e, "!=")

    def _emit_LT(self, e):
        return self._binary(e, "<")

    def _emit_LE(self, e):
        return self._binary(e, "<=")

    def _emit_GT(self, e):
        return self._binary(e, ">")

    def _emit_GE(self, e):
        return self._binary(e, ">=")

    def _emit_And(self, e):
        return self._pointwise("np.logical_and", e.a, e.b)

    def _emit_Or(self, e):
        return self._pointwise("np.logical_or", e.a, e.b)

    def _emit_Not(self, e):
        return f"np.logical_not({self.emit(e.value)})"

    def _emit_Select(self, e: E.Select) -> str:
        return self._pointwise(
            "np.where", e.condition, e.true_value, e.false_value
        )

    def _emit_Ramp(self, e: E.Ramp) -> str:
        base_b = self.batched(e.base)
        if self.batched(e.stride):
            raise CodegenError("varying ramp stride")
        if e.base.type.lanes == 1 and e.stride.type.lanes == 1:
            base = self.emit(e.base)
            if base_b:  # per-lane bases: an [N, count] index block
                self._per_lane("ramp addressing", e.base)
                base = f"_vec_b({base})"
            if isinstance(e.stride, E.IntImm):
                steps = self.const(np.arange(e.count) * e.stride.value)
                return f"({base} + {steps})"
            steps = self.const(np.arange(e.count))
            return f"({base} + {steps} * {self.emit(e.stride)})"
        if base_b:
            raise CodegenError("varying base of a vector ramp")
        return f"_ramp({self.emit(e.base)}, {self.emit(e.stride)}, {e.count})"

    def _emit_Broadcast(self, e: E.Broadcast) -> str:
        if isinstance(e.value, (E.IntImm, E.FloatImm)):  # a constant
            return self.const(broadcast_value(
                e.value.value, e.count, e.type.element_of().to_numpy()
            ))
        fn = "_bcast_b" if self.batched(e.value) else "_bcast"
        np_dtype = self.const(e.type.element_of().to_numpy())
        return f"{fn}({self.emit(e.value)}, {e.count}, {np_dtype})"

    def _emit_VectorReduce(self, e: E.VectorReduce) -> str:
        fn = "_vred_b" if self.batched(e.value) else "_vred"
        return f"{fn}({self.emit_vector(e.value)}, {e.result_lanes})"

    def _emit_Shuffle(self, e: E.Shuffle) -> str:
        varying = self.batched(e)
        indices = self.const(np.asarray(e.indices, dtype=np.int64))
        if varying:
            indices = f"..., {indices}"
        parts = [self.emit_vector(v) for v in e.vectors]
        if len(parts) == 1:
            return f"{parts[0]}[{indices}]"
        if varying:
            return f"_cat_b(({', '.join(parts)},))[{indices}]"
        return f"np.concatenate(({', '.join(parts)},))[{indices}]"

    def _emit_Let(self, e: E.Let) -> str:
        value = self.emit(e.value)
        local = self.fresh("v")
        self.line(f"{local} = {value}")
        with self.bind(e.name, local):
            return self.emit(e.body)

    def _emit_Load(self, e: E.Load) -> str:
        data = self.buf_data(e.name)
        idx = e.index
        lead = ":, " if e.name in self.stacked else ""
        if self.batched(idx):
            if lead:
                raise CodegenError("varying index into a stacked buffer")
            self._per_lane("(data-dependent) load index", idx)
            # per-lane gather out of a shared buffer
            return f"{data}[_idx({self.emit(idx)})]"
        if idx.type.lanes == 1:
            code = f"{data}[{lead}{self.emit(idx)}]"
            if not lead:
                return code
        else:
            sliced = self._try_slice(idx)
            if sliced is None:
                block = self._two_level(idx)
                if block is not None:  # a fresh copy, as a gather is
                    return f"_gather(_arena, {data}, {block})"
                return f"{data}[{lead}_idx({self.emit(idx)})]"
            code = f"{data}[{lead}{sliced}]"
        # a view (slice, or a stacked buffer's column): copy it when
        # the statement may mutate buffers mid-expression
        if self.copy_views:
            code = f"np.array({code})"
        return code

    def _two_level(self, idx: E.Expr) -> Optional[str]:
        """``base, stride, rows, cols`` of a two-level dense ramp index
        (:func:`_tile_geometry`) for :func:`~repro.targets.isa.
        tile_gather` / :func:`~repro.targets.isa.tile_scatter`; else
        None."""
        geometry = _tile_geometry(idx)
        if geometry is None or not isinstance(idx.base, E.Ramp):
            return None
        base, stride, rows, cols = geometry
        return f"{self.emit(base)}, {self.emit(stride)}, {rows}, {cols}"

    def _try_slice(self, idx: E.Expr) -> Optional[str]:
        """A basic-slice spelling for a scalar-base, const-stride ramp.

        Returns the text between the brackets, or None.  The base is
        evaluated once (:meth:`_once`).
        """
        if not isinstance(idx, E.Ramp):
            return None
        if idx.base.type.lanes != 1:
            return None
        if not isinstance(idx.stride, E.IntImm) or idx.stride.value <= 0:
            return None
        stride = idx.stride.value
        stop = idx.count * stride - stride + 1
        step = "" if stride == 1 else f":{stride}"
        return f"{self._span(idx.base, stop)}{step}"

    def _once(self, e: E.Expr) -> str:
        """Scalar ``e`` as a literal or a local: one bound to a temp
        unless it is one already.  Index arithmetic (:data:`_INDEX_NODES`)
        has one temp per suite: a second use, there or in a suite it
        encloses, reads the first's."""
        value = self.emit(e)
        if isinstance(e, (E.IntImm, E.Variable)) or _INT.fullmatch(value):
            return value
        index = all(isinstance(n, _INDEX_NODES) for n in _expr_nodes(e))
        if index and value in self.temps:
            return self.temps[value][0]
        temp = self.fresh("i")
        self.line(f"{temp} = {value}")
        if index:
            self.temps[value] = (temp, self.indent)
        return temp

    def _span(self, start: E.Expr, length, sep: str = ":") -> str:
        """``start{sep}start + length`` (``length`` an int or emitted
        text), folded where both are literals."""
        lo = self._once(start)
        if _INT.fullmatch(lo) and isinstance(length, int):
            return f"{lo}{sep}{int(lo) + length}"
        return f"{lo}{sep}{lo} + {length}"

    def _emit_Call(
        self, e: E.Call, mac_operand: bool = False, source: str = ""
    ) -> str:
        math_fn = MATH_INTRINSICS.get(e.name)
        if math_fn is not None:
            return f"{math_fn}({self.emit(e.args[0])})"
        entry, step = REGISTRY.get(e.name), None
        if entry is None:  # the whole statement runs on the interpreter
            raise CodegenError(f"intrinsic {e.name!r} has no kernel core")
        if self.lead is not None:
            step = self._check_leading_axis(e, entry)
        slots, settled = {}, None
        if entry.role == "mac":
            widths = [self._operand_width(entry.isa, a) for a in e.args[1:3]]
            self.macs.append((e.name, *widths))
            slots = {
                i: w for i, w in enumerate(widths, 1) if w in ("narrow", WIDENED)
            }
            settled = _settled(entry.isa, e)
        args, exact = ["_arena"], ["False", "False"]
        for i, a in enumerate(e.args):
            if id(a) in self.hoisted:  # read from its preheader stack
                args.append(self.hoisted[id(a)])
            elif isinstance(a, E.StringImm):
                args.append(source or self.buf_obj(a.value))
            elif i in slots:
                widened = ""
                if slots[i] == WIDENED:  # exact[i - 1]: A's, B's flag
                    widened, exact[i - 1] = self._widen(entry.isa, a)
                args.append(self._emit_Call(a, True, widened))
            elif i == 1 and step is not None:  # bases[0] + step * lane
                args.append(f"({self.emit(a)}, {step})")
            else:
                args.append(self.emit(a))
        if settled:
            return self._settled_mac(entry.isa, settled, e, args, exact)
        if mac_operand:
            args.append("True")
        if exact != ["False", "False"]:
            args.extend(exact)
        return f"{self.const(entry.core)}({', '.join(args)})"

    def _widen(self, isa, load: E.Call) -> tuple:
        """The preamble's ``(source, exact)`` locals: ``load``'s input
        widened once per call for ``isa``'s MAC."""
        key = (isa.name, load.args[0].value)
        if key not in self.widened:
            source, exact = self.fresh("w"), self.fresh("e")
            call = f"{self.const(isa)}.widen({self.buf_obj(key[1])})"
            self.widened[key] = (source, exact, f"{source}, {exact} = {call}")
        return self.widened[key][:2]

    def _settled_mac(self, isa, dims, e: E.Call, args, exact) -> str:
        """``isa``'s exact core straight on shaped operands, for a MAC
        whose ``(m, n, k)`` is legal and constant (:func:`_settled`):
        checked here, once.  A hoisted operand's read of its preheader
        stack (:attr:`hoisted`) is shaped and exact already."""
        (m, n, k), g, isa_c, operands = dims, isa.group, self.const(isa), []
        for a, text, flag, (rows, cols) in zip(
            e.args[1:3], args[2:4], exact, ((m, k), (k // g, g * n))
        ):
            if id(a) not in self.hoisted:
                text = f"{isa_c}.shaped({text}, {rows}, {cols}, {flag})"
            operands.append(text)
        out = (
            f"{self.const(isa.mac_core)}(_tiles({args[1]}, {m}, {n}),"
            f" {', '.join(operands)})"
        )
        if self.batched(e):
            return f"{out}.reshape(-1, {m * n})"
        return f"{out}.ravel()"

    def _lane_step(self, base: E.Expr) -> Optional[int]:
        """``step`` when per-lane ``base`` is provably ``bases[0] + step *
        lane``: affine in lane variables whose grid values are affine in
        the lane."""
        try:
            coefs = _constant_coefs(base, self.varying)
            lanes = [c * self.lane_index[n] for n, c in coefs.items() if c]
            steps = np.diff(sum(lanes))
        except (CodegenError, KeyError, ValueError):  # not affine in lanes
            return None
        return int(steps[0]) if (steps == steps[0]).all() else None

    def _operand_width(self, isa, a: E.Expr) -> str:
        """``"narrow"`` when operand ``a`` of ``isa``'s MAC reaches the
        core in its buffer's narrow elements, :data:`WIDENED` when it
        is an input the kernel only reads, else why it arrives
        widened."""
        direct = _direct_load(isa, a)
        if direct and a.args[0].value not in self.written:
            return WIDENED
        if isa.narrow is None:
            return "bf16 is stored as float32"
        if not direct:
            return "not a direct load"
        dtype = self.allocated.get(a.args[0].value)
        if dtype is not None and dtype.to_numpy() != isa.narrow:
            return f"buffer is {dtype}"
        return "narrow"

    def _check_leading_axis(self, e: E.Call, entry) -> Optional[int]:
        """Is intrinsic ``e`` expressible under the live leading axis?

        Its core takes the axis on the operands the role lets vary — a
        stacked buffer, a tile value, a vector of per-lane bases (which
        gathers/scatters a shared buffer's ``[N, rows*cols]`` tile
        stack, see :func:`repro.targets.isa.tile_grid`) — so all that is
        decided here is legality.  Raises :class:`CodegenError` for
        what no core can express.  Returns the lane step of per-lane
        bases proved ``bases[0] + step * lane`` (``_lane_step``).
        """
        name = e.name
        arg_b = [
            (not isinstance(a, E.StringImm)) and self.batched(a)
            for a in e.args
        ]
        buf = e.args[0] if e.args else None
        buf_stacked = (
            isinstance(buf, E.StringImm) and buf.value in self.stacked
        )
        role = entry.role
        if role in ("load", "store"):
            store = role == "store"
            if any(arg_b[2:-1] if store else arg_b[2:]):
                raise CodegenError("varying tile geometry")
            if store:
                self._lands(buf.value, e.args[-1], arg_b[1])
            if arg_b[1]:
                if buf_stacked and buf.value not in self.requests:
                    raise CodegenError("varying base into a stacked buffer")
                self._per_lane("tile addressing", e.args[1])
                if store:
                    self._certify(buf.value, self.buf_obj(buf.value))
                step = self._lane_step(e.args[1])
                if step is None and buf.value in self.requests:
                    raise _PerTile(f"under the batch: {buf.value}: {_NOT_AFFINE}")
                return step
        elif role == "mac":
            if any(arg_b[3:]):
                raise CodegenError("batched matmul geometry")
        elif role == "fill":
            if any(arg_b[:2]):
                raise CodegenError("batched fill geometry")
        elif role == "elementwise":
            if any(arg_b[1:]):
                raise CodegenError("batched tile geometry")
        elif role == "shuffle":
            # shared-by-construction: a per-request (or per-lane) source
            # cannot feed a memoised shuffle-operand constructor
            if buf_stacked or any(arg_b):
                raise CodegenError(f"{name} over varying data cannot be batched")
        # what is left is ``to_mem``: the identity, whatever it is handed
        return None

    def _lands(self, name: str, value: E.Expr, per_lane: bool) -> None:
        """Refuse a store whose value has rows ``name`` lacks: batch- or
        (at one address) lane-varying into a shared buffer; lane-only into
        ``B·N`` stacked rows (a request's per-lane tiles take it)."""
        lanes, batch = self._axes(value)
        if name not in self.stacked:
            if batch or not per_lane and self.batched(value):
                raise CodegenError(f"batched store into shared buffer {name!r}")
        elif lanes and not batch and not per_lane:
            raise CodegenError("a lane-only value meets a batch-varying value")

    def _per_lane(self, what: str, address) -> None:
        """Gate ``address``, which varies along the leading axis, on
        that axis being a lane loop's: its proof has shown no lane
        stores what another loads.  The batch axis has no such proof,
        and a request that addresses by its own data stays with the
        looped per-request path."""
        if self.proved is None:
            raise CodegenError(f"batched {what}")
        if self._axes(address)[1]:
            raise CodegenError("a base that varies along the batch")

    def _certify(self, name: str, local: str) -> None:
        """Gate a per-lane address (past :meth:`_per_lane`) stored through
        ``local`` into shared or request buffer ``name`` on its proof.

        The certificate line is a bare constant — compiled away, but
        kept in the source for ``lint_kernels`` to re-check.
        """
        terms = self.proved.get(name)
        if terms is None:
            raise CodegenError(f"varying store address into shared {name!r}")
        self.line(repr(("lanes-disjoint", local, terms)))

    def _emit_StringImm(self, e: E.StringImm) -> str:
        raise CodegenError("string immediate outside an intrinsic call")

    # -- statements ---------------------------------------------------------

    def emit_stmt(self, stmt: S.Stmt) -> None:
        method = getattr(self, f"_exec_{type(stmt).__name__}", None)
        if method is None:
            raise CodegenError(f"cannot compile {type(stmt).__name__}")
        method(stmt)

    def _exec_Block(self, stmt: S.Block) -> None:
        for part in stmt.stmts:
            self.emit_stmt(part)

    def _exec_ProducerConsumer(self, stmt: S.ProducerConsumer) -> None:
        self.emit_stmt(stmt.body)

    def _exec_Evaluate(self, stmt: S.Evaluate) -> None:
        if not any(isinstance(n, E.Call) for n in _expr_nodes(stmt.value)):
            return  # pure expression, no effect
        self.copy_views = _has_impure_call(stmt.value)
        code = self.emit(stmt.value)
        self.copy_views = False
        self.line(code)

    def _exec_Store(self, stmt: S.Store) -> None:
        lead = ":, " if stmt.name in self.stacked else ""
        varying = self.batched(stmt.index)
        if varying and lead:
            raise CodegenError("varying index into a stacked buffer")
        self._lands(stmt.name, stmt.value, varying)
        self.copy_views = _has_impure_call(stmt.value) or _has_impure_call(
            stmt.index
        )
        data = self.buf_data(stmt.name)
        value = self.emit(stmt.value)
        if isinstance(stmt.value, E.Load) and stmt.value.name == stmt.name:
            # bare self-copy: avoid overlapping-view assignment hazards
            value = f"np.array({value})"
        if stmt.name in self.allocated:
            if self.allocated[stmt.name].code is TypeCode.BFLOAT:
                value = f"_bf16({value})"
        else:
            value = f"{self.store_wrap(stmt.name)}({value})"
        idx = stmt.index
        if varying:  # per-lane scatter into a shared buffer
            self._per_lane("store index", idx)
            self._certify(stmt.name, data)
            target = None
        elif idx.type.lanes == 1:
            target = self.emit(idx)
        else:
            target = self._try_slice(idx)
            block = None if target else self._two_level(idx)
            if block is not None:  # the value first, as a subscript's is
                tile = self.fresh("t")
                self.line(f"{tile} = {value}")
                self.line(f"_scatter(_arena, {data}, {block}, {tile})")
                self.copy_views = False
                return
        if target is None:
            target = f"_idx({self.emit(idx)})"
        self.line(f"{data}[{lead}{target}] = {value}")
        self.copy_views = False

    #: how :meth:`_exec_For` runs a loop, in order: the first strategy
    #: that takes it emits it and writes its :attr:`loops` rows; what
    #: none takes is a native ``for``
    _STRATEGIES = ("_try_lanes", "_try_fold", "_try_stacked", "_try_hoist")

    def _exec_For(self, stmt: S.For) -> None:
        if any(getattr(self, name)(stmt) for name in self._STRATEGIES):
            return
        if self.batched(stmt.min_expr) or self.batched(stmt.extent):
            raise CodegenError("batched loop bounds")
        if stmt.kind is ForKind.GPU_LANE:
            # warp-collective body: executes once (see the interpreter),
            # at the loop's minimum
            with self.bind(stmt.name, self._once(stmt.min_expr)):
                self.emit_stmt(stmt.body)
        else:
            self._emit_loops([stmt])

    @staticmethod
    def _serial(loop: S.For) -> bool:
        return loop.kind not in _LANE_KINDS and loop.kind is not ForKind.GPU_LANE

    @staticmethod
    def _nest(stmt: S.For) -> List[S.For]:
        """``stmt`` and the serial loops of constant bounds perfectly
        nested in it."""
        nest = [stmt]
        while (
            isinstance(nest[-1].body, S.For)
            and nest[-1].body.kind in (ForKind.SERIAL, ForKind.UNROLLED)
            and _constant(nest[-1].body)
        ):
            nest.append(nest[-1].body)
        return nest

    def _emit_loops(self, nest: List[S.For], xs=()) -> None:
        """Native ``for`` loops over perfectly nested ``nest`` (loop
        variables ``xs``, fresh without them), then its body."""
        with ExitStack() as scope:
            for i, loop in enumerate(nest):
                var = xs[i] if xs else self.fresh("x")
                extent = loop.extent
                extent = extent.value if isinstance(extent, E.IntImm) else self.emit(extent)
                self.line(f"for {var} in range({self._span(loop.min_expr, extent, ', ')}):")
                scope.enter_context(self.block())
                scope.enter_context(self.bind(loop.name, var))
            self.emit_stmt(nest[-1].body)

    def _try_hoist(self, stmt: S.For) -> bool:
        """Emit a serial block loop nest with its per-call work hoisted.

        The nest is ``stmt`` and the serial loops perfectly nested in
        it, all of constant bounds.  Each tile operand its MACs read
        from an input the kernel never writes, and each weight shuffle
        its scratch tiles carry, becomes one stack over every iteration,
        built in the preheader; the iterations read it with ``[ix]``.
        Where a stack's one view cannot be built, its ``[ix]`` cuts that
        iteration's tile as the per-tile loop does (see
        :class:`~repro.targets.isa.PerIteration`) — so it raises where it
        always has, after the same partial writes.  Records one
        :attr:`loops` row per loop of the nest.  False (nothing
        hoisted): one row, for ``stmt``, which the caller emits plain;
        each inner loop is decided on its own when emitted.
        """
        rows = self.facts.rows(stmt)
        if not self._serial(stmt) or not rows.calls:
            return False  # not a block loop
        nest, first, saved = [stmt], len(self.loops), dict(self.hoisted)
        stacks, reasons = [], ["symbolic loop bounds"]
        if _constant(stmt):
            nest = self._nest(stmt)
            xs = [self.fresh("x") for _ in nest]
            stacks, reasons = self._plan_stacks(nest, xs, rows)
        status = "; ".join(reasons) or "nothing to hoist"
        if stacks:
            status = "; ".join([f"hoisted: {', '.join(stacks)}"] + reasons)
            self._emit_loops(nest, xs)
        self.hoisted = saved
        self.loops[first:first] = [
            _row(loop, f"serial, {status}")
            for loop in (nest if stacks else nest[:1])
        ]
        return bool(stacks)

    def _try_stacked(self, stmt: S.For) -> bool:
        """A serial MAC reduction nest as stacked products
        (:meth:`_emit_product`), rows ``serial, stacked product``; False,
        no row, where :meth:`_try_hoist` is to decide the nest."""
        if not self._serial(stmt) or self.merged is not None or not _constant(stmt):
            return False
        nest = self._nest(stmt)
        if self._speculate(self._emit_product, nest):
            return False
        self.loops.extend(_row(loop, "serial, stacked product") for loop in nest)
        return True

    def _emit_product(self, nest: List[S.For]) -> None:
        """A nest whose one settled MAC accumulates into a kernel
        allocation, ``acc[a] = mac(acc[a], A, B)`` (inside a ``TileExpand``
        / ``TileCompact`` pair or not; ``a`` may follow the innermost
        loops, a disjoint tile each), its body doing nothing else but fill
        scratch operands, in passes of at most ``_STACK`` operand elements:
        every iteration's A and B at once — one bounds-checked gather over
        their bases (``TileISA.gathered``), an interleave or window stack —
        one ``TileISA.product`` over the leading ``[R, ...]`` axis, and the
        fold in loop order: ``isa.accumulate``'s ``np.add(c, p, out=p)``
        per iteration for float32, one ``_wrapsum`` for DP4A (wrapping
        addition is associative).  Raises unless an iteration would gather
        at bases not affine in the lane, load a buffer the kernel writes
        (before the nest), or pack a scratch operand."""
        rows = self.facts.rows(nest[0])
        macs = [c for c in rows.calls if role_of(c.name) == "mac"]
        isa = REGISTRY[macs[0].name].isa if len(macs) == 1 else None
        if isa is None or _settled(isa, macs[0]) is None:
            raise CodegenError("not one settled MAC")
        mac, (m, n, k), g = macs[0], _settled(isa, macs[0]), isa.group
        names, bound = {x.name for x in nest}, {name for _, name, _ in rows.bound}
        scratch = {a.name: a for a in rows.allocs}
        body = list(_statements(nest[-1].body))
        stores = [x for x in body if isinstance(x, S.Store)]
        c = mac.args[0]
        expand = c if getattr(c, "name", None) == "TileExpand" else None
        c = c.args[0] if expand else c
        acc = [x for x in stores if x.name == getattr(c, "name", None)]
        acc = acc[0] if len(acc) == 1 and isinstance(c, E.Load) else None
        value = getattr(acc, "value", None)
        compact = value if getattr(value, "name", None) == "TileCompact" else None
        dtype = self.allocated.get(getattr(c, "name", None))
        relayout = expand is compact is None or (
            expand and compact and isa.acc is np.float32
            and compact.args[1:] == expand.args[:0:-1]
            and all(isinstance(x, E.IntImm) for x in expand.args[1:])
        )
        if not (
            acc is not None and acc.index == c.index and relayout
            and (compact.args[0] if compact else value) is mac
            and dtype is not None and dtype.code is not TypeCode.BFLOAT
            and dtype.to_numpy() == np.dtype(isa.acc) and c.name not in scratch
            and all(
                isinstance(x, (S.Block, S.ProducerConsumer, S.Store, S.Allocate))
                or isinstance(x, S.For) and x.kind is ForKind.GPU_LANE for x in body
            )
            and len(stores) == 1 + len(scratch) and all(map(_fill, scratch.values()))
            and sorted(rows.written) == sorted([c.name] + 2 * list(scratch))
            and all(x.extent.value > 0 for x in nest)
        ):
            raise CodegenError("the body does more than accumulate")
        base, stride, t_rows, t_cols = _tile_geometry(acc.index) or (None,) * 4
        coefs = _constant_coefs(base, names) if isinstance(stride, E.IntImm) else {}
        follows = [x for x in nest if coefs.get(x.name)]
        red = nest[: len(nest) - len(follows)]
        size = m * n // expand.args[2].value * expand.args[1].value if expand else m * n
        if not isinstance(stride, E.IntImm) or t_rows * t_cols != size or (
            red + follows != nest or self.batched(base) or not lanes_disjoint(
                [(coefs[x.name], x.extent.value) for x in follows]
                + [(stride.value, t_rows), (1, t_cols)]
            )
        ):
            raise CodegenError("accumulator is not one tile per inner iteration")
        lead, stacks, work = c.name in self.stacked, [], False
        for a, shape in zip(mac.args[1:3], ((m, k), (k // g, g * n))):
            if not _direct_load(isa, a) or shape != tuple(
                getattr(d, "value", None) for d in a.args[3:5]
            ):
                raise CodegenError("operand is not a tile load of the MAC's shape")
            name = a.args[0].value
            fill = _fill(scratch[name]) if name in scratch else None
            if name in scratch and rows.loaded.count(name) != 1:
                raise CodegenError(f"{name} is read other than by one operand")
            if _window(fill):
                local, _ = self._shuffle_stack(scratch[name], fill, [(a, shape, isa)], nest, bound)
                self.line(f"{local} = _whole({local}, {tuple(x.extent.value for x in nest)})")
                stacks.append((f"{local}[{{}}]", False))
                continue
            if fill is not None:  # a pack: the interleave of a read-only tile
                if getattr(fill, "name", None) != "KWayInterleave":
                    raise CodegenError(f"{name} is not an interleave")
                group, p_rows, p_cols, load = (getattr(x, "value", x) for x in fill.args)
                at, step, *tile = _tile_geometry(getattr(load, "index", fill)) or (0,) * 4
                if tile != [p_rows, p_cols] or not isinstance(group, int) or (
                    shape != (p_rows // group, group * p_cols)
                    or a.args[1:3] != (E.IntImm(0), a.args[4])
                ):
                    raise CodegenError(f"{name} is not an interleave read whole")
                core = (
                    f"{self.const(_shuffles.interleave_stack)}(_arena, {self.const(isa)},"
                    f" {self.const(scratch[name].dtype.element_of())}, {group},"
                    f" {self.buf_data(load.name)}"
                )
                name, work = load.name, True
            else:  # a tile; an input the kernel never writes is widened once
                (at, step), (p_rows, p_cols) = a.args[1:3], shape
                written = name in self.written
                source, exact = (self.buf_obj(name), False) if written else self._widen(isa, a)
                core = f"{self.const(isa)}.gathered(_arena, {source}, {exact}"
                work |= written or self.batched(at) and self._lane_step(at) is None
            if name in rows.written or self.batched(step) or not names.isdisjoint(step.free_vars):
                raise CodegenError(f"{name} is written in the nest")
            if name in self.stacked and self.proved is not None:
                raise CodegenError(f"{name} is lane-private")
            _invariant(step, names, bound)
            first, outer = self._iterations(at, nest, bound)
            bases = self.fresh("h")
            self.line(f"{bases} = _bases({first}, {outer})")
            stacks.append((
                f"{core}, {bases}[{{}}], {self.emit(step)}, {p_rows}, {p_cols})",
                self.batched(at) or name in self.stacked,
            ))
        if not work or any(varies and not lead for _, varies in stacks):
            raise CodegenError("nothing per iteration")
        self.allocated.update((x.name, x.dtype.element_of()) for x in scratch.values())
        self.macs.append((mac.name, *(self._operand_width(isa, a) for a in mac.args[1:3])))
        for name in scratch:
            del self.allocated[name]
        first, outer = self._iterations(base, follows, bound)
        isa_c, view, width, r, tiles, p, q = self.const(isa), *map(self.fresh, "awrcpq")
        self.line(
            f"{view} = {isa_c}.accumulator({self.buf_data(c.name)}, {first},"
            f" {stride.value}, {t_rows}, {t_cols}, {outer})"
        )
        many = math.prod(x.extent.value for x in follows)
        lead_rows = f" // {self.lead}" if lead else ""
        self.line(f"{width} = max(1, {_STACK // (many * max(m * k, k * n))}{lead_rows})")
        part = f"{r} * {many}:({r} + {width}) * {many}" if many > 1 else f"{r}:{r} + {width}"
        operands = [t.format(part) + ("" if v or not lead else "[:, None]") for t, v in stacks]
        product = f"{isa_c}.product({', '.join(operands)})"
        passes = f"for {r} in range(0, {math.prod(x.extent.value for x in red)}, {width}):"
        if isa.acc is np.int32:  # wrapping addition is associative
            self.line(passes)
            self.line(f"    {p} = {product}.reshape((-1,) + {view}.shape)")
            self.line(f"    np.add({view}, _wrapsum({p}), out={view})")
            return
        lanes, init = f"{view}.shape[:-2]", f"np.array({view})"
        if expand:
            init = (
                f"{self.const(REGISTRY[expand.name].core)}(_arena, {init}.reshape("
                f"{lanes} + (-1,)), {expand.args[1].value}, {expand.args[2].value})"
            )
        self.line(f"{tiles} = {init}.reshape({lanes} + ({m}, {n}))")
        self.line(passes)
        self.line(f"    {p} = {product}.reshape((-1,) + {tiles}.shape)")
        self.line(f"    for {q} in {p}:")
        self.line(f"        {tiles} = np.add({tiles}, {q}, out={q})")
        if compact:
            tiles = (
                f"{self.const(REGISTRY[compact.name].core)}(_arena, {tiles}.reshape("
                f"{lanes} + (-1,)), {compact.args[1].value}, {compact.args[2].value})"
            )
        self.line(f"{view}[...] = {tiles}.reshape({view}.shape)")

    def _plan_stacks(self, nest: List[S.For], xs, rows: _Rows) -> tuple:
        """Bind the preheader stacks of a serial nest with loop variables
        ``xs`` and facts ``rows``, and their reads in :attr:`hoisted`;
        returns their labels, and why each other read-only MAC operand
        stays per tile."""
        ix = ", ".join(
            x if not loop.min_expr.value else f"{x} - {loop.min_expr.value}"
            for x, loop in zip(xs, nest)
        )
        bound = {name for _, name, _ in rows.bound}
        fills = {
            a.name: (a, _fill(a)) for a in rows.allocs if _window(_fill(a))
        }
        stacks, reasons, scratch = [], [], {}
        for mac in rows.calls:
            entry = REGISTRY[mac.name]
            if entry.role != "mac":
                continue
            dims = _settled(entry.isa, mac)
            if dims is None:
                reasons.append("MAC shape not settled")
                continue
            (m, n, k), g = dims, entry.isa.group
            for a, shape in zip(mac.args[1:3], ((m, k), (k // g, g * n))):
                name = a.args[0].value if _direct_load(entry.isa, a) else None
                if name in fills:
                    scratch.setdefault(name, []).append((a, shape, entry.isa))
                elif name is not None and name not in self.written:
                    try:
                        stacks.append(self._tile_stack(
                            entry.isa, a, shape, nest, bound, ix
                        ))
                    except CodegenError as exc:
                        reasons.append(f"{name}: {exc}")
        for name, loads in scratch.items():
            try:
                # written by its Allocate and fill alone, read by these
                # MAC operands alone
                if (rows.written.count(name), rows.loaded.count(name)) != (
                    2, len(loads)
                ):
                    raise CodegenError("scratch is read other than by MAC operands")
                local, tile = self._shuffle_stack(*fills[name], loads, nest, bound)
                self.hoisted.update((id(load), tile) for load, *_ in loads)
                self.hoisted[id(fills[name][0])] = f"{tile} = {local}[{ix}]"
                stacks.append(f"{fills[name][1].args[0].value} shuffle stack")
            except CodegenError as exc:
                reasons.append(f"{name}: {exc}")
        return stacks, reasons

    def _tile_stack(self, isa, load: E.Call, shape, nest, bound, ix) -> tuple:
        """Every iteration's tile of a read-only MAC input at once
        (:meth:`~repro.targets.isa.TileISA.stack`); each iteration
        copies its own."""
        base, stride, *dims = load.args[1:5]
        if tuple(getattr(d, "value", None) for d in dims) != shape:
            raise CodegenError("tile shape is not the MAC operand's")
        names = {loop.name for loop in nest}
        if self.batched(stride) or not names.isdisjoint(stride.free_vars):
            raise CodegenError("row stride varies")
        _invariant(stride, names, bound)
        first, outer = self._iterations(base, nest, bound)
        read, name = "", load.args[0].value
        if self.batched(base):  # per-lane bases, as a (bases, step) pair
            private = name in self.stacked and name not in self.requests
            step = None if private else self._lane_step(base)
            if step is None:
                raise CodegenError(_NOT_AFFINE)
            first = f"({first}, {step})"
            if name in self.requests:  # [B, N, ...] tiles: one B·N axis
                read = f".reshape(-1, {shape[0]}, {shape[1]})"
        source, exact = self._widen(isa, load)
        local = self.fresh("h")
        self.line(
            f"{local} = {self.const(isa)}.stack(_arena, {source}, {exact},"
            f" {first}, {self.emit(stride)}, {shape[0]}, {shape[1]}, {outer})"
        )
        self.hoisted[id(load)] = f"{local}[{ix}].copy(){read}"
        return f"{name} tile stack"

    def _shuffle_stack(self, alloc, call, loads, nest, bound) -> tuple:
        """The MAC operands the window shuffle ``call`` filling scratch
        ``alloc`` makes, for every iteration at once (:func:`~repro.
        hardboiled.intrinsics.window_stack`), bound to a preheader local;
        returns it and a fresh local for one iteration's operand (which
        a hoisted nest binds in place of the scratch's take, fill and
        give)."""
        src, base, *geometry = call.args[:6]
        if not all(isinstance(x, E.IntImm) for x in geometry):
            raise CodegenError("symbolic shuffle geometry")
        rows, cols, taps, param = (x.value for x in geometry)
        if src.value in self.written or self.batched(call):
            raise CodegenError("shuffle reads varying weights")
        isa = loads[0][2]
        for load, shape, load_isa in loads:  # each reads it whole, in order
            at, stride, lrows, lcols = dims = load.args[1:5]
            if not (
                load_isa is isa
                and shape == (rows, cols)
                and all(isinstance(d, E.IntImm) for d in dims)
                and (at.value, stride.value) == (0, lcols.value)
                and lrows.value * lcols.value == rows * cols
            ):
                raise CodegenError("scratch is not read whole")
        first, outer = self._iterations(base, nest, bound)
        local, tile = self.fresh("h"), self.fresh("t")
        core = self.const(
            partial(_shuffles.window_stack, _window(call))
        )
        self.line(
            f"{local} = {core}(_arena, {self.const(isa)},"
            f" {self.const(alloc.dtype.element_of())},"
            f" {self.buf_obj(src.value)}, {first}, {outer}, {rows}, {cols},"
            f" {taps}, {param})"
        )
        return local, tile

    def _iterations(self, base: E.Expr, nest, bound) -> tuple:
        """``base`` at the nest's first iteration, and its ``(count,
        step)`` axis along each loop, as preheader source: ``base``
        must be affine in the loop variables (:func:`_affine`), a step
        the same for every lane, and what ``base`` reads besides known
        before the nest runs (:func:`_invariant`)."""
        names = {loop.name for loop in nest}
        _invariant(base, names, bound)
        steps: Dict[str, object] = {}
        _affine(base, 1, names, steps)
        axes = ""
        for loop in nest:
            step = steps.get(loop.name, 0)
            if isinstance(step, E.Expr):
                if self.batched(step):
                    raise CodegenError("loop step varies per lane")
                step = self.emit(step)
            axes += f"({loop.extent.value}, {step}), "
        with ExitStack() as scope:
            for loop in nest:
                scope.enter_context(
                    self.bind(loop.name, repr(loop.min_expr.value))
                )
            first = self.emit(base)
        return first, f"({axes})"

    def _try_lanes(self, stmt: S.For) -> bool:
        """Emit a data-parallel loop nest as one lane-vectorised pass.

        Speculative: on any obstacle — in the legality proof or in the
        emission of the body — the emitter is rolled back, the reason
        is recorded in :attr:`loops`, and the caller emits the Python
        loop (whose inner block loops then get their own attempt).
        """
        if stmt.kind not in _LANE_KINDS:
            return False
        if self.proved is not None:
            # the leading axis is outer lanes' already
            self.loops.append(_row(stmt, "leading axis already taken"))
            return False
        nest = [stmt]
        while (
            isinstance(nest[-1].body, S.For)
            and nest[-1].body.kind in _LANE_KINDS
        ):
            nest.append(nest[-1].body)
        first = len(self.loops)
        exc = self._speculate(self._emit_lanes, nest)
        if isinstance(exc, _PerTile):
            self.loops.extend(_row(loop, str(exc)) for loop in nest)
            self._emit_loops(nest)
            return True
        if exc is not None:
            self.loops.append(_row(stmt, str(exc)))
            return False
        self.loops[first:first] = [_row(loop, "lanes") for loop in nest]
        return True

    def _speculate(self, emit, *args) -> Optional[CodegenError]:
        """``emit(*args)``; on a :class:`CodegenError` the emitter is
        rolled back to where it was, and the error returned."""
        saved = [
            (k, v, v.copy() if isinstance(v, (dict, list, set)) else None)
            for k, v in vars(self).items()
        ]
        try:
            emit(*args)
        except CodegenError as exc:
            # containers are restored in place: an enclosing ``bind`` or
            # ``_exec_Allocate`` undoes its own entry in the same object
            for key, value, contents in saved:
                if isinstance(contents, list):
                    value[:] = contents
                elif contents is not None:
                    value.clear()
                    value.update(contents)
                setattr(self, key, value)
            return exc
        return None

    def _try_fold(self, stmt: S.For) -> bool:
        """A serial loop with no tensor intrinsic in its body as one lane
        pass over its variable: a map (:meth:`_emit_lanes`), or a reduce
        (:meth:`_emit_fold`).  Records its row either way."""
        if not self._serial(stmt) or self.facts.rows(stmt).calls:
            return False
        body, first = stmt.body, len(self.loops)
        acc = getattr(getattr(body, "value", None), "a", None)
        fold = isinstance(body, S.Store) and isinstance(acc, E.Load) and (
            acc.name, acc.index) == (body.name, body.index)
        exc = CodegenError("leading axis already taken") if self.lead else (
            self._speculate(self._emit_fold if fold else self._emit_lanes, [stmt])
        )
        status = exc or (f"reduce {_FOLDS[type(body.value)][0]}" if fold else "map")
        self.loops.insert(first, _row(stmt, f"serial, {status}"))
        return exc is None

    def _emit_fold(self, nest: List[S.For]) -> None:
        """A reduce ``acc[a] = op(acc[a], f(x))`` — ``op`` max, min or +,
        ``a`` a slice free of ``x``, ``acc`` a float32 or integer
        allocation, ``f`` reading no ``acc`` — as ``f`` stacked in a lane
        pass, folded into ``acc`` row by row in loop order by the loop's
        own op, and stored once after.  ``np.add.accumulate`` or ``np.
        maximum.reduce`` would keep another NaN payload where two meet."""
        store, x = nest[0].body, nest[0].name
        value, idx, dtype = store.value, store.index, self.allocated.get(store.name)
        if type(value) not in _FOLDS:
            raise CodegenError(f"an update by {type(value).__name__} is not a fold")
        if x in idx.free_vars or store.name in idx.buffers:
            raise CodegenError("accumulator address follows the loop")
        if store.name in value.b.buffers or x not in value.b.free_vars or (
            value.b.type != value.a.type
        ):
            raise CodegenError("update is not a function of the loop alone")
        if dtype is None or dtype.code is TypeCode.BFLOAT or idx.type.lanes > 1 and not (
            _tile_geometry(idx) and idx.stride == E.IntImm(1)
        ):
            raise CodegenError("accumulator is not a slice of a float32 or integer allocation")
        acc = self.fresh("a")
        self.line(f"{acc} = {self.emit(value.a)}")

        def fold():
            rows, row = self.fresh("f"), self.fresh("q")
            self.line(f"{rows} = {self.emit(value.b)}")
            self.line(f"for {row} in {rows}:")
            self.line(f"    {acc} = {_FOLDS[type(value)][1].format(acc, row)}")

        self._emit_lanes(nest, fold)
        with self.bind(f"{x}.fold", acc):
            self._exec_Store(S.Store(store.name, idx, E.Variable(f"{x}.fold", value.type)))

    def _emit_lanes(self, nest: List[S.For], emit=None) -> None:
        """One pass over the body of perfectly nested block loops.

        The nest's flattened iteration space becomes the leading axis:
        each loop variable is an ``[N]`` index vector (a constant
        table), buffers the body allocates and stores varying values
        into become lane-private ``[N, size]`` storage, and everything
        that does not depend on a loop variable — weights, memoised
        shuffle operands, inner serial loops — is emitted as ever.  A
        grid wider than ``_LANES`` runs in chunks of that many lanes.
        ``emit``, given, emits the pass in place of the body, which then
        may store nothing per lane.
        """
        dims: Dict[str, int] = {}
        for loop in nest:
            if not _constant(loop):
                raise CodegenError("symbolic loop bounds")
            dims[loop.name] = loop.extent.value
        total = math.prod(dims.values())
        if total < 2:
            raise CodegenError("fewer than two iterations")
        body, outer = nest[-1].body, (self.lead, self.varying, self.stacked)
        self.proved = {} if emit else _prove_lanes(dims, self.facts, nest[-1])
        lanes = self.facts.varying(nest[-1], dims)
        if self.lead is not None:
            batch = self.facts.varying(nest[-1], self.varying, self.stacked)
            inner = {a.name for a in self.facts.rows(nest[-1]).allocs}
            private = (lanes[1] | batch[1]) & inner
            self.requests = self.stacked - inner
            self.merged = tuple((n, b | private) for n, b in (lanes, batch))
            lanes = (a | b for a, b in zip(*self.merged))
        self.varying, self.stacked = lanes
        chunk, width, times = self.fresh("l"), "_LANES", ""
        if outer[0]:
            width, times = self.fresh("w"), f" * {outer[0]}"
            self.line(f"{width} = max(1, _ROWS // {outer[0]})")
        self.line(f"for {chunk} in range(0, {total}, {width}):")
        with self.block(), ExitStack() as bound:
            lane, inner = np.arange(total), total
            for loop in nest:
                inner //= dims[loop.name]
                index = (lane // inner) % dims[loop.name] + loop.min_expr.value
                self.lane_index[loop.name] = index
                var = self.fresh("x")
                self.line(
                    f"{var} = {self.const(index)}[{chunk}:{chunk} + {width}]"
                )
                bound.enter_context(self.bind(loop.name, var))
            self.lead = self.fresh("n")
            self.line(f"{self.lead} = len({var}){times}")
            count = len(self.lines)
            if emit:
                emit()
            else:
                self.emit_stmt(body)
            if not re.search(rf"\b{self.lead}\b", "\n".join(self.lines[count:])):
                del self.lines[count - 1]  # no row count read
        self.lead, self.varying, self.stacked = outer
        self.proved = self.merged = None
        self.requests = frozenset()
        self.lane_index.clear()

    def _exec_LetStmt(self, stmt: S.LetStmt) -> None:
        local = self.fresh("v")
        # a let may hold a view of a buffer its body writes: snapshot
        # it, as the interpreter's value is
        loads = {n.name for n in _expr_nodes(stmt.value) if isinstance(n, E.Load)}
        self.copy_views = not loads.isdisjoint(self.facts.rows(stmt).written)
        value = self.emit(stmt.value)
        self.copy_views = False
        self.line(f"{local} = {value}")
        with self.bind(stmt.name, local):
            self.emit_stmt(stmt.body)

    def _exec_IfThenElse(self, stmt: S.IfThenElse) -> None:
        if self.batched(stmt.condition):
            raise CodegenError("batched branch condition")
        self.line(f"if _cond({self.emit(stmt.condition)}):")
        with self.block():
            self.emit_stmt(stmt.then_case)
        if stmt.else_case is not None:
            self.line("else:")
            with self.block():
                self.emit_stmt(stmt.else_case)

    def _exec_Allocate(self, stmt: S.Allocate) -> None:
        if any(self.batched(e) for e in stmt.extents):
            raise CodegenError("batched allocation extents")
        name = stmt.name
        # the body reads ``name`` through locals of its own: an enclosing
        # binding (an Allocate of the same name, an external buffer)
        # keeps its locals, untouched
        tables = (self.allocated, self.obj_locals, self.data_locals)
        outer = [table.pop(name, None) for table in tables]
        self.allocated[name] = stmt.dtype.element_of()
        read = self.hoisted.get(id(stmt))
        if read is not None:
            # a shuffle scratch: its stack's operand for this iteration,
            # in place of the take, the fill and the give
            self.line(read)
            for part in stmt.body.stmts[1:]:
                self.emit_stmt(part)
        else:
            obj = self.buf_obj(name)
            extents = ", ".join(self.emit(e) for e in stmt.extents)
            dtype = self.const(stmt.dtype.element_of())
            memtype = self.const(stmt.memory_type)
            rows = f", {self.lead}" if name in self.stacked else ""
            self.line(
                f"{obj} = _take(_arena, {name!r}, {dtype}, ({extents},),"
                f" {memtype}{rows})"
            )
            self.line(f"{self.buf_data(name)} = {obj}.data")
            self.emit_stmt(stmt.body)
            self.line(f"_give(_arena, {obj})")
        for table, local in zip(tables, outer):
            table.pop(name, None)
            if local is not None:
                table[name] = local

    # -- assembly ------------------------------------------------------------

    def source(self) -> str:
        preamble = []
        for name in self.ext_data:
            preamble.append(
                f"    {self.data_locals[name]} = buffers[{name!r}].data"
            )
        for name in self.ext_obj:
            preamble.append(f"    {self.obj_locals[name]} = buffers[{name!r}]")
        for name, local in self.wrap_locals.items():
            preamble.append(
                f"    {local} = _store_wrap({self.obj_locals[name]})"
            )
        preamble.extend(f"    {line}" for *_, line in self.widened.values())
        for name, local in sorted(self.env_locals.items()):
            preamble.append(f"    {local} = env[{name!r}]")
        body = self.lines or ["    pass"]
        return "\n".join(
            ["def _kernel(buffers, env, _arena):"] + preamble + body
        )

    def kernel(self, key: str, label: str = "kernel") -> "CompiledKernel":
        return _load_kernel(
            self.source(), self.globals, key, self.loops, self.macs, label
        )


#: helper functions available inside every kernel
_HELPER_GLOBALS = {
    "np": np,
    "_bf16": _bf16,
    "_bcast": broadcast_value,
    "_vec": as_vector,
    "_vred": reduce_groups,
    "_ramp": ramp_value,
    "_cond": _cond,
    "_idx": _idx,
    "_cast_f": _cast_f,
    "_cast_i": _cast_i,
    "_store_wrap": _store_wrap,
    "_take": _take,
    "_give": _give,
    "_vec_b": _vec_b,
    "_bcast_b": _bcast_b,
    "_vred_b": _vred_b,
    "_cat_b": _cat_b,
    "_LANES": _LANES,
    "_ROWS": _ROWS,
    "_tiles": _tiles,
    "_gather": tile_gather,
    "_scatter": tile_scatter,
    "_bases": tile_bases,
    "_whole": _whole,
    "_wrapsum": wrapping_sum,
}


class CompiledKernel:
    """A compiled (or interpreter-fallback) kernel, ready to run."""

    def __init__(
        self,
        fn: Callable,
        source: Optional[str],
        key: str,
        is_fallback: bool = False,
        globals_map: Optional[Dict[str, object]] = None,
        loops: Tuple[tuple, ...] = (),
        macs: Tuple[tuple, ...] = (),
    ) -> None:
        self.fn = fn
        self.source = source
        self.key = key
        self.is_fallback = is_fallback
        #: emitter-injected constants (offset tables, dtypes, intrinsic
        #: cores) — retained so the kernel can be serialized to disk
        self.globals_map = globals_map
        #: one ``(variable, extent, status)`` row per data-parallel
        #: (``gpu_block``/``parallel``) loop of the statement: status is
        #: ``"lanes"`` when the loop runs as one lane-vectorised array
        #: pass, else the reason it stayed a Python loop; and one per
        #: serial block loop: ``"serial, hoisted: ..."`` naming the
        #: stacks its preheader builds, else ``"serial, <why not>"``
        self.loops = tuple(loops)
        #: one ``(intrinsic, A, B)`` row per MAC call site: per operand
        #: ``"narrow"`` when the core receives the buffer's own f16 /
        #: int8 elements, else the reason it is widened ahead of it
        self.macs = tuple(macs)

    def __call__(
        self, buffers: Dict[str, Buffer], env: dict, arena=None
    ) -> None:
        self.fn(buffers, env, arena)


def _load_kernel(
    source: str,
    globals_map: Dict[str, object],
    key: str,
    loops,
    macs,
    label: str = "kernel",
) -> CompiledKernel:
    """Execute emitted ``source`` over the helper + injected globals."""
    code = compile(source, f"<{label} {key[:12] or 'anon'}>", "exec")
    for value in globals_map.values():
        # every call shares a kernel's constants: a stray in-place write
        # raises instead of poisoning the next call (pickling drops the
        # flag, so it is set here, for fresh and restored kernels alike)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    namespace = dict(_HELPER_GLOBALS)
    namespace.update(globals_map)
    exec(code, namespace)
    return CompiledKernel(
        namespace["_kernel"],
        source,
        key,
        globals_map=globals_map,
        loops=loops,
        macs=macs,
    )


def compile_stmt(stmt: S.Stmt, key: str = "") -> CompiledKernel:
    """Compile a lowered statement into a NumPy kernel.

    Falls back to a kernel that runs the interpreter when the statement
    contains a construct the emitter does not support, so the compiled
    backend accepts every statement the interpreter does.
    """
    emitter = _Emitter(stmt)
    try:
        emitter.emit_stmt(stmt)
        return emitter.kernel(key)
    except CodegenError:
        def fallback(buffers, env, arena):
            Interpreter(buffers, None).run(stmt, env)

        return CompiledKernel(fallback, None, key, is_fallback=True)


# -- batch-axis compilation ----------------------------------------------------


def compile_batched_stmt(
    stmt: S.Stmt, stacked, key: str = ""
) -> CompiledKernel:
    """Compile a batch-axis variant of a lowered statement.

    ``stacked`` names the external buffers that carry a leading batch
    dimension — the per-request inputs and the output; internal
    Allocates are widened automatically when any value stored into them
    is per-request (:meth:`KernelFacts.varying`).  Every access to a
    stacked buffer gains the batch axis (``data[:, index]``); shared
    state (weights, shuffle operands, tile grids, loop nests) is
    emitted exactly as :func:`compile_stmt` would, and a block nest as
    one lane pass over ``B × N`` rows where it can (``_emit_lanes``).
    The kernel runs on ``StackedBuffer``s for the stacked names, plain
    ``Buffer``s for the shared ones, and ``env['batch.size']``; it is
    B-agnostic: one kernel serves every batch size of a bucket.

    Unlike :func:`compile_stmt` there is **no** interpreter fallback:
    a construct the batched emitter cannot express (per-request control
    flow or addressing, per-request weights feeding a shuffle
    constructor, unknown intrinsics) raises :class:`CodegenError`, and
    the caller falls back to the looped per-request path.
    """
    emitter = _Emitter(stmt)
    emitter.varying, emitter.stacked = emitter.facts.varying(None, (), stacked)
    # the batch size, bound in the preamble like any env variable; only
    # a stacked _take needs it (value helpers read array shapes)
    emitter.lead = emitter.env_locals["batch.size"] = "_B"
    emitter.emit_stmt(stmt)
    return emitter.kernel(key, "batched-kernel")


# -- kernel (de)serialization --------------------------------------------------
#
# A compiled kernel is plain Python source plus a dict of injected
# constants (numpy offset tables, dtype objects, intrinsic cores picked
# by reference).  Both halves are picklable, so a kernel compiled in one
# process can be persisted and re-hydrated in another without running
# codegen again — the artifact store (:mod:`repro.service.store`), the
# one on-disk kernel format, builds on this pair.  Interpreter-fallback
# kernels close over the
# statement itself and are cheap to rebuild, so they are not
# serializable (``serialize_kernel`` returns ``None``).

#: bump when the emitted-source contract changes; stale payloads on
#: disk are rejected and recompiled rather than mis-executed.
#: v2: kernels take an arena argument (buffer pooling + operand memos)
#: v3: batch-axis kernels (stacked [B, size] buffers, _take_b and
#:     batched intrinsic helpers, env['batch.size'])
#: v4: lane-vectorised block loops (_LANES chunking, per-lane bases
#:     through the tile index grid) and the ``loops`` report
#: v5: tile loads in a MAC operand slot carry a trailing ``True`` and
#:     yield the buffer's narrow elements; the ``macs`` report
#: v6: one core per intrinsic; ``_bv_*`` gone
#: v7: read-only MAC inputs widened once per call (``.widen`` in the
#:     preamble, exact flags on the MAC); ``(bases, step)`` lane bases
#: v8: serial block loops read preheader stacks (``_stack``, window
#:     shuffle stacks); settled MACs call the core; literal broadcasts
#:     are constants; two-level ramps load and store as tile views
#: v9: a stack is never None (``TileISA.stack``, window stacks: a
#:     ``PerIteration`` where no view fits); one read per operand
#: v10: batched kernels lane-vectorise block loops over one ``B × N``
#:     axis (``_n = len(_x) * _B``; request-buffer stacks read as
#:     ``[ix].copy().reshape(-1, r, c)``)
#: v11: serial loops as array passes: maps and reduce folds over the
#:     loop variable, stacked MAC products (``_bases``, ``_whole``,
#:     ``_wrapsum``, ``TileISA.gathered`` / ``accumulator`` / ``product``)
#: v12: no interpreter hook (``def _kernel(buffers, env, _arena)``): an
#:     allocation never enters ``buffers``, a stacked one is one
#:     ``_take(..., rows)``; no ``needs_interp`` in the payload
KERNEL_FORMAT_VERSION = 12


def serialize_kernel(kernel: CompiledKernel) -> Optional[dict]:
    """A picklable payload for ``kernel``, or None if not serializable."""
    if kernel.source is None or kernel.globals_map is None:
        return None
    return {
        "format": KERNEL_FORMAT_VERSION,
        "key": kernel.key,
        "source": kernel.source,
        "globals": kernel.globals_map,
        "loops": kernel.loops,
        "macs": kernel.macs,
    }


def deserialize_kernel(payload: dict) -> CompiledKernel:
    """Re-hydrate a kernel from :func:`serialize_kernel`'s payload.

    Raises :class:`CodegenError` on a format-version mismatch, so
    callers treat stale payloads as cache misses.
    """
    if payload.get("format") != KERNEL_FORMAT_VERSION:
        raise CodegenError(
            f"kernel payload format {payload.get('format')!r} !="
            f" {KERNEL_FORMAT_VERSION}"
        )
    return _load_kernel(
        payload["source"],
        payload["globals"],
        payload["key"],
        payload["loops"],
        payload["macs"],
    )
