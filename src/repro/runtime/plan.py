"""Reusable execution plans and buffer arenas for steady-state serving.

A :class:`~.executor.CompiledPipeline` is built once per *pipeline*;
an :class:`ExecutionPlan` is built once per *worker* and then run
thousands of times — one request at a time (``run``) or a whole
same-shape bucket per batch-axis kernel call (``run_batch``).  The
plan moves every piece of per-call setup that ``CompiledPipeline.run``
used to repeat into one bind step:

* the compiled kernel is resolved **once**
  (:meth:`~.executor.CompiledPipeline.kernel`; no per-call cache
  lookup, and the statement fingerprint — already memoized on the
  pipeline — is never recomputed);
* the ``{name}.stride.{d}`` environment dict is derived once per input
  *shape signature* and reused as the same dict object;
* input :class:`~.buffer.Buffer` wrappers are reused — a steady-state
  call only swaps each buffer's flat ``data`` view onto the new request
  array (zero-copy for contiguous, correctly-typed inputs);
* the output may be written into caller-provided storage (``out=``),
  making a steady-state call allocation-free on the ingest side.

The plan owns a :class:`BufferArena`, which pools what the *kernel*
allocates and re-derives per call:

* ``Allocate`` statements (tile accumulators, shuffle staging buffers)
  are recycled through a free-list instead of constructing a fresh
  zeroed :class:`Buffer` per loop iteration — a reused buffer is
  re-zeroed, so semantics are identical to a fresh allocation;
* weight-derived shuffle operands (the Toeplitz matrix of
  ``ConvolutionShuffle``, the multiphase matrix of
  ``MultiphaseShuffle``, ``KWayInterleave`` re-layouts) are memoized
  **by value** — keyed on the source bytes — so a serving loop that
  applies the same filter to every request rebuilds the matrix once,
  not once per tile per request, while a request that *does* change
  the weights misses the memo and stays correct.

Every cached object is bit-identical to what the uncached path
computes, so arena runs produce bit-identical outputs; the serving
benchmark and test suite assert this on both backends.

Neither a plan nor its arena is thread-safe — keep one per worker
thread (``repro.service.Server`` runs every request on one), or
serialize access to one (the pipeline's default plan sits behind a lock).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence
from typing import Tuple

import numpy as np

from ..ir.stmt import MemoryType
from ..ir.types import DataType, TypeCode
from ..targets.bfloat16 import round_to_bfloat16
from .buffer import Buffer, StackedBuffer
from .faultpoints import fire
from .interpreter import Interpreter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .codegen import CompiledKernel
    from .executor import CompiledPipeline


def bind_inputs(
    inputs: dict, declared: Optional[Dict[str, DataType]] = None
):
    """Wrap a request map into named buffers.

    Keys are ``ImageParam`` objects or buffer names; either way the
    declared dtype wins (``declared`` resolves names — numpy has no
    bfloat16, so the array alone cannot say).  Returns ``(buffers,
    entries)`` where each entry is ``(key, buffer, array)`` in request
    order — the single input-wrapping rule under
    :func:`bind_request`, so the backends can never drift.
    """
    from ..frontend.func import ImageParam

    buffers: Dict[str, Buffer] = {}
    entries = []
    for key, array in inputs.items():
        if isinstance(key, ImageParam):
            name, dtype = key.name, key.dtype
        else:
            name = str(key)
            dtype = declared.get(name) if declared else None
        array = np.asarray(array)
        buf = Buffer.from_numpy(name, array, dtype=dtype)
        buffers[name] = buf
        entries.append((key, buf, array))
    return buffers, entries


def stride_env(buffers: Dict[str, Buffer]) -> dict:
    """``{name}.stride.{d}`` entries for *every* buffer — the output
    included, so kernels that address it through its strides do not
    hit an unbound variable."""
    env: dict = {}
    for name, buf in buffers.items():
        for d, stride in enumerate(buf.strides):
            if d > 0:
                env[f"{name}.stride.{d}"] = stride
    return env


def bind_request(pipeline: "CompiledPipeline", inputs: dict):
    """One request's named buffers, a fresh output buffer among them:
    ``(buffers, ingest rows, output buffer, stride env)`` — the bind
    step of ``CompiledPipeline.run`` and of both plan slots.  A row is
    ``(key, buffer, shape, source dtype, needs bf16 rounding)``: what
    a steady-state call checks a new request against."""
    buffers, entries = bind_inputs(inputs, pipeline.input_dtypes)
    out = buffers[pipeline.output_name] = Buffer(
        pipeline.output_name,
        pipeline.output_dtype,
        pipeline.output_extents,
        is_external=True,
    )
    bf16 = TypeCode.BFLOAT
    rows = [
        (key, buf, array.shape, array.dtype, buf.dtype.code is bf16)
        for key, buf, array in entries
    ]
    return buffers, rows, out, stride_env(buffers)


def _matches(array, shape: tuple, src_dtype) -> bool:
    """Is ``array`` the ndarray geometry a plan was bound against?"""
    return (
        isinstance(array, np.ndarray)
        and array.shape == shape
        and array.dtype == src_dtype
    )


def _swap_in(buf: Buffer, array: np.ndarray, needs_round: bool) -> None:
    """Point a bound input buffer at this request's array (zero-copy
    for contiguous, correctly-typed input)."""
    if needs_round:
        buf.data = round_to_bfloat16(
            np.asarray(array, dtype=np.float32).ravel()
        )
    elif array.dtype == buf.data.dtype and array.flags.c_contiguous:
        buf.data = array.reshape(-1)  # zero-copy view
    else:
        buf.data = np.asarray(array, dtype=buf.data.dtype).ravel()


def _check_out(out, shape: tuple, np_dtype, inputs) -> None:
    """Validate caller-provided ``out=`` storage against every input
    array a run will read."""
    if not isinstance(out, np.ndarray):
        raise ValueError("out= must be a numpy array")
    if out.dtype != np_dtype or out.shape != shape:
        raise ValueError(
            f"out= expects shape {shape} dtype {np_dtype},"
            f" got shape {out.shape} dtype {out.dtype}"
        )
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("out= must be C-contiguous and writeable")
    for array in inputs:
        # inputs are bound zero-copy, so an out= that overlaps one
        # would be zeroed before the kernel reads it — reject instead
        # of silently computing from zeros
        if isinstance(array, np.ndarray) and np.may_share_memory(out, array):
            raise ValueError("out= must not share memory with an input array")


class BufferArena:
    """A per-worker pool of kernel-internal allocations and operand memos.

    Passed to compiled kernels, which route every ``Allocate`` through
    :meth:`take`/:meth:`give` and every cacheable intrinsic through
    :meth:`memo`.  ``None`` (the default when running
    without a plan) makes kernels fall back to fresh allocations and
    uncached rebuilds — the exact pre-arena behavior.

    Not thread-safe: one arena per worker thread.
    """

    def __init__(self, memo_maxsize: int = 256) -> None:
        self.memo_maxsize = memo_maxsize
        self._free: Dict[tuple, List[Buffer]] = {}
        self._memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.buffer_allocs = 0
        self.buffer_reuses = 0
        self.memo_hits = 0
        self.memo_misses = 0

    # -- pooled Allocate storage --------------------------------------------

    @staticmethod
    def _key(
        name: str, dtype: DataType, extents: tuple, memory_type: MemoryType
    ) -> tuple:
        return (name, dtype, tuple(int(e) for e in extents), memory_type)

    def take(
        self,
        name: str,
        dtype: DataType,
        extents: tuple,
        memory_type: MemoryType,
        batch: Optional[int] = None,
    ):
        """A zeroed buffer — recycled when one of this shape was freed.

        Re-zeroing a recycled buffer keeps it indistinguishable from
        the fresh ``np.zeros`` allocation it replaces.  With ``batch``
        the buffer is a ``[batch, size]`` :class:`StackedBuffer`, pooled
        under a batch-qualified key so a block is only ever recycled
        for the same B.
        """
        key = self._key(name, dtype, extents, memory_type)
        if batch is not None:
            key += (int(batch),)
        pool = self._free.get(key)
        if pool:
            buf = pool.pop()
            buf.data.fill(0)
            self.buffer_reuses += 1
            return buf
        fire("arena.alloc", name=name)
        self.buffer_allocs += 1
        if batch is not None:
            return StackedBuffer(
                name, dtype, key[2], memory_type=memory_type, batch=int(batch)
            )
        return Buffer(
            name, dtype, key[2], memory_type=memory_type, is_external=False
        )

    def give(self, buf) -> None:
        """Return a buffer to the pool at the end of its Allocate scope."""
        key = (buf.name, buf.dtype, buf.extents, buf.memory_type)
        if isinstance(buf, StackedBuffer):
            key = key + (buf.batch,)
        self._free.setdefault(key, []).append(buf)

    # -- derived-operand caches ---------------------------------------------

    def memo(self, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        """Value-keyed LRU memo for derived operands (treated immutable).

        ``key`` must capture everything the result depends on — the
        shuffle intrinsics key on the *bytes* of the source coefficients
        plus the geometry, so changing weights can never serve a stale
        matrix.
        """
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return hit
        self.memo_misses += 1
        value = build()
        self._memo[key] = value
        while len(self._memo) > self.memo_maxsize:
            self._memo.popitem(last=False)
        return value

    def stats(self) -> Dict[str, int]:
        return {
            "buffer_allocs": self.buffer_allocs,
            "buffer_reuses": self.buffer_reuses,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "pooled_buffers": sum(len(p) for p in self._free.values()),
            "memo_entries": len(self._memo),
        }


class BatchingUnsupported(RuntimeError):
    """A request batch cannot take the batch-axis path.

    Raised by :meth:`ExecutionPlan.run_batch` when the bucket is ragged
    (shapes/dtypes differ across requests), a request is not a plain
    ndarray mapping, the plan runs on the interpreter, or the statement
    has no batch-axis kernel for the bucket's stacked set (e.g.
    per-request weights feeding a shuffle constructor).
    ``CompiledPipeline.run_many``, which every serving front end runs
    through, catches it and falls back to the looped per-request path
    (unless ``batch_axis=True``): a routing signal, not an error.
    """


@dataclass(eq=False)
class _Stacked:
    """A plan's stacked binding slot: one bucket geometry bound to the
    batch-axis kernel of its shared/stacked split."""

    kernel: "CompiledKernel"
    #: name -> plain Buffer (shared inputs) or StackedBuffer
    buffers: dict
    env: dict
    #: (key, buffer, shape, source dtype, needs bf16 rounding)
    shared: Tuple[tuple, ...]
    #: (key, stacked buffer, shape, source dtype, needs bf16
    #: rounding, staging numpy dtype)
    stacked: Tuple[tuple, ...]
    out: StackedBuffer
    #: name -> [capacity, size] staging block (grown, never shrunk)
    staging: Dict[str, np.ndarray] = field(default_factory=dict)

    def ingest(self, requests: List[dict]) -> bool:
        """Stage a bucket into the bound buffers; False on any mismatch.

        Validates every request before copying anything, so a mismatch
        never leaves a half-staged batch behind.
        """
        n_keys = len(self.shared) + len(self.stacked)
        if any(len(r) != n_keys for r in requests):
            return False
        first, rest = requests[0], requests[1:]
        for key, _, shape, src_dtype, _ in self.shared:
            array = first.get(key)
            if not _matches(array, shape, src_dtype):
                return False
            if any(r.get(key) is not array for r in rest):
                return False
        for key, _, shape, src, _, _ in self.stacked:
            if not all(_matches(r.get(key), shape, src) for r in requests):
                return False
        # shared inputs: swap the data view, exactly like a single run
        for key, buf, _, _, needs_round in self.shared:
            _swap_in(buf, first[key], needs_round)
        # stacked inputs: one contiguous [B, size] staging block; row b
        # holds exactly what request b's per-request Buffer would hold
        batch = len(requests)
        for key, sbuf, _, _, needs_round, np_dtype in self.stacked:
            block = self.staging.get(sbuf.name)
            if block is None or block.shape[0] < batch:
                block = np.empty((batch, sbuf.size), dtype=np_dtype)
                self.staging[sbuf.name] = block
            block = block[:batch]
            for b, r in enumerate(requests):
                block[b] = r[key].reshape(-1)
            if needs_round:
                block[:] = round_to_bfloat16(block)
            sbuf.data = block
            sbuf.batch = batch
        return True


class ExecutionPlan:
    """A pipeline pre-bound for repeated same-shape execution.

    Created via :meth:`CompiledPipeline.plan
    <repro.runtime.executor.CompiledPipeline.plan>`.  :meth:`run`
    executes one request: the first call binds to the request's input
    shapes, and subsequent same-shaped calls take the steady-state
    path — no statement fingerprinting, no kernel-cache lookup, no
    environment rebuild, no ``Buffer`` revalidation, and no input copy
    for contiguous correctly-typed arrays.  :meth:`run_batch` executes a
    whole same-shape bucket in one batch-axis kernel call.

    The two paths keep one binding slot each — a worker alternating
    singletons and buckets never rebinds on the switch — and share the
    rest: one arena (a weight-derived operand is built once per plan,
    whichever path needs it first), one output geometry and ``out=``
    check, one failure rule, one :meth:`stats`.  A call whose shapes or
    dtypes (for a bucket, also its shared/stacked split) differ rebinds
    that slot, counted in ``rebinds``; a failed run drops both slots and
    starts from an empty arena.

    Not thread-safe — one plan per worker thread.
    """

    def __init__(
        self,
        pipeline: "CompiledPipeline",
        backend: str,
        arena: Optional[BufferArena] = None,
    ) -> None:
        self.pipeline = pipeline
        self.backend = backend
        self.lowered = pipeline.lowered
        self.output_name = pipeline.output_name
        self.arena = arena if arena is not None else BufferArena()
        extents = pipeline.output_extents
        self._out_np = pipeline.output_dtype.to_numpy()
        self._out_shape = tuple(reversed(extents))
        self._out_size = int(np.prod(extents)) if extents else 1
        #: resolved once — steady-state runs never consult the cache
        self.kernel: Optional["CompiledKernel"] = None
        if backend == "compile":
            self.kernel = pipeline.kernel()
        # the per-request slot, bound per input-shape signature
        self._buffers: Dict[str, Buffer] = {}
        self._env: dict = {}
        #: (key, buffer, shape, source dtype, needs bf16 rounding)
        self._ingest: Tuple[tuple, ...] = ()
        self._out_buffer: Optional[Buffer] = None
        #: the stacked slot, bound per bucket geometry and split
        self._stacked: Optional[_Stacked] = None
        self.runs = 0
        self.rebinds = 0
        self.batched_requests = 0

    # -- binding -------------------------------------------------------------

    def _bind(self, inputs: dict) -> None:
        """Full (slow-path) bind: wrap every input, derive the env."""
        self._buffers, rows, self._out_buffer, self._env = bind_request(
            self.pipeline, inputs
        )
        self._ingest = tuple(rows)
        self.rebinds += 1

    def _fast_ingest(self, inputs: dict) -> bool:
        """Swap request arrays into the bound buffers; False on mismatch."""
        if len(inputs) != len(self._ingest):
            return False
        for key, buf, shape, src_dtype, needs_round in self._ingest:
            array = inputs.get(key)
            if not _matches(array, shape, src_dtype):
                return False
            _swap_in(buf, array, needs_round)
        return True

    def _bind_batch(self, requests: List[dict]) -> _Stacked:
        """Full bind of the stacked slot against the first request.

        Inputs whose array is the *same object* in every request — the
        serving idiom for weights — stay plain shared buffers, so their
        derived shuffle operands are computed once per batch by
        construction; the rest (and the output) are stacked ``[B,
        size]``.  Resolves the batch-axis kernel for that split and
        starts with no staging, so a rebind on shape change never
        reuses staging grown for the previous geometry.
        """
        first, rest = requests[0], requests[1:]
        batch = len(requests)
        buffers, rows, out, env = bind_request(self.pipeline, first)
        shared = []
        stacked = []
        for key, buf, *geometry in rows:
            if all(r.get(key) is first[key] for r in rest):
                shared.append((key, buf, *geometry))
            else:
                sbuf = buffers[buf.name] = StackedBuffer.like(buf, batch)
                stacked.append((key, sbuf, *geometry, buf.dtype.to_numpy()))
        out = buffers[self.output_name] = StackedBuffer.like(out, batch)
        names = frozenset(buf.name for _, buf, *_ in stacked)
        kernel = self.pipeline.kernel(names | {self.output_name})
        if kernel is None:
            raise BatchingUnsupported(
                "no batch-axis kernel for stacked buffers "
                + ", ".join(sorted(names | {self.output_name}))
            )
        self.rebinds += 1
        return _Stacked(
            kernel, buffers, env, tuple(shared), tuple(stacked), out
        )

    def _reset(self) -> None:
        """The failure rule: a failed run may leave the bound buffers
        and the arena in a partial state, so drop both slots and the
        arena — whoever holds this plan gets a clean bind on the next
        run (cheap: the kernels stay resolved)."""
        self._out_buffer = None
        self._stacked = None
        self.arena = BufferArena(self.arena.memo_maxsize)

    # -- execution -----------------------------------------------------------

    def _output(self, out, lead: tuple, inputs) -> np.ndarray:
        """Zeroed flat output storage for ``lead`` requests: a fresh
        block, or the caller's ``out=`` — checked against the output
        geometry and every input array a run reads — which the kernel
        then writes in place."""
        if out is None:
            return np.zeros(lead + (self._out_size,), dtype=self._out_np)
        _check_out(out, lead + self._out_shape, self._out_np, inputs)
        flat = out.reshape(lead + (-1,))
        flat.fill(0)  # match fresh-allocation semantics exactly
        return flat

    def run(
        self,
        inputs: Optional[dict] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run once; steady-state after the first same-shaped call.

        ``out``, when given, must be a writeable C-contiguous array of
        the output's numpy shape and dtype; the kernel then writes the
        caller's storage directly and ``out`` itself is returned.
        """
        inputs = inputs if inputs is not None else {}
        if self._out_buffer is None or not self._fast_ingest(inputs):
            self._bind(inputs)
        flat = self._output(out, (), inputs.values())
        self._out_buffer.data = flat
        try:
            if self.kernel is not None:
                fire("kernel.compile")
                self.kernel(self._buffers, self._env, arena=self.arena)
            else:
                fire("kernel.interpret")
                Interpreter(self._buffers, None).run(
                    self.lowered.stmt, self._env
                )
        except BaseException:
            self._reset()
            raise
        self.runs += 1
        return out if out is not None else flat.reshape(self._out_shape)

    def run_batch(
        self,
        requests: Sequence[dict],
        out: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Run a whole same-shape bucket in one batch-axis kernel call.

        Requests are staged into contiguous ``[B, size]`` stacked
        buffers, one batch-axis kernel
        (:func:`repro.runtime.codegen.compile_batched_stmt`) runs, and
        per-request output arrays come back as views of one stacked
        block.  The kernels are B-agnostic: one bound slot serves every
        batch size of a bucket.  ``out``, when given, must be a
        writeable C-contiguous ``[B, *output_shape]`` array of the
        output dtype; the kernel writes it directly and the returned
        views alias it.

        Raises :class:`BatchingUnsupported` when the plan runs on the
        interpreter, the bucket cannot be staged (ragged shapes,
        non-array requests), or no batch-axis kernel exists for its
        shared/stacked split.
        """
        requests = list(requests)
        batch = len(requests)
        if batch == 0:
            return []
        if self.backend != "compile":
            raise BatchingUnsupported(
                "batch-axis execution requires the compiled backend"
            )
        if not all(isinstance(r, dict) for r in requests):
            raise BatchingUnsupported("requests must be input dicts")
        bound = self._stacked
        if bound is None or not bound.ingest(requests):
            bound = self._stacked = self._bind_batch(requests)
            if not bound.ingest(requests):
                raise BatchingUnsupported(
                    "ragged batch: request shapes/dtypes differ"
                )
        flat = self._output(
            out, (batch,), (a for r in requests for a in r.values())
        )
        bound.out.data = flat
        bound.out.batch = batch
        bound.env["batch.size"] = batch
        try:
            fire("kernel.compile", batched=True)
            bound.kernel(bound.buffers, bound.env, arena=self.arena)
        except BaseException:
            self._reset()
            raise
        self.runs += 1
        self.batched_requests += batch
        return [row.reshape(self._out_shape) for row in flat]

    def stats(self) -> Dict[str, int]:
        """Run/rebind/request counters plus the arena's counters."""
        stats = {
            "runs": self.runs,
            "rebinds": self.rebinds,
            "batched_requests": self.batched_requests,
        }
        stats.update(self.arena.stats())
        return stats
