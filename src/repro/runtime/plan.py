"""Reusable execution plans and buffer arenas for steady-state serving.

A :class:`~.executor.CompiledPipeline` is built once per *pipeline*;
an :class:`ExecutionPlan` is built once per *worker* and then run
thousands of times.  The plan moves every piece of per-call setup that
``CompiledPipeline.run`` used to repeat into one bind step:

* the compiled kernel is resolved from the kernel cache **once** (no
  per-call cache lookup, and the statement fingerprint — already
  memoized on the pipeline — is never recomputed);
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
* tile-addressing index grids (``tile_index`` arithmetic) are cached
  per ``(stride, rows, cols)`` geometry;
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

Neither a plan nor its arena is thread-safe — create one per worker
thread (``CompiledPipeline.run_many`` and ``repro.service.Server`` do).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from ..ir.stmt import MemoryType
from ..ir.types import DataType, TypeCode
from ..targets.bfloat16 import round_to_bfloat16
from .buffer import Buffer, StackedBuffer
from .faultpoints import fire
from .interpreter import Interpreter, tile_index

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
    order — the single input-wrapping rule shared by
    ``CompiledPipeline.run`` and the plan's bind step, so the backends
    can never drift.
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


def _bind_request(pipeline: "CompiledPipeline", inputs: dict):
    """One request's named buffers, a fresh output buffer among them:
    ``(buffers, input entries, output buffer, stride env)``."""
    buffers, entries = bind_inputs(inputs, pipeline.input_dtypes)
    out = buffers[pipeline.output_name] = Buffer(
        pipeline.output_name,
        pipeline.output_dtype,
        pipeline.output_extents,
        is_external=True,
    )
    return buffers, entries, out, stride_env(buffers)


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
    :meth:`tile_grid`/:meth:`memo`.  ``None`` (the default when running
    without a plan) makes kernels fall back to fresh allocations and
    uncached rebuilds — the exact pre-arena behavior.

    Not thread-safe: one arena per worker thread.
    """

    def __init__(self, memo_maxsize: int = 256) -> None:
        self.memo_maxsize = memo_maxsize
        self._free: Dict[tuple, List[Buffer]] = {}
        self._grids: Dict[Tuple[int, int, int], np.ndarray] = {}
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

    def tile_grid(self, stride: int, rows: int, cols: int) -> np.ndarray:
        """The flat index grid of a ``rows x cols`` tile at base 0."""
        key = (stride, rows, cols)
        grid = self._grids.get(key)
        if grid is None:
            grid = self._grids[key] = tile_index(0, stride, rows, cols)
        return grid

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
            "cached_grids": len(self._grids),
            "memo_entries": len(self._memo),
        }


class ExecutionPlan:
    """A pipeline pre-bound for repeated same-shape execution.

    Created via :meth:`CompiledPipeline.plan
    <repro.runtime.executor.CompiledPipeline.plan>`.  The first
    :meth:`run` binds to the request's input shapes; subsequent calls
    with same-shaped inputs take the steady-state path: no statement
    fingerprinting, no kernel-cache lookup, no environment rebuild, no
    ``Buffer`` revalidation, and no input copy for contiguous
    correctly-typed arrays.  A call whose input shapes or dtypes differ
    transparently rebinds (``rebinds`` counts them), and so does the
    call after a failed run, which also starts from an empty arena.

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
        self.output_dtype = pipeline.output_dtype
        self.output_extents = pipeline.output_extents
        self.arena = arena if arena is not None else BufferArena()
        self._out_np = self.output_dtype.to_numpy()
        self._out_shape = tuple(reversed(self.output_extents))
        self._out_size = (
            int(np.prod(self.output_extents)) if self.output_extents else 1
        )
        #: resolved once — steady-state runs never consult the cache
        self.kernel: Optional["CompiledKernel"] = None
        if backend == "compile":
            self.kernel = pipeline.kernel_cache.get(
                pipeline.lowered, key=pipeline.cache_key
            )
        # bound per input-shape signature
        self._buffers: Dict[str, Buffer] = {}
        self._env: dict = {}
        #: (key, buffer, shape, source dtype, needs bf16 rounding)
        self._ingest: Tuple[tuple, ...] = ()
        self._out_buffer: Optional[Buffer] = None
        self.runs = 0
        self.rebinds = 0

    # -- binding -------------------------------------------------------------

    def _bind(self, inputs: dict) -> None:
        """Full (slow-path) bind: wrap every input, derive the env."""
        buffers, entries, out, self._env = _bind_request(self.pipeline, inputs)
        self._buffers = buffers
        self._ingest = tuple(
            (
                key,
                buf,
                array.shape,
                array.dtype,
                buf.dtype.code is TypeCode.BFLOAT,
            )
            for key, buf, array in entries
        )
        self._out_buffer = out
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

    # -- execution -----------------------------------------------------------

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
        if out is not None:
            _check_out(out, self._out_shape, self._out_np, inputs.values())
            flat = out.reshape(-1)
            flat.fill(0)  # match fresh-allocation semantics exactly
            result = out
        else:
            flat = np.zeros(self._out_size, dtype=self._out_np)
            result = flat.reshape(self._out_shape)
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
            # a failed run may leave the bound buffers and the arena in
            # a partial state: drop both, so whoever holds this plan
            # gets a clean bind on the next run (cheap: the kernel
            # stays resolved)
            self._out_buffer = None
            self.arena = BufferArena(self.arena.memo_maxsize)
            raise
        self.runs += 1
        return result

    def stats(self) -> Dict[str, int]:
        """Run/rebind counters plus the arena's pooling counters."""
        stats = {"runs": self.runs, "rebinds": self.rebinds}
        stats.update(self.arena.stats())
        return stats


class BatchingUnsupported(RuntimeError):
    """A request batch cannot take the batch-axis path.

    Raised by :class:`BatchedExecutionPlan` when the bucket is ragged
    (shapes/dtypes differ across requests), a request is not a plain
    ndarray mapping, or the statement has no batch-axis kernel for the
    bucket's stacked set (e.g. per-request weights feeding a shuffle
    constructor).  Callers — ``CompiledPipeline.run_many`` and
    ``repro.service.Server`` — catch it and fall back to the looped
    per-request path, so it is a routing signal, not an error.
    """


class BatchedExecutionPlan:
    """A pipeline pre-bound to run a whole shape bucket per kernel call.

    Where :class:`ExecutionPlan` runs one request at a time, this plan
    stages a batch of same-shaped requests into contiguous ``[B, size]``
    stacked buffers, invokes one batch-axis kernel
    (:func:`repro.runtime.codegen.compile_batched_stmt`), and scatters
    the stacked output back into per-request views.  Inputs whose array
    is the *same object* across every request of a batch — the serving
    idiom for weights — are bound as plain shared buffers, so their
    derived shuffle operands are computed once per batch by
    construction.

    The compiled kernels are B-agnostic: one kernel serves every batch
    size of a bucket, and only a change in shapes, dtypes, or the
    shared/stacked split rebinds (which also drops all previously grown
    staging storage — stale staging from an old shape is never reused).

    Not thread-safe — callers serialize access (``Server`` holds a
    lock; ``run_many`` uses one plan under a lock).
    """

    def __init__(
        self,
        pipeline: "CompiledPipeline",
        arena: Optional[BufferArena] = None,
    ) -> None:
        self.pipeline = pipeline
        self.output_name = pipeline.output_name
        self.output_dtype = pipeline.output_dtype
        self.output_extents = pipeline.output_extents
        self.arena = arena if arena is not None else BufferArena()
        self._out_np = self.output_dtype.to_numpy()
        self._out_shape = tuple(reversed(self.output_extents))
        self._out_size = (
            int(np.prod(self.output_extents)) if self.output_extents else 1
        )
        self.kernel: Optional["CompiledKernel"] = None
        self._buffers: Dict[str, object] = {}
        self._env: dict = {}
        #: (key, buffer, shape, source dtype, needs bf16 rounding)
        self._shared: Tuple[tuple, ...] = ()
        #: (key, stacked buffer, shape, source dtype, needs bf16
        #: rounding, staging numpy dtype)
        self._stacked: Tuple[tuple, ...] = ()
        #: name -> [capacity, size] staging block (grown, never shrunk)
        self._staging: Dict[str, np.ndarray] = {}
        self._out_sb: Optional[StackedBuffer] = None
        self.runs = 0
        self.rebinds = 0
        self.batched_requests = 0

    # -- binding -------------------------------------------------------------

    def _bind(self, requests: List[dict]) -> None:
        """Full bind against the first request's geometry.

        Classifies each input as *shared* (same array object in every
        request) or *stacked*, resolves the batch-axis kernel for that
        split, and rebuilds all staging storage from scratch — a rebind
        on shape change therefore also invalidates any batched staging
        left over from the previous geometry.
        """
        _, entries, out, env = _bind_request(self.pipeline, requests[0])
        many = len(requests) > 1
        shared = []
        stacked = []
        stacked_names = {self.output_name}
        kernel_buffers: Dict[str, object] = {}
        for key, buf, array in entries:
            needs_round = buf.dtype.code is TypeCode.BFLOAT
            is_shared = not many or all(
                r.get(key) is array for r in requests[1:]
            )
            if is_shared:
                shared.append(
                    (key, buf, array.shape, array.dtype, needs_round)
                )
                kernel_buffers[buf.name] = buf
            else:
                sbuf = StackedBuffer.like(buf, len(requests))
                stacked.append(
                    (
                        key,
                        sbuf,
                        array.shape,
                        array.dtype,
                        needs_round,
                        buf.dtype.to_numpy(),
                    )
                )
                stacked_names.add(buf.name)
                kernel_buffers[buf.name] = sbuf
        out_sb = StackedBuffer.like(out, len(requests))
        kernel_buffers[self.output_name] = out_sb
        kernel = self.pipeline.batched_kernel(frozenset(stacked_names))
        if kernel is None:
            raise BatchingUnsupported(
                "no batch-axis kernel for stacked buffers "
                + ", ".join(sorted(stacked_names))
            )
        self.kernel = kernel
        self._buffers = kernel_buffers
        self._env = env
        self._shared = tuple(shared)
        self._stacked = tuple(stacked)
        self._staging = {}
        self._out_sb = out_sb
        self.rebinds += 1

    def _stage(self, sbuf: StackedBuffer, batch: int, np_dtype) -> np.ndarray:
        block = self._staging.get(sbuf.name)
        if block is None or block.shape[0] < batch:
            block = np.empty((batch, sbuf.size), dtype=np_dtype)
            self._staging[sbuf.name] = block
        return block[:batch]

    def _ingest(self, requests: List[dict]) -> bool:
        """Stage a batch into the bound buffers; False on any mismatch.

        Validates every request before copying anything, so a mismatch
        never leaves a half-staged batch behind.
        """
        if self._out_sb is None:
            return False
        batch = len(requests)
        n_keys = len(self._shared) + len(self._stacked)
        for r in requests:
            if len(r) != n_keys:
                return False
        for key, buf, shape, src_dtype, _ in self._shared:
            array = requests[0].get(key)
            if not _matches(array, shape, src_dtype):
                return False
            for r in requests[1:]:
                if r.get(key) is not array:
                    return False
        for key, sbuf, shape, src, _, _ in self._stacked:
            if not all(_matches(r.get(key), shape, src) for r in requests):
                return False
        # shared inputs: swap the data view, exactly like ExecutionPlan
        for key, buf, shape, src_dtype, needs_round in self._shared:
            _swap_in(buf, requests[0][key], needs_round)
        # stacked inputs: one contiguous [B, size] staging block; row b
        # holds exactly what request b's per-request Buffer would hold
        for key, sbuf, shape, src_dtype, needs_round, np_dtype in (
            self._stacked
        ):
            block = self._stage(sbuf, batch, np_dtype)
            for b, r in enumerate(requests):
                block[b] = r[key].reshape(-1)
            if needs_round:
                block[:] = round_to_bfloat16(block)
            sbuf.data = block
            sbuf.batch = batch
        return True

    # -- execution -----------------------------------------------------------

    def run(
        self,
        requests: List[dict],
        out: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Run a whole bucket in one kernel call.

        Returns per-request output arrays (views of one stacked block).
        ``out``, when given, must be a writeable C-contiguous
        ``[B, *output_shape]`` array of the output dtype; the kernel
        writes it directly and the returned views alias it.

        Raises :class:`BatchingUnsupported` when the batch cannot be
        staged (ragged shapes, non-array requests) or no batch-axis
        kernel exists for its shared/stacked split.
        """
        requests = list(requests)
        batch = len(requests)
        if batch == 0:
            return []
        for r in requests:
            if not isinstance(r, dict):
                raise BatchingUnsupported("requests must be input dicts")
        if not self._ingest(requests):
            self._bind(requests)
            if not self._ingest(requests):
                raise BatchingUnsupported(
                    "ragged batch: request shapes/dtypes differ"
                )
        out_shape = (batch,) + self._out_shape
        if out is not None:
            _check_out(
                out,
                out_shape,
                self._out_np,
                (array for r in requests for array in r.values()),
            )
            flat = out.reshape(batch, -1)
            flat.fill(0)  # match fresh-allocation semantics exactly
            results = [out[b] for b in range(batch)]
        else:
            flat = np.zeros((batch, self._out_size), dtype=self._out_np)
            results = [
                flat[b].reshape(self._out_shape) for b in range(batch)
            ]
        self._out_sb.data = flat
        self._out_sb.batch = batch
        self._env["batch.size"] = batch
        fire("kernel.compile", batched=True)
        self.kernel(self._buffers, self._env, arena=self.arena)
        self.runs += 1
        self.batched_requests += batch
        return results

    def stats(self) -> Dict[str, int]:
        """Run/rebind/request counters plus the arena's counters."""
        stats = {
            "runs": self.runs,
            "rebinds": self.rebinds,
            "batched_requests": self.batched_requests,
        }
        stats.update(self.arena.stats())
        return stats
