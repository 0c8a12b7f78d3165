"""Realizing compiled pipelines against numpy inputs.

A :class:`CompiledPipeline` can execute through either backend:

``backend="interpret"``
    The tree-walking interpreter — the *instrumented* path.  It records
    op/byte :class:`~repro.runtime.counters.Counters` for the roofline
    performance model and bounds-checks every access.

``backend="compile"``
    The compiled NumPy backend (:mod:`.codegen`) — the *fast* path.
    The lowered statement is translated once into vectorized NumPy
    source, memoized in the process-wide kernel cache, and re-run
    without per-node dispatch overhead.  It produces identical outputs
    but records nothing, so any run that passes ``counters`` is routed
    through the interpreter regardless of the configured backend.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Union

import numpy as np

from ..frontend.func import Func, ImageParam
from ..ir import Call, CallType, DataType, as_int
from ..lowering.build import reachable_funcs
from ..lowering.pipeline import Lowered, lower
from .counters import Counters
from .faultpoints import fire
from .interpreter import Interpreter
from .kernel_cache import (
    DEFAULT_CACHE,
    KernelCache,
    batched_key,
    fingerprint_stmt,
)
from .plan import (
    BatchingUnsupported,
    BufferArena,
    ExecutionPlan,
    bind_request,
)

# importing the target simulators registers their intrinsic handlers
from ..targets import amx as _amx  # noqa: F401
from ..targets import dp4a as _dp4a  # noqa: F401
from ..targets import wmma as _wmma  # noqa: F401
from ..hardboiled import intrinsics as _hb_intrinsics  # noqa: F401

InputMap = Dict[Union[str, ImageParam], np.ndarray]

BACKENDS = ("interpret", "compile")


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def _check_on_error(on_error: str) -> None:
    if on_error not in ("raise", "return"):
        raise ValueError(
            f"on_error must be 'raise' or 'return', got {on_error!r}"
        )


class RequestError(RuntimeError):
    """One request of a ``run_many`` batch failed.

    Returned *in place of* that request's output when the batch runs
    with ``on_error="return"``, so a single poisoned request cannot
    take down its whole bucket.  The original exception — with its
    traceback attached — is preserved on :attr:`original`; the failing
    request's position in the batch on :attr:`index`.
    """

    def __init__(self, index: int, original: BaseException) -> None:
        super().__init__(
            f"request {index} failed:"
            f" {type(original).__name__}: {original}"
        )
        self.index = index
        self.original = original


class CompiledPipeline:
    """A lowered pipeline ready to run repeatedly."""

    def __init__(
        self,
        lowered: Lowered,
        backend: str = "interpret",
        kernel_cache: Optional[KernelCache] = None,
    ) -> None:
        self.lowered = lowered
        self.backend = _check_backend(backend)
        # explicit None-check: an empty cache is falsy (it has __len__)
        self.kernel_cache = (
            kernel_cache if kernel_cache is not None else DEFAULT_CACHE
        )
        self.output_name = lowered.output.name
        info = lowered.realizations[self.output_name]
        self.output_extents = tuple(as_int(e) for e in info.extents)
        self.output_dtype = lowered.output.dtype.element_of()
        #: kernel-cache key, computed once — the lowered stmt is immutable
        self._cache_key: Optional[str] = None
        #: stacked splits with no batch-axis kernel, so they are not
        #: retried; only ever grows, and racing resolvers add the same
        #: answer, so a GIL-atomic set needs no lock
        self._unbatchable: Set[FrozenSet[str]] = set()
        #: the one plan batch-axis run_many calls without plan= share
        # guarded-by: _lock
        self._default_plan: Optional[ExecutionPlan] = None
        self._lock = threading.Lock()
        #: optional ArtifactStore persisting kernels across processes;
        #: wired by compile_lowered and App.compile(cache_dir=...)
        self.artifact_store = None

    @functools.cached_property
    def input_dtypes(self) -> Dict[str, DataType]:
        """Declared dtype of every input image by name, so a request
        keyed by name binds exactly like one keyed by ``ImageParam``
        (walked on the first bind, not at compile time)."""
        return _declared_inputs(self.lowered.output)

    @property
    def cache_key(self) -> str:
        """The kernel-cache key (structural stmt fingerprint), memoized."""
        if self._cache_key is None:
            self._cache_key = fingerprint_stmt(self.lowered.stmt)
        return self._cache_key

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss accounting of this pipeline's kernel cache.

        Keys: ``hits``, ``misses`` (restored from the artifact store or
        compiled), ``entries``.  Note the cache may be the shared
        process-wide default, in which case the counters aggregate over
        every pipeline using it.
        """
        return self.kernel_cache.stats()

    def seed_kernel(self, kernel) -> None:
        """Install a restored kernel so the first compiled run skips codegen.

        The warm-start path (:mod:`repro.service`) re-hydrates kernels
        from on-disk compile artifacts; seeding puts one into this
        pipeline's kernel cache under this pipeline's key.  A kernel
        whose recorded key disagrees with the lowered statement's
        fingerprint is rejected (it was compiled from different IR).
        """
        if kernel.key and kernel.key != self.cache_key:
            raise ValueError(
                f"kernel key {kernel.key[:12]}... does not match this"
                f" pipeline's statement ({self.cache_key[:12]}...)"
            )
        self.kernel_cache.put(self.cache_key, kernel)

    def plan(
        self,
        backend: Optional[str] = None,
        arena: Optional[BufferArena] = None,
    ) -> ExecutionPlan:
        """An :class:`~.plan.ExecutionPlan` pre-bound for repeated runs.

        The plan resolves the kernel once and reuses buffers, the
        stride environment, and an allocation arena across calls, so a
        steady-state ``plan.run(inputs)`` does no fingerprinting, no
        kernel-cache lookup, no env rebuild, and no input copy for
        contiguous correctly-typed arrays.  Plans are not thread-safe;
        create one per worker (:meth:`run_many` does).
        """
        mode = (
            _check_backend(backend) if backend is not None else self.backend
        )
        return ExecutionPlan(self, mode, arena=arena)

    def kernel(self, stacked: FrozenSet[str] = frozenset()):
        """The compiled kernel for one shared/stacked input split.

        The empty split is the per-request kernel; any other names the
        buffers carrying a leading batch axis (keyed by
        :func:`~.kernel_cache.batched_key`).  Both resolve the same way:
        the kernel cache, then the artifact store if one is wired, then
        codegen — persisted to the store.  Returns ``None``, and
        remembers it, when the split cannot be batch-compiled
        (per-request weights feeding a shuffle constructor,
        data-dependent addressing, ...).
        """
        from .codegen import CodegenError, compile_batched_stmt, compile_stmt

        stacked = frozenset(stacked)
        if stacked in self._unbatchable:
            return None
        key = self.cache_key
        if stacked:
            key = batched_key(key, stacked)
        kernel = self.kernel_cache.fetch(key)
        if kernel is not None:
            return kernel
        # restore / compile outside any lock (codegen can take seconds);
        # racing resolvers store equivalent kernels, the last put wins
        store = self.artifact_store
        kernel = store.get_kernel(key) if store is not None else None
        if kernel is None:
            stmt = self.lowered.stmt
            try:
                kernel = (
                    compile_batched_stmt(stmt, stacked, key=key)
                    if stacked
                    else compile_stmt(stmt, key=key)
                )
            except CodegenError:
                self._unbatchable.add(stacked)
                return None
            if store is not None:
                store.put_kernel(key, kernel)
        self.kernel_cache.put(key, kernel)
        return kernel

    def run_many(
        self,
        requests: Sequence[Optional[InputMap]],
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        batch_axis: Optional[bool] = None,
        on_error: str = "raise",
        plan: Optional[ExecutionPlan] = None,
    ) -> List[np.ndarray]:
        """Run a batch of same-shaped requests, optionally in parallel.

        On the compiled backend the whole bucket is first routed
        through one batch-axis kernel call
        (:meth:`~.plan.ExecutionPlan.run_batch`): inputs whose array is
        the same object in every request (the serving idiom for
        weights) stay shared, the rest are stacked ``[B, ...]``.
        Buckets the batched path cannot take — ragged shapes,
        per-request weights feeding shuffle constructors, the
        interpreter backend — transparently fall back to the looped
        path below.  ``batch_axis=False`` forces the looped path;
        ``batch_axis=True`` skips the fallback and raises
        :class:`~.plan.BatchingUnsupported` instead.

        The looped path fans requests over ``workers`` threads (NumPy
        releases the GIL inside kernels), each with its own
        :class:`~.plan.ExecutionPlan` and arena.  Results are returned
        in request order and are bit-identical across all three paths.
        ``workers=None`` picks ``min(len(requests), cpu_count)``;
        ``workers=1`` runs the batch on one plan in the calling thread.
        ``plan`` is one plan held by the caller across calls (a serving
        worker's): both paths then run on it in the calling thread, so
        one set of bound buffers, one arena and one shuffle-operand
        memo stay warm from one batch to the next.  Without it the
        batch-axis path runs on the pipeline's one default plan, under
        its lock, and the looped path builds plans per call.  Counters
        are not supported here — use :meth:`run` for instrumented
        executions.

        ``on_error`` selects the failure policy.  ``"raise"`` (the
        default) propagates the first failure.  ``"return"`` isolates
        failures per request: the returned list holds a
        :class:`RequestError` (original exception + traceback attached)
        at each failing index and real outputs everywhere else.  A
        batch-axis kernel failure cannot be pinned on one request — the
        bucket is one kernel call — so the bucket transparently re-runs
        on the looped path for isolation, unless ``batch_axis=True``
        was explicit (then the error propagates as-is).
        """
        _check_on_error(on_error)
        mode = (
            _check_backend(backend) if backend is not None else self.backend
        )
        if plan is not None:
            if plan.pipeline is not self or plan.backend != mode:
                raise ValueError(
                    "plan= must be a plan of this pipeline on the"
                    f" {mode!r} backend"
                )
            workers = 1  # a plan is not thread-safe
        requests = list(requests)
        if not requests:
            return []
        explicit = batch_axis is True
        if batch_axis is None:
            batch_axis = mode == "compile"
        if batch_axis:
            if mode != "compile":
                raise BatchingUnsupported(
                    "batch-axis execution requires the compiled backend"
                )
            try:
                if plan is not None:
                    return plan.run_batch(requests)
                with self._lock:
                    if self._default_plan is None:
                        self._default_plan = ExecutionPlan(self, mode)
                    return self._default_plan.run_batch(requests)
            except BatchingUnsupported:
                if explicit:
                    raise
            except Exception:
                # a mid-kernel failure in the single batch-axis call
                # has no owning request; fall through to the looped
                # path so one bad request fails alone
                if explicit or on_error == "raise":
                    raise
        if workers is None:
            workers = os.cpu_count() or 1
        workers = max(1, min(int(workers), len(requests)))
        results: List[Optional[np.ndarray]] = [None] * len(requests)

        def run_span(start: int, stop: int) -> None:
            span_plan = plan if plan is not None else self.plan(backend=mode)
            for i in range(start, stop):
                try:
                    results[i] = span_plan.run(requests[i])
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    # the failed run reset the plan's bound state, so
                    # the next request starts from a clean bind
                    results[i] = RequestError(i, exc)

        if workers == 1:
            run_span(0, len(requests))
            return results
        chunk = -(-len(requests) // workers)  # ceil division

        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    run_span, start, min(start + chunk, len(requests))
                )
                for start in range(0, len(requests), chunk)
            ]
            for future in futures:
                future.result()  # propagate the first worker error
        return results

    def run(
        self,
        inputs: Optional[InputMap] = None,
        counters: Optional[Counters] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        mode = (
            _check_backend(backend) if backend is not None else self.backend
        )
        if counters is not None:
            # instrumentation lives only in the interpreter
            mode = "interpret"
        # one wrapping + env rule shared with the plan path (plan.py)
        buffers, _, out, env = bind_request(self, inputs or {})
        if mode == "compile":
            kernel = self.kernel()
            fire("kernel.compile")
            kernel(buffers, env)
            return out.to_numpy()
        fire("kernel.interpret")
        interp = Interpreter(buffers, counters)
        interp.run(self.lowered.stmt, env)
        if counters is not None:
            from .interpreter import memory_level

            for buf in buffers.values():
                level = memory_level(buf)
                counters.add_load(
                    f"{level}_unique", buf.load_footprint_bytes()
                )
                counters.add_store(
                    f"{level}_unique", buf.store_footprint_bytes()
                )
        return out.to_numpy()


def _declared_inputs(output: Func) -> Dict[str, DataType]:
    """``{image name: declared dtype}`` over the Func DAG under ``output``."""
    found: Dict[str, DataType] = {}

    def visit(node) -> None:
        if isinstance(node, Call) and node.call_type == CallType.IMAGE:
            found[node.name] = node.dtype
        for child in node.children():
            visit(child)

    for func in reachable_funcs(output):
        for stage in func.stages():
            for expr in (stage.value, *stage.args):
                visit(expr)
    return found


def compile_pipeline(
    output: Func,
    backend: str = "interpret",
    kernel_cache: Optional[KernelCache] = None,
    **lower_kwargs,
) -> CompiledPipeline:
    return CompiledPipeline(
        lower(output, **lower_kwargs),
        backend=backend,
        kernel_cache=kernel_cache,
    )


def realize(
    output: Func,
    inputs: Optional[InputMap] = None,
    counters: Optional[Counters] = None,
    backend: str = "interpret",
    kernel_cache: Optional[KernelCache] = None,
    **lower_kwargs,
) -> np.ndarray:
    """One-shot: lower, run, and return the output as a numpy array.

    The output array follows numpy convention (outermost dimension first);
    the Func's first argument is the last numpy axis.  ``kernel_cache``
    lets one-shot callers route codegen through a private cache instead
    of the process-wide default.
    """
    return compile_pipeline(
        output, backend=backend, kernel_cache=kernel_cache, **lower_kwargs
    ).run(inputs, counters)
