"""The batched serving front-end: persistent workers over one pipeline.

``CompiledPipeline.run_many`` builds its worker plans per batch; a
:class:`Server` keeps them alive across batches, which is what a real
serving process wants — the kernel stays bound, the stride env stays
built, the arenas stay warm (pooled tile buffers, cached shuffle
matrices), and every request after the first pays only kernel time.

::

    from repro.service import Server

    with Server(app.compile(), workers=4) as server:
        outputs = server.run_many(requests)        # ordered, parallel
        one = server.run(request)                  # single, synchronous
        future = server.submit(request)            # overlap with caller

Each worker thread owns one :class:`~repro.runtime.plan.ExecutionPlan`
(created lazily on the thread's first request), so no plan is ever
shared between threads; the pipeline's :class:`KernelCache` is
thread-safe and shared, and a batch-axis bucket runs on the pipeline's
default plan, behind the pipeline's lock.  Outputs are bit-identical
to sequential ``pipeline.run`` on either backend — asserted by the
serving benchmark and test suite.

Fault tolerance
---------------

The server survives faulty kernels instead of propagating every
failure to the caller:

* each request gets ``retries`` extra attempts (the compute is pure,
  so re-running is always safe);
* a :class:`~repro.service.faults.CircuitBreaker` per degradable path:
  repeated *consecutive* failures of the compiled backend degrade the
  server to the interpreter (bit-identical outputs, slower), and
  repeated batch-axis failures route ``run_many`` through the
  per-request worker pool;
* ``max_pending`` bounds admission — ``submit`` blocks for
  backpressure or raises :class:`RejectedError` with ``block=False``;
* ``close()`` is idempotent and drains in-flight work; submissions
  racing a close get a typed :class:`ServerClosed`.

Every recovery action is counted in :meth:`Server.stats`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..runtime.executor import (
    CompiledPipeline,
    InputMap,
    RequestError,
    _check_backend,
    _check_on_error,
)
from ..runtime.plan import BatchingUnsupported, ExecutionPlan
from .faults import CircuitBreaker


class ServerClosed(RuntimeError):
    """The server is closed — no new work is accepted."""

    def __init__(self, message: str = "server is closed") -> None:
        super().__init__(message)


class RejectedError(RuntimeError):
    """Admission control rejected the request (pending queue full)."""


class ShedError(RejectedError):
    """Adaptive overload shedding rejected (or evicted) the request.

    A subclass of :class:`RejectedError` so existing shed-on-reject
    callers keep working; raised by the router's queue-sojourn shedder,
    per-bucket depth caps, and best-effort lane eviction rather than
    the static ``max_pending`` bound.
    """


def gather(
    submit: Callable[[object], Future],
    requests: Sequence[object],
    on_error: str = "raise",
) -> list:
    """Submit every request, then collect the outputs in request order.

    The one ``run_many`` tail of the serving front ends (``Server``,
    ``WorkerPool``, ``Router``): ``submit(request)`` returns a future
    or raises an admission error.  ``on_error="return"`` puts a
    :class:`~repro.runtime.executor.RequestError` at each failed index
    — requests rejected or shed mid-stream included — instead of
    raising on the first.
    """
    _check_on_error(on_error)
    items: list = []
    for index, request in enumerate(requests):
        try:
            items.append(submit(request))
        except (RejectedError, ServerClosed) as exc:
            if on_error == "raise":
                # await what was admitted (its work is the front end's
                # to finish either way), then surface the admission
                # error: submitted work is never silently abandoned
                wait([item for item in items if isinstance(item, Future)])
                raise
            items.append(RequestError(index, exc))
    results: list = []
    for index, item in enumerate(items):
        if isinstance(item, RequestError):
            results.append(item)
            continue
        try:
            results.append(item.result())
        except Exception as exc:
            if on_error == "raise":
                raise
            results.append(RequestError(index, exc))
    return results


class Server:
    """Serve one compiled pipeline from a pool of plan-holding workers.

    Parameters
    ----------
    pipeline:
        A :class:`CompiledPipeline`, or anything with a ``.compile()``
        returning one (an :class:`repro.apps.common.App`).
    workers:
        Worker-thread count; defaults to the machine's CPU count.
    backend:
        Execution backend for every request; defaults to the
        pipeline's.  Counters are not supported on the serving path —
        use ``pipeline.run(counters=...)`` for instrumented runs.
    batch_axis:
        Batch routing policy for :meth:`run_many`.  ``None`` (default)
        tries the one-kernel-call batched path on the compiled backend
        and silently falls back to the worker pool when a bucket is
        unbatchable (ragged shapes, per-request weights feeding
        shuffles); ``False`` always fans out over the pool;
        ``True`` requires the batched path and raises
        :class:`~repro.runtime.plan.BatchingUnsupported` otherwise.
    retries:
        Extra attempts per request after a failure (default 1).  The
        pipeline is pure compute, so a retry can never double-apply
        anything; a failed attempt also rebuilds the worker's plan in
        case the failure left partial buffer state.
    retry_delay:
        Base backoff between attempts, scaled linearly per attempt.
    max_pending:
        Admission bound: at most this many requests may be in flight
        (queued + running).  ``None`` (default) is unbounded.  When
        full, ``submit(block=True)`` applies backpressure and
        ``submit(block=False)`` raises :class:`RejectedError`.
    breaker_threshold:
        Consecutive failures before a circuit breaker trips (see
        module docstring).
    """

    def __init__(
        self,
        pipeline,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        batch_axis: Optional[bool] = None,
        retries: int = 1,
        retry_delay: float = 0.005,
        max_pending: Optional[int] = None,
        breaker_threshold: int = 3,
    ) -> None:
        if not isinstance(pipeline, CompiledPipeline):
            pipeline = pipeline.compile()
        self.pipeline = pipeline
        self.backend = (
            _check_backend(backend) if backend is not None else pipeline.backend
        )
        import os

        self.workers = (
            int(workers) if workers is not None else (os.cpu_count() or 1)
        )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        self.retries = int(retries)
        self.retry_delay = float(retry_delay)
        self.max_pending = max_pending
        self._admission = (
            threading.Semaphore(max_pending)
            if max_pending is not None
            else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        #: lifecycle lock makes the closed-check + pool submit atomic
        #: against close(); never held while blocking on admission or
        #: while draining, so submitters cannot deadlock a closer.
        self._lifecycle = threading.Lock()
        self._plans: List[ExecutionPlan] = []  # guarded-by: _lock
        self._closed = False  # guarded-by: _lifecycle
        self.batch_axis = batch_axis
        self.requests_served = 0  # guarded-by: _lock
        self.batches_served = 0  # guarded-by: _lock
        self.batched_batches = 0  # guarded-by: _lock
        self.failures = 0  # guarded-by: _lock
        self.retries_performed = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock
        #: trips -> plans degrade from the compiled backend to the
        #: interpreter (same outputs; see the parity test suite)
        self.backend_breaker = CircuitBreaker(
            threshold=breaker_threshold, name="backend"
        )
        #: trips -> run_many stops attempting the batch-axis kernel
        #: and fans buckets over the per-request worker pool
        self.batch_breaker = CircuitBreaker(
            threshold=breaker_threshold, name="batch-axis"
        )
        self._degraded_backend: Optional[str] = None  # guarded-by: _lock
        #: bumped whenever the effective backend changes so worker
        #: threads drop their cached plan and rebuild on the new path
        self._plan_generation = 0  # guarded-by: _lock

    # -- worker-side ---------------------------------------------------------

    def _effective_backend(self) -> str:
        with self._lock:
            return self._degraded_backend or self.backend

    def _plan(self) -> ExecutionPlan:
        with self._lock:
            generation = self._plan_generation
            backend = self._degraded_backend or self.backend
        entry = getattr(self._local, "plan_entry", None)
        if entry is not None and entry[0] == generation:
            return entry[1]
        plan = self.pipeline.plan(backend=backend)
        self._local.plan_entry = (generation, plan)
        with self._lock:
            self._plans.append(plan)
        return plan

    def _record_backend_failure(self) -> None:
        tripped = self.backend_breaker.record_failure()
        if tripped and self._effective_backend() == "compile":
            with self._lock:
                self._degraded_backend = "interpret"
                self._plan_generation += 1
            # the degraded path starts with a clean failure streak;
            # the trip stays counted in breaker stats
            self.backend_breaker.reset()

    def _run_one(
        self, request: Optional[InputMap], out: Optional[np.ndarray]
    ) -> np.ndarray:
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                result = self._plan().run(request, out=out)
            except Exception:
                with self._lock:
                    self.failures += 1
                self._record_backend_failure()
                if attempt + 1 >= attempts:
                    raise
                with self._lock:
                    self.retries_performed += 1
                time.sleep(self.retry_delay * (attempt + 1))
            else:
                self.backend_breaker.record_success()
                with self._lock:
                    self.requests_served += 1
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        request: Optional[InputMap],
        out: Optional[np.ndarray] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[np.ndarray]":
        """Enqueue one request; the future resolves to its output array.

        Input arrays are bound **zero-copy** — the worker reads the
        caller's memory while the request is in flight.  Do not mutate
        a request's arrays (or a passed ``out``) until the future has
        resolved; ``run``/``run_many`` block, so this only concerns
        ``submit`` callers overlapping their own work.

        With ``max_pending`` set, a full server blocks the caller
        (backpressure) until a slot frees, up to ``timeout`` seconds;
        ``block=False`` raises :class:`RejectedError` immediately
        instead.  A closed server raises :class:`ServerClosed`.
        """
        acquired = False
        if self._admission is not None:
            if block:
                acquired = (
                    self._admission.acquire(timeout=timeout)
                    if timeout is not None
                    else self._admission.acquire()
                )
            else:
                acquired = self._admission.acquire(blocking=False)
            if not acquired:
                with self._lock:
                    self.rejected += 1
                raise RejectedError(
                    f"admission queue full ({self.max_pending} pending)"
                )
        try:
            with self._lifecycle:
                if self._closed:
                    raise ServerClosed()
                try:
                    future = self._pool.submit(self._run_one, request, out)
                except RuntimeError as exc:
                    # pool shut down between flag-set and our check —
                    # cannot happen while we hold the lifecycle lock,
                    # but keep the typed error as a belt-and-braces
                    raise ServerClosed() from exc
        except BaseException:
            if acquired:
                self._admission.release()
            raise
        if self._admission is not None:
            future.add_done_callback(lambda _f: self._admission.release())
        return future

    def run(self, request: Optional[InputMap] = None) -> np.ndarray:
        """Run one request synchronously on the worker pool."""
        return self.submit(request).result()

    def run_many(
        self,
        requests: Sequence[Optional[InputMap]],
        batch_axis: Optional[bool] = None,
        on_error: str = "raise",
    ) -> List[np.ndarray]:
        """Run a batch; outputs come back in request order.

        Same-shape buckets on the compiled backend go through **one**
        batch-axis kernel call (weights shared, data inputs stacked
        ``[B, ...]``); anything the batched path cannot take falls back
        to fanning out over the worker pool.  ``batch_axis`` overrides
        the server-wide policy for this call (see the constructor).

        A batch-axis kernel *failure* (as opposed to an unsupported
        bucket) also falls back to the pool — one kernel call covers
        every request, so per-request isolation and retries require the
        looped path — and feeds the batch breaker; once tripped, later
        buckets skip the batched attempt entirely.  ``on_error="return"``
        isolates failures per request: the result list carries a
        :class:`~repro.runtime.executor.RequestError` at each failed
        index instead of raising.
        """
        _check_on_error(on_error)
        with self._lifecycle:
            if self._closed:
                raise ServerClosed()
        requests = list(requests)
        if not requests:
            return []
        if batch_axis is None:
            batch_axis = self.batch_axis
        explicit = batch_axis is True
        if batch_axis is None:
            batch_axis = self.backend == "compile"
        if batch_axis:
            if self.backend != "compile":
                raise BatchingUnsupported(
                    "batch-axis serving requires the compiled backend"
                )
            healthy = (
                self._effective_backend() == "compile"
                and self.batch_breaker.allow()
            )
            if not healthy and explicit:
                raise BatchingUnsupported(
                    "batch-axis path disabled (backend degraded or"
                    " batch breaker open)"
                )
            if healthy:
                try:
                    # one kernel call on the pipeline's default plan
                    results = self.pipeline.run_many(
                        requests, backend="compile", batch_axis=True
                    )
                except BatchingUnsupported:
                    if explicit:
                        raise
                except Exception:
                    with self._lock:
                        self.failures += 1
                    self.batch_breaker.record_failure()
                    if explicit:
                        raise
                    # fall through: the pool path retries per request
                else:
                    self.batch_breaker.record_success()
                    with self._lock:
                        self.requests_served += len(requests)
                        self.batches_served += 1
                        self.batched_batches += 1
                    return results
        results = gather(self.submit, requests, on_error)
        with self._lock:
            self.batches_served += 1
        return results

    def stats(self) -> Dict[str, object]:
        """Serving counters plus per-worker plan/arena statistics.

        Beyond throughput counters this reports every recovery action:
        ``retries`` / ``failures`` / ``rejected``, the effective
        backend after any degradation, both circuit breakers (trip
        counts included), and — when the pipeline has an artifact
        store — its IO-retry and quarantine counters.
        """
        with self._lock:
            stats: Dict[str, object] = {
                "workers": self.workers,
                "requests": self.requests_served,
                "batches": self.batches_served,
                "batched_batches": self.batched_batches,
                "failures": self.failures,
                "retries": self.retries_performed,
                "rejected": self.rejected,
                "backend": self.backend,
                "effective_backend": self._degraded_backend or self.backend,
                "degraded": self._degraded_backend is not None,
                "max_pending": self.max_pending,
                "plans": [plan.stats() for plan in self._plans],
            }
        stats["breakers"] = {
            "backend": self.backend_breaker.stats(),
            "batch_axis": self.batch_breaker.stats(),
        }
        if self.pipeline.artifact_store is not None:
            stats["store"] = self.pipeline.artifact_store.stats.as_dict()
        batched_plan = self.pipeline.default_plan_stats()
        if batched_plan is not None:
            stats["batched_plan"] = batched_plan
        return stats

    def reset_breakers(self) -> None:
        """Operator action: close both breakers and un-degrade.

        Trip counts survive (see :meth:`CircuitBreaker.reset`); worker
        plans rebuild on the restored backend at their next request.
        """
        self.backend_breaker.reset()
        self.batch_breaker.reset()
        with self._lock:
            if self._degraded_backend is not None:
                self._degraded_backend = None
                self._plan_generation += 1

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission and complete every accepted request.

        The graceful lifecycle verb, mirroring ``Router.drain`` /
        ``WorkerPool.drain``.  For the thread-pool server a close
        already drains (the executor finishes queued + running work),
        so this is :meth:`close` with the drain guarantee spelled out:
        once it returns, every future handed out by :meth:`submit` is
        terminal.  ``timeout`` is accepted for interface symmetry; the
        executor shutdown itself is not interruptible, and the return
        value is always ``True``.
        """
        del timeout  # thread workers always finish; nothing to abort
        self.close()
        return True

    def close(self) -> None:
        """Drain in-flight requests and stop the workers (idempotent).

        The closed flag flips under the lifecycle lock — atomically
        against :meth:`submit` — so a submission racing a close either
        lands before the drain (and completes) or gets a typed
        :class:`ServerClosed`; work is never silently dropped.
        """
        with self._lifecycle:
            already = self._closed
            self._closed = True
        if not already:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            served = self.requests_served
        return (
            f"Server({self.pipeline.output_name!r}, workers={self.workers},"
            f" backend={self.backend!r}, requests={served})"
        )
