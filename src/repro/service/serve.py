"""The in-process serving front end: worker threads over one pipeline.

A :class:`Server` keeps one :class:`~repro.runtime.plan.ExecutionPlan`
per worker thread alive across requests — the kernel stays bound, the
stride env stays built, the arena stays warm (pooled tile buffers,
cached shuffle operands) — so every request after a thread's first
pays only kernel time::

    from repro.service import Server

    with Server(app.compile(), workers=4) as server:
        outputs = server.run_many(requests)        # ordered, parallel
        one = server.run(request)                  # single, synchronous
        future = server.submit(request)            # overlap with caller

Every request takes one path, a ``WorkerPool`` worker's: it is a
request record (:class:`_Request`, shared with the pool and the
router), admitted under one counting rule, dispatched to a worker
thread in a chunk of ``ceil(n / workers)``, run there as one
``pipeline.run_many(chunk, plan=<the thread's plan>,
on_error="return")`` call, and settled once.  A failed member is
retried alone (the compute is pure, so re-running is safe); a failed
batch-axis kernel call is re-run request by request inside
``run_many``; repeated compiled-backend failures trip a
:class:`~repro.service.faults.CircuitBreaker` that moves every plan to
the bit-identical interpreter.  ``drain`` / ``close`` settle every
accepted request; a submission racing them gets :class:`ServerClosed`.
Every recovery action is counted in :meth:`Server.stats`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from ..runtime.executor import (
    CompiledPipeline,
    InputMap,
    RequestError,
    _check_backend,
    _check_on_error,
)
from ..runtime.plan import ExecutionPlan
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


class DeadlineExceeded(RuntimeError):
    """A request overran its deadline; the worker was killed."""


class _Request:
    """One request, created once at its front door and carried as the
    same object to its terminal outcome, in any of the front ends."""

    __slots__ = (
        "id",
        "inputs",
        "future",
        "attempts",
        "idempotent",
        "expires_at",
        "queued_at",
        "not_before",
        "ledgers",
    )

    def __init__(self, inputs, idempotent, expires_at, queued_at):
        self.id: Optional[int] = None  # the pool's id, stamped on entry
        self.inputs = inputs
        self.future: "Future[np.ndarray]" = Future()
        self.attempts = 0  # dispatches so far
        self.idempotent = idempotent
        self.expires_at = expires_at  # absolute monotonic expiry, or None
        self.queued_at = queued_at  # monotonic submission time
        self.not_before = 0.0  # retry backoff gate (monotonic time)
        #: ``ledger(request, outcome, error)`` counters (the router's,
        #: the pool's, ...) that :meth:`settle` runs before resolving
        #: the future, so whoever it wakes reads counts that include it
        self.ledgers: List[Callable] = []

    def settle(self, result=None, error: Optional[BaseException] = None):
        """Resolve the future: this request's one terminal outcome.

        The outcome rule every ledger reads: a result is
        ``"completed"``; :class:`DeadlineExceeded`, raised only for a
        request whose own budget ran out, is ``"expired"``; a router
        eviction (:class:`ShedError`) is ``"shed"``; every other error
        is ``"failed"``.
        """
        if error is None:
            outcome = "completed"
        elif isinstance(error, DeadlineExceeded):
            outcome = "expired"
        elif isinstance(error, ShedError):
            outcome = "shed"
        else:
            outcome = "failed"
        for ledger in self.ledgers:
            ledger(self, outcome, error)
        if error is None:
            self.future.set_result(result)
        else:
            self.future.set_exception(error)


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
    """Serve one compiled pipeline from a pool of plan-holding threads.

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
    retries:
        Extra attempts per failed request (default 1), each alone; the
        failed run has already reset the plan, so a retry starts clean.
    retry_delay:
        Base backoff between attempts, scaled linearly per attempt.
    max_pending:
        Admission bound on requests in flight (queued + running);
        ``None`` (default) is unbounded.
    breaker_threshold:
        Consecutive compiled-backend failures before the server
        degrades to the interpreter.
    """

    def __init__(
        self,
        pipeline,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
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
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._local = threading.local()
        #: the one lock; it wakes submitters waiting for admission room
        #: and drainers waiting for the last accepted record to settle
        self._cond = threading.Condition()
        self._plans: List[ExecutionPlan] = []  # guarded-by: _cond
        #: admitted records not yet settled (queued + running)
        self._pending = 0  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        self.requests_served = 0  # guarded-by: _cond
        self.batches_served = 0  # guarded-by: _cond
        self.batched_batches = 0  # guarded-by: _cond
        self.failures = 0  # guarded-by: _cond
        self.retries_performed = 0  # guarded-by: _cond
        self.rejected = 0  # guarded-by: _cond
        #: open -> plans degrade from the compiled backend to the
        #: interpreter (same outputs; see the parity test suite)
        self.backend_breaker = CircuitBreaker(
            threshold=breaker_threshold, name="backend"
        )

    # -- worker-side ---------------------------------------------------------

    def _effective_backend(self) -> str:
        return self.backend if self.backend_breaker.allow() else "interpret"

    def _plan(self) -> ExecutionPlan:
        """This thread's one plan, rebuilt only when the effective
        backend — degraded, or restored by :meth:`reset_breakers` — no
        longer matches it."""
        backend = self._effective_backend()
        plan = getattr(self._local, "plan", None)
        if plan is None or plan.backend != backend:
            plan = self._local.plan = self.pipeline.plan(backend=backend)
            with self._cond:
                self._plans.append(plan)
        return plan

    def _serve(
        self,
        records: List[_Request],
        batch_axis: Optional[bool],
        attempt: int = 0,
    ) -> None:
        """The worker-thread function, the one execution rule: run
        ``records`` as one ``run_many`` call on this thread's plan — the
        call a pool worker makes — settle each success, and retry each
        failure alone, up to ``retries`` times with linear backoff."""
        if batch_axis is None and len(records) == 1:
            batch_axis = False  # a singleton runs straight on the plan
        try:
            plan = self._plan()
            batched = plan.batched_requests
            outputs = self.pipeline.run_many(
                [record.inputs for record in records],
                backend=plan.backend,
                batch_axis=batch_axis,
                on_error="return",
                plan=plan,
            )
        except Exception as exc:
            # no request owns the error: an explicit batch_axis=True
            # call could not take, or failed, the one batch-axis kernel
            # call the caller asked for (or the plan could not be
            # built).  The chunk fails whole and unretried, and every
            # record is still settled, so no caller or drain waits on it
            for record in records:
                record.settle(error=exc)
            return
        failed = [
            (record, output.original)
            for record, output in zip(records, outputs)
            if isinstance(output, RequestError)
        ]
        retry = attempt < self.retries
        # counted before any settle, so a woken caller reads them
        with self._cond:
            self.failures += len(failed)
            if retry:
                self.retries_performed += len(failed)
            if plan.batched_requests > batched:
                self.batched_batches += 1
        for record, output in zip(records, outputs):
            ok = not isinstance(output, RequestError)
            if plan.backend == "compile":
                if ok:
                    self.backend_breaker.record_success()
                else:
                    self.backend_breaker.record_failure()
            if ok:
                record.settle(output)
        for record, error in failed:
            if retry:
                time.sleep(self.retry_delay * (attempt + 1))
                self._serve([record], batch_axis, attempt + 1)
            else:
                record.settle(error=error)

    def _count(
        self, record: _Request, outcome: str, error: Optional[BaseException]
    ) -> None:
        """The server's ledger (see :meth:`_Request.settle`): the record
        leaves ``pending``, and admission and drain waiters re-check."""
        with self._cond:
            self._pending -= 1
            if outcome == "completed":
                self.requests_served += 1
            self._cond.notify_all()

    def _admit(
        self,
        requests: Sequence[Optional[InputMap]],
        batch_axis: Optional[bool],
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> List[Future]:
        """The one way in: admit ``requests`` as records under the one
        counting rule (``pending + k <= max_pending``, waiting for room
        when ``block``, up to ``timeout``) and dispatch them to a worker
        thread as one chunk."""
        records = [
            _Request(inputs, True, None, time.monotonic())
            for inputs in requests
        ]
        with self._cond:
            room = self._cond.wait_for(
                lambda: self._closed
                or self.max_pending is None
                or self._pending + len(records) <= self.max_pending,
                timeout if block else 0,
            )
            if self._closed:
                raise ServerClosed()
            if not room:
                self.rejected += len(records)
                raise RejectedError(
                    f"admission queue full ({self.max_pending} pending)"
                )
            self._pending += len(records)
        for record in records:
            record.ledgers.append(self._count)
            # running from admission: a caller cannot cancel it, so the
            # worker's settle always resolves it and drain always ends
            record.future.set_running_or_notify_cancel()
        # a close waits for these records, so the pool is still up
        self._pool.submit(self._serve, records, batch_axis)
        return [record.future for record in records]

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        request: Optional[InputMap],
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[np.ndarray]":
        """Admit one request; the future resolves to its output array.

        Input arrays are bound **zero-copy**: do not mutate them until
        the future has resolved.  A full server (``max_pending``)
        blocks the caller until a slot frees, up to ``timeout``
        seconds; ``block=False`` raises :class:`RejectedError`
        instead.  A closed server raises :class:`ServerClosed`.
        """
        [future] = self._admit([request], None, block, timeout)
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

        Chunks of ``ceil(n / workers)`` — the whole batch under
        ``batch_axis=True`` — are admitted in turn, each waiting for
        room, and each runs as one ``run_many(batch_axis=...)`` call on
        a worker thread's plan (see
        :meth:`~repro.runtime.executor.CompiledPipeline.run_many`).
        ``on_error="return"`` puts a
        :class:`~repro.runtime.executor.RequestError` at each failed
        index instead of raising.
        """
        requests = list(requests)
        size = len(requests)
        if not batch_axis:
            size = -(-size // self.workers)  # ceil division
        if self.max_pending is not None:
            size = min(size, self.max_pending)
        admitted: Deque[Future] = deque()

        def submit(start: int) -> Future:
            # the first member of each chunk admits the whole chunk
            if not admitted:
                admitted.extend(
                    self._admit(requests[start:start + size], batch_axis)
                )
            return admitted.popleft()

        results = gather(submit, range(len(requests)), on_error)
        with self._cond:
            self.batches_served += 1
        return results

    def stats(self) -> Dict[str, object]:
        """Serving and recovery counters, the backend breaker, the
        artifact store's counters when one is wired, and every worker
        plan's counters.  ``batched_batches`` counts dispatches that
        ran as one batch-axis kernel call."""
        effective = self._effective_backend()
        with self._cond:
            stats: Dict[str, object] = {
                "workers": self.workers,
                "requests": self.requests_served,
                "batches": self.batches_served,
                "batched_batches": self.batched_batches,
                "failures": self.failures,
                "retries": self.retries_performed,
                "rejected": self.rejected,
                "backend": self.backend,
                "effective_backend": effective,
                "degraded": effective != self.backend,
                "max_pending": self.max_pending,
                "plans": [plan.stats() for plan in self._plans],
            }
        stats["breakers"] = {"backend": self.backend_breaker.stats()}
        if self.pipeline.artifact_store is not None:
            stats["store"] = self.pipeline.artifact_store.stats.as_dict()
        return stats

    def reset_breakers(self) -> None:
        """Operator action: close the backend breaker (trip counts
        survive); worker plans return to the compiled backend at their
        next request."""
        self.backend_breaker.reset()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, settle every accepted request — from
        :meth:`submit` or :meth:`run_many` — and stop the threads.

        Mirrors ``Router.drain`` / ``WorkerPool.drain``: ``False`` on
        timeout (work may still be completing; a later drain or
        :meth:`close` finishes it).  Idempotent.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()  # blocked submitters: ServerClosed
            drained = self._cond.wait_for(
                lambda: self._pending == 0, timeout
            )
        if drained:
            self._pool.shutdown(wait=True)
        return drained

    def close(self) -> None:
        """Drain without a timeout (idempotent).  The closed flag flips
        under the one lock, atomically against admission, so a racing
        submission either completes or gets :class:`ServerClosed`."""
        self.drain()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._cond:
            served = self.requests_served
        return (
            f"Server({self.pipeline.output_name!r}, workers={self.workers},"
            f" backend={self.backend!r}, requests={served})"
        )
