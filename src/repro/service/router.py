"""Shape-bucketed micro-batching front end over supervised workers.

A serving tier sees a *mixed* stream: many apps, many input shapes,
one request at a time.  The batch-axis kernels
(:meth:`~repro.runtime.executor.CompiledPipeline.run_many`) only pay
off when same-shaped requests arrive together, and the shared-memory
transport (:mod:`repro.service.shm`) only sizes its slots sensibly
when a dispatch carries one shape signature.  :class:`Router` is the
piece that turns the mixed stream into that shape:

* every request is **bucketed** by ``(app fingerprint, input-shape
  signature, backend)``;
* each bucket **micro-batches, work-conservingly**: a non-empty bucket
  is handed to its pool as one batch of request records — through the
  enqueue-and-dispatch step
  :meth:`~repro.service.supervisor.WorkerPool.submit_many` ends in, so
  one flush is one batch-axis kernel call, tensors over shared
  memory — the moment its pool has an idle worker (fewer requests in
  flight than workers) or it holds ``max_batch`` requests.  It is held
  only while every worker is busy, which is when waiting forms a batch
  for free: whatever arrives during a run leaves together when the
  worker frees, and ``flush_interval`` is the *maximum* hold, after
  which the bucket queues in the pool regardless.  The flusher thread
  does not poll: it sleeps until the earliest deadline any bucket
  holds (a flush window closing, a request budget expiring, a
  shed-control crossing) and is woken early only by a submit that
  creates an earlier deadline (a bucket now due included), by a
  completion that frees a worker or in-flight budget, and by
  ``drain``/``close`` — so a lone request on an idle pool costs one
  pool round trip, a held one leaves within a scheduler tick of its
  window closing, and an idle router does not wake at all
  (``flusher_passes`` in :meth:`Router.stats` counts the passes; each
  bucket's ``flush_reasons`` say why its flushes left when they did);
* every request carries a wall-clock **deadline budget** measured from
  submission: queue wait, bucket flush, pool dispatch, and worker
  execution all decrement the same budget, and a request whose budget
  expires while still bucketed (or still queued in the pool) fails
  fast with :class:`~repro.service.supervisor.DeadlineExceeded`
  without ever occupying a worker;
* **admission control** is layered: the static ``max_pending`` bound
  (same :class:`~repro.service.serve.RejectedError` contract as the
  thread-pool :class:`~repro.service.serve.Server`), a per-bucket
  depth cap, and CoDel-style queue-sojourn shedding — when a bucket's
  head-of-queue wait stays over ``shed_target`` for ``shed_interval``,
  incoming best-effort traffic is shed with a typed
  :class:`~repro.service.serve.ShedError` until the queue decongests.
  Two priority lanes (``"interactive"`` / ``"best-effort"``) keep
  interactive goodput near capacity under sustained overload:
  interactive arrivals may evict the newest queued best-effort entry
  when the bucket is full, and interactive entries always flush first;
* per-bucket **p50/p99 latency and throughput** ride
  :meth:`Router.stats`, shaped alongside ``Server.stats`` /
  ``WorkerPool.stats`` so dashboards read all three the same way.

A routed request is one record with one future from :meth:`Router.submit`
to its terminal outcome; the router's ledger reads the pool's outcome
rule (``expired``: its own budget ran out; other errors: ``failed``).

Lifecycle verbs: :meth:`Router.drain` stops admission, hands every
bucketed request to its pool, and completes all in-flight work before
closing (outstanding futures always reach a terminal state);
:meth:`Router.close` drains with a timeout, after which each pool's
close turns forceful, failing whatever is left with
:class:`~repro.service.serve.ServerClosed`;
:meth:`Router.rolling_restart` replaces every pool's workers one at a
time with zero dropped requests.

Lock discipline: the router's ``_mu`` is always *inner* — a pool runs
the router's ledger under its own ``_mu``, and the ledger takes
``_mu``, so no router method may call into a pool or settle a request
while holding ``_mu`` (the flusher drains a bucket under ``_mu``,
releases it, and only then dispatches).
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .batch import CompileJob
from .faults import FaultPlan
from .serve import (
    DeadlineExceeded, RejectedError, ServerClosed, ShedError, _Request, gather
)
from .supervisor import WorkerPool, _split_expired

__all__ = ["Router", "job_fingerprint", "shape_signature"]

_NEVER = float("inf")  # a deadline that time alone never reaches
#: what made a bucket due (per-bucket ``flush_reasons`` in stats)
_FLUSH_REASONS = ("idle", "full", "interval", "closing")
#: per-bucket completion latencies kept for the p50/p99 estimate
_LATENCY_WINDOW = 2048
#: per-bucket counters that :meth:`Router.stats` also totals
_LEDGER = ("submitted", "completed", "failed", "rejected", "shed", "expired")


def job_fingerprint(job: CompileJob) -> str:
    """Stable short digest identifying one app/variant/params/backend."""
    blob = repr((job.app, job.variant, job.builder, job.params, job.backend))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def shape_signature(inputs: Optional[dict]) -> tuple:
    """The bucket-forming view of one request's inputs: sorted
    ``(name, dtype, shape)`` triples (non-array values by type name,
    ``()`` for a ``None`` request)."""
    if not isinstance(inputs, dict):
        return ()
    signature = []
    for name in sorted(inputs, key=repr):
        value = inputs[name]
        if isinstance(value, np.ndarray):
            signature.append((name, value.dtype.str, value.shape))
        else:
            signature.append((name, type(value).__name__, ()))
    return tuple(signature)


class _Bucket:
    """One ``(fingerprint, shape signature, backend)`` serving bucket.

    All mutable state is guarded by the router's ``_mu``.  The queue is
    two priority lanes — interactive entries flush first and may evict
    queued best-effort entries when the bucket is at its depth cap.
    """

    __slots__ = (
        "key",
        "job_key",
        "lanes",
        "latencies",
        "submitted",
        "completed",
        "failed",
        "rejected",
        "shed",
        "expired",
        "flushes",
        "flush_reasons",
        "largest_flush",
        "first_submit",
        "last_done",
        "above_since",
        "shedding",
        "next_expiry",
    )

    def __init__(self, key: tuple, job_key: str) -> None:
        self.key = key
        self.job_key = job_key
        self.lanes: Tuple[Deque[_Request], ...] = (deque(), deque())
        #: the last ``_LATENCY_WINDOW`` completion latencies (seconds), a
        #: ring indexed by ``completed``.  Allocated once: the ledger that
        #: fills it runs on a pool's supervisor thread, where a growing
        #: container would scatter long-lived blocks among that thread's
        #: short-lived reply buffers and keep their freed heap resident.
        self.latencies = np.zeros(_LATENCY_WINDOW)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.shed = 0
        self.expired = 0
        self.flushes = 0
        #: why each flush left when it did; sums to ``flushes``
        self.flush_reasons = dict.fromkeys(_FLUSH_REASONS, 0)
        self.largest_flush = 0
        self.first_submit: Optional[float] = None
        self.last_done: Optional[float] = None
        self.above_since: Optional[float] = None  # CoDel: first over-target
        self.shedding = False  # CoDel: shedding best-effort arrivals
        #: no queued entry expires before this (a lower bound: taking
        #: or evicting the entry that set it leaves it early, which
        #: costs one scan, never a late expiry)
        self.next_expiry = _NEVER

    def qlen(self) -> int:
        return len(self.lanes[0]) + len(self.lanes[1])

    def head_queued_at(self) -> Optional[float]:
        """Arrival time of the oldest queued entry across both lanes."""
        heads = [lane[0].queued_at for lane in self.lanes if lane]
        return min(heads) if heads else None

    def take(self, limit: int) -> List[_Request]:
        """Pop up to ``limit`` entries for dispatch, interactive first,
        FIFO within each lane."""
        taken: List[_Request] = []
        for lane in self.lanes:
            while lane and len(taken) < limit:
                taken.append(lane.popleft())
            if len(taken) >= limit:
                break
        return taken

    def expire(self, now: float) -> List[_Request]:
        """Pull every request whose budget is spent out of the queue
        (the caller settles them outside ``_mu``)."""
        if self.next_expiry > now:
            return []
        spent: List[_Request] = []
        for lane in self.lanes:
            live, gone = _split_expired(lane, now)
            if gone:
                spent += gone
                lane.clear()
                lane.extend(live)
        self.next_expiry = min(
            (r.expires_at for lane in self.lanes for r in lane
             if r.expires_at is not None),
            default=_NEVER,
        )
        return spent


class Router:
    """Route a mixed request stream into micro-batched worker pools.

    Parameters
    ----------
    jobs:
        The serving catalog: one :class:`CompileJob` per app; one
        supervised :class:`WorkerPool` is spawned per distinct job.
    workers:
        Worker-process count **per pool** (default 2).
    backend:
        Execution backend inside the workers; defaults to each job's.
    cache_dir:
        Shared artifact-store root for worker warm starts.
    max_batch:
        Bucket flush threshold and largest batch per dispatch
        (default 8).
    flush_interval:
        The *maximum* hold (seconds, default 0.005).  It applies only
        while every worker of the bucket's pool is busy: the bucket
        then waits for one to free, and is dispatched into the pool's
        queue anyway once its oldest request has waited this long (and
        no longer than a scheduler tick beyond it).  With a worker
        idle a bucket is never held.
    max_pending:
        Admission bound on queued + in-flight requests across the
        whole router; beyond it :meth:`submit` raises
        :class:`~repro.service.serve.RejectedError`.
    deadline:
        Default per-request wall-clock budget (seconds) measured from
        submission; ``None`` disables.  Overridable per :meth:`submit`.
        The budget counts router queue wait, flush, pool dispatch, and
        worker execution; an expired request fails fast with
        :class:`~repro.service.supervisor.DeadlineExceeded` and never
        occupies a worker.
    bucket_cap:
        Per-bucket queue-depth cap.  A full bucket sheds incoming
        best-effort entries with :class:`ShedError`; an interactive
        arrival instead evicts the newest queued best-effort entry
        when one exists.  ``None`` (default) disables.
    shed_target / shed_interval:
        CoDel-style sojourn shedding: once a bucket's head-of-queue
        wait has stayed at or above ``shed_target`` seconds for
        ``shed_interval`` seconds, incoming best-effort entries are
        shed until the head wait drops back under target.  ``None``
        target (default) disables.
    max_inflight:
        Per-job bound on requests handed to a pool but not yet
        resolved.  This is the backpressure signal the shedder needs:
        without it the flusher would happily move an unbounded backlog
        into the pool queue and bucket sojourn would never reflect
        overload.  Default ``workers * max_batch * 2``.
    record_events:
        Forwarded to every pool: keep per-request lifecycle event logs
        (see :meth:`WorkerPool.event_log`) for invariant checking.
    transport / fault_plan / retries / hang_grace / max_restarts /
    mp_context:
        Forwarded to every :class:`WorkerPool` (see there).
    """

    #: submit() priority classes, in flush order
    PRIORITIES = ("interactive", "best-effort")

    def __init__(
        self,
        jobs: Sequence[CompileJob],
        workers: int = 2,
        backend: Optional[str] = None,
        cache_dir: Optional[str] = None,
        max_batch: int = 8,
        flush_interval: float = 0.005,
        max_pending: Optional[int] = None,
        transport: str = "auto",
        fault_plan: Optional[FaultPlan] = None,
        deadline: Optional[float] = None,
        retries: int = 2,
        hang_grace: Optional[float] = None,
        max_restarts: int = 16,
        mp_context=None,
        bucket_cap: Optional[int] = None,
        shed_target: Optional[float] = None,
        shed_interval: float = 0.1,
        max_inflight: Optional[int] = None,
        record_events: bool = False,
    ) -> None:
        jobs = list(jobs)
        if not jobs:
            raise ValueError("a Router needs at least one job")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if flush_interval <= 0:
            raise ValueError("flush_interval must be > 0")
        if bucket_cap is not None and bucket_cap < 1:
            raise ValueError("bucket_cap must be >= 1")
        if shed_target is not None and shed_target <= 0:
            raise ValueError("shed_target must be > 0")
        if shed_interval <= 0:
            raise ValueError("shed_interval must be > 0")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self.flush_interval = float(flush_interval)
        self.max_pending = max_pending
        self.deadline = deadline
        self.bucket_cap = bucket_cap
        self.shed_target = shed_target
        self.shed_interval = float(shed_interval)
        self.max_inflight = (
            int(max_inflight)
            if max_inflight is not None
            else self.workers * self.max_batch * 2
        )

        self._jobs: Dict[str, CompileJob] = {}
        self._pools: Dict[str, WorkerPool] = {}
        for job in jobs:
            key = job_fingerprint(job)
            if key in self._jobs:
                continue
            self._jobs[key] = job
            self._pools[key] = WorkerPool(
                job,
                workers=workers,
                backend=backend,
                cache_dir=cache_dir,
                fault_plan=fault_plan,
                retries=retries,
                hang_grace=hang_grace,
                max_restarts=max_restarts,
                transport=transport,
                batch_max=self.max_batch,
                mp_context=mp_context,
                record_events=record_events,
            )

        self._mu = threading.Lock()
        self._buckets: Dict[tuple, _Bucket] = {}  # guarded-by: _mu
        self._inflight: Dict[str, int] = {}  # guarded-by: _mu
        self._pending = 0  # guarded-by: _mu
        self._closed = False  # guarded-by: _mu
        #: arrivals, admitted or not; every other total in
        #: :meth:`stats` is its buckets' counters summed
        self.offered = 0  # guarded-by: _mu
        self.flusher_passes = 0  # guarded-by: _mu
        #: the deadline the flusher is sleeping toward; a submit that
        #: creates an earlier one wakes it
        self._next_wake = _NEVER  # guarded-by: _mu

        self._wake = threading.Event()
        self._drained = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_loop, daemon=True, name="repro-router-flush"
        )
        self._flusher.start()

    # -- lifecycle -------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, flush every bucket, complete in-flight work,
        and shut the pools down.

        The graceful lifecycle verb: every future handed out before the
        drain reaches its normal terminal state (result, typed error,
        or expiry).  Returns ``True`` once everything drained within
        ``timeout`` (``None`` waits indefinitely), ``False`` otherwise.
        Idempotent, and safe to follow with :meth:`close`.
        """
        start = time.monotonic()
        with self._mu:
            self._closed = True
        self._wake.set()
        ok = self._drained.wait(timeout)
        for pool in self._pools.values():
            remaining = None
            if timeout is not None:
                remaining = max(0.0, timeout - (time.monotonic() - start))
            ok = pool.drain(remaining) and ok
        return ok

    def close(self, timeout: float = 30.0) -> None:
        """:meth:`drain`, then shut down.  Idempotent.

        A draining router hands every bucketed request to its pool at
        once, so what is left after ``timeout`` is the pools': each
        :meth:`~repro.service.supervisor.WorkerPool.close` fails it
        with :class:`~repro.service.serve.ServerClosed` — no future is
        ever left unresolved.
        """
        self.drain(timeout)
        for pool in self._pools.values():
            pool.close(timeout=timeout)

    def rolling_restart(self, timeout: float = 120.0) -> int:
        """Rolling-restart every pool's workers, one pool at a time.

        Serving continues throughout; returns the total number of
        workers replaced.  See
        :meth:`~repro.service.supervisor.WorkerPool.rolling_restart`.
        """
        replaced = 0
        for pool in self._pools.values():
            replaced += pool.rolling_restart(timeout=timeout)
        return replaced

    def pools(self) -> Dict[str, WorkerPool]:
        """The live pools by job fingerprint (snapshot copy)."""
        return dict(self._pools)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ------------------------------------------------------------

    def _job_key(self, job: Union[CompileJob, str]) -> str:
        key = job if isinstance(job, str) else job_fingerprint(job)
        if key not in self._pools:
            raise KeyError(f"job {job!r} is not in this router's catalog")
        return key

    def submit(
        self,
        job: Union[CompileJob, str],
        inputs: Optional[Dict[str, np.ndarray]],
        deadline: Optional[float] = None,
        idempotent: bool = True,
        priority: str = "interactive",
    ) -> "Future[np.ndarray]":
        """Enqueue one request into its bucket; resolves on flush+run.

        ``job`` is a catalog :class:`CompileJob` (or its fingerprint).
        ``deadline`` is a wall-clock budget from now (falls back to the
        router default); ``priority`` is one of :attr:`PRIORITIES` —
        best-effort entries are the ones adaptive shedding drops first.
        Raises :class:`RejectedError` beyond ``max_pending``,
        :class:`ShedError` when overload control sheds the request, and
        :class:`ServerClosed` after :meth:`close`.
        """
        job_key = self._job_key(job)
        try:
            lane = self.PRIORITIES.index(priority)
        except ValueError:
            raise ValueError(
                f"priority must be one of {self.PRIORITIES},"
                f" got {priority!r}"
            ) from None
        now = time.monotonic()
        budget = deadline if deadline is not None else self.deadline
        request = _Request(
            inputs,
            idempotent,
            now + budget if budget is not None else None,
            now,
        )
        evicted: Optional[_Request] = None
        with self._mu:
            if self._closed:
                raise ServerClosed("router is closed")
            self.offered += 1
            bucket_key = (job_key, shape_signature(inputs))
            bucket = self._buckets.get(bucket_key)
            if bucket is None:
                bucket = _Bucket(
                    bucket_key + (self._pools[job_key].backend,), job_key
                )
                self._buckets[bucket_key] = bucket
            if (
                self.max_pending is not None
                and self._pending >= self.max_pending
            ):
                bucket.rejected += 1
                raise RejectedError(
                    f"admission queue full ({self.max_pending} pending)"
                )
            if not bucket.qlen():
                # an empty queue has no sojourn: never shed into it
                self._shed_control_locked(bucket, now)
            if bucket.shedding and lane == 1:
                bucket.shed += 1
                raise ShedError(
                    "bucket head-of-queue wait over target; shedding"
                    " best-effort load"
                )
            if (
                self.bucket_cap is not None
                and bucket.qlen() >= self.bucket_cap
            ):
                if lane == 0 and bucket.lanes[1]:
                    # interactive displaces the newest best-effort entry
                    # (its settle below counts it shed)
                    evicted = bucket.lanes[1].pop()
                else:
                    bucket.shed += 1
                    raise ShedError(
                        f"bucket queue full ({self.bucket_cap} queued)"
                    )
            request.ledgers.append(functools.partial(self._count, bucket))
            bucket.lanes[lane].append(request)
            bucket.submitted += 1
            if bucket.first_submit is None:
                bucket.first_submit = now
            self._pending += 1
            due = self._flush_at_locked(bucket, now, False)[0]
            expires_at = request.expires_at
            if expires_at is not None:
                due = min(due, expires_at)
                bucket.next_expiry = min(bucket.next_expiry, expires_at)
            if bucket.qlen() == 1:
                # a new head starts the shed clock
                due = min(due, now + (self.shed_target or _NEVER))
            wake = due < self._next_wake
        if evicted is not None:
            evicted.settle(
                error=ShedError(
                    "evicted from a full bucket by an interactive request"
                )
            )
        if wake:
            self._wake.set()
        return request.future

    def run(
        self,
        job: Union[CompileJob, str],
        inputs: Optional[Dict[str, np.ndarray]] = None,
        deadline: Optional[float] = None,
        priority: str = "interactive",
    ) -> np.ndarray:
        return self.submit(
            job, inputs, deadline=deadline, priority=priority
        ).result()

    def run_many(
        self,
        job: Union[CompileJob, str],
        requests: Sequence[Optional[Dict[str, np.ndarray]]],
        deadline: Optional[float] = None,
        on_error: str = "raise",
        priority: str = "interactive",
    ) -> List[np.ndarray]:
        """Route a stream of requests; outputs in submission order.

        Failures follow :func:`~repro.service.serve.gather`: with
        ``on_error="return"`` a request the admission layer rejected or
        shed mid-stream is one more ``RequestError`` in the list; with
        ``"raise"`` the already-submitted ones finish first.
        """
        return gather(
            lambda inputs: self.submit(
                job, inputs, deadline=deadline, priority=priority
            ),
            requests,
            on_error,
        )

    def stats(self) -> Dict[str, object]:
        """Router counters, per-bucket latency/throughput, pool stats.

        Conservation invariant (checked by the chaos harness): at
        quiescence ``offered == completed + failed + rejected + shed +
        expired`` and ``pending == 0``.  ``flusher_passes`` counts the
        flusher thread's wake-ups (none while the router is idle).
        Each bucket's ``flush_reasons`` count why its flushes left when
        they did and sum to its ``flushes``: ``"idle"`` (a worker was
        free — no hold), ``"full"`` (``max_batch`` reached),
        ``"interval"`` (every worker stayed busy for the whole
        ``flush_interval``), ``"closing"`` (a drain).
        """
        with self._mu:
            buckets = [
                self._bucket_stats_locked(bucket)
                for bucket in self._buckets.values()
            ]
            summary = {"offered": self.offered}
            for key in _LEDGER:
                summary[key] = sum(row[key] for row in buckets)
            summary["pending"] = self._pending
            summary["closed"] = self._closed
            summary["flusher_passes"] = self.flusher_passes
        summary["buckets"] = buckets
        summary["jobs"] = {
            key: job.label for key, job in self._jobs.items()
        }
        summary["pools"] = {
            key: pool.stats() for key, pool in self._pools.items()
        }
        return summary

    def _bucket_stats_locked(self, bucket: _Bucket) -> Dict[str, object]:
        job_key, signature = bucket.key[0], bucket.key[1]
        latencies = bucket.latencies[:bucket.completed]
        p50 = p99 = None
        if latencies.size:
            p50 = float(np.percentile(latencies, 50) * 1e3)
            p99 = float(np.percentile(latencies, 99) * 1e3)
        throughput = None
        if (
            bucket.completed
            and bucket.first_submit is not None
            and bucket.last_done is not None
            and bucket.last_done > bucket.first_submit
        ):
            throughput = bucket.completed / (
                bucket.last_done - bucket.first_submit
            )
        return {
            "job": self._jobs[job_key].label,
            "fingerprint": job_key,
            "signature": signature,
            "backend": bucket.key[2],
            "submitted": bucket.submitted,
            "completed": bucket.completed,
            "failed": bucket.failed,
            "rejected": bucket.rejected,
            "shed": bucket.shed,
            "expired": bucket.expired,
            "flushes": bucket.flushes,
            "flush_reasons": dict(bucket.flush_reasons),
            "largest_flush": bucket.largest_flush,
            "queued": bucket.qlen(),
            "queued_interactive": len(bucket.lanes[0]),
            "queued_best_effort": len(bucket.lanes[1]),
            "shedding": bucket.shedding,
            "inflight": self._inflight.get(job_key, 0),
            "p50_ms": p50,
            "p99_ms": p99,
            "throughput_rps": throughput,
        }

    # -- flushing --------------------------------------------------------------

    def _shed_control_locked(self, bucket: _Bucket, now: float) -> float:
        """CoDel-style state update: head sojourn at/over target for a
        full interval turns shedding on; dropping under target turns it
        off (and resets the interval clock).  Returns when the passing
        of time alone next changes the state (``inf``: never)."""
        if self.shed_target is None:
            return _NEVER
        head = bucket.head_queued_at()
        over_at = _NEVER if head is None else head + self.shed_target
        if over_at > now:
            bucket.above_since = None
            bucket.shedding = False
            return over_at
        if bucket.above_since is None:
            bucket.above_since = now
        trip_at = bucket.above_since + self.shed_interval
        if trip_at > now:
            return trip_at
        bucket.shedding = True
        return _NEVER

    def _dispatch_budget_locked(self, job_key: str) -> int:
        return self.max_inflight - self._inflight.get(job_key, 0)

    def _flush_at_locked(
        self, bucket: _Bucket, now: float, closing: bool
    ) -> Tuple[float, str]:
        """When this bucket's queue must dispatch, and why (one of
        ``_FLUSH_REASONS``): ``now`` once a close is draining
        everything (past the in-flight cap), it is full, or its pool
        has an idle worker — every busy worker holds at least one
        in-flight request, so fewer in flight than workers proves one
        idle (a dead or draining worker makes that optimistic: the
        batch waits in the pool's queue instead, never longer); else,
        every worker busy, when its oldest entry has aged
        ``flush_interval``.  ``inf`` while it is empty or its pool has
        no in-flight budget (backpressure holds the queue here, where
        sojourn shedding can see it, until :meth:`_count` frees budget
        and wakes the flusher)."""
        if not bucket.qlen():
            return _NEVER, ""
        if closing:
            return now, "closing"
        if self._dispatch_budget_locked(bucket.job_key) <= 0:
            return _NEVER, ""
        if bucket.qlen() >= self.max_batch:
            return now, "full"
        if self._inflight.get(bucket.job_key, 0) < self.workers:
            return now, "idle"
        return bucket.head_queued_at() + self.flush_interval, "interval"

    def _flush_loop(self) -> None:
        """One pass per wake-up, then sleep until the earliest deadline
        any bucket holds — a flush window closing, a request expiring,
        a shed-control crossing — unless ``_wake`` is set first: by a
        submit that creates an earlier deadline, a completion that
        frees a worker or in-flight budget, or ``drain``/``close``."""
        wake_at = _NEVER
        while True:
            self._wake.wait(
                None
                if wake_at == _NEVER
                else max(0.0, wake_at - time.monotonic())
            )
            self._wake.clear()
            expired: List[_Request] = []
            drained = []
            with self._mu:
                now = time.monotonic()
                self.flusher_passes += 1
                closing = self._closed
                wake_at = _NEVER
                for bucket in self._buckets.values():
                    expired += bucket.expire(now)
                    flush_at, reason = self._flush_at_locked(
                        bucket, now, closing
                    )
                    if flush_at <= now:
                        taken = bucket.take(
                            bucket.qlen()
                            if closing
                            else self._dispatch_budget_locked(bucket.job_key)
                        )
                        self._inflight[bucket.job_key] = self._inflight.get(
                            bucket.job_key, 0
                        ) + len(taken)
                        bucket.flushes += 1
                        bucket.flush_reasons[reason] += 1
                        bucket.largest_flush = max(
                            bucket.largest_flush, len(taken)
                        )
                        drained.append((bucket, taken))
                        # emptied, or the budget is spent and the next
                        # completion wakes the flusher
                        flush_at = _NEVER
                    # shed control runs after the take, so the state an
                    # arrival meets is that of the queue it would join
                    wake_at = min(
                        wake_at,
                        flush_at,
                        bucket.next_expiry,
                        self._shed_control_locked(bucket, now),
                    )
                self._next_wake = wake_at
                finished = closing and not any(
                    bucket.qlen() for bucket in self._buckets.values()
                )
            for request in expired:
                request.settle(
                    error=DeadlineExceeded(
                        "request budget expired before its bucket flushed"
                    )
                )
            for bucket, taken in drained:
                try:
                    # the records themselves, mixed idempotence and
                    # spent budgets included: one flush, one dispatch
                    self._pools[bucket.job_key]._enqueue(taken)
                except ServerClosed as exc:
                    # refused by a pool closed under a timed-out drain:
                    # never dispatched, so their in-flight slots return
                    with self._mu:
                        self._inflight[bucket.job_key] -= len(taken)
                    for request in taken:
                        request.settle(error=exc)
            if finished:
                break
        self._drained.set()

    def _count(
        self,
        bucket: _Bucket,
        request: _Request,
        outcome: str,
        error: Optional[BaseException],
    ) -> None:
        """The router's ledger: the one place its terminal counters
        change, wherever the request ended.  It runs before the
        request's future resolves — under a pool's ``_mu`` when the
        pool settled it, so it never calls back into a pool."""
        now = time.monotonic()
        dispatched = request.id is not None  # a pool stamped it on entry
        with self._mu:
            self._pending -= 1
            setattr(bucket, outcome, getattr(bucket, outcome) + 1)
            if outcome == "completed":
                ring = bucket.latencies
                ring[(bucket.completed - 1) % ring.size] = (
                    now - request.queued_at
                )
                bucket.last_done = now
            if dispatched:
                self._inflight[bucket.job_key] -= 1
        if dispatched:
            # a worker or in-flight budget freed: a held bucket may be due
            self._wake.set()

    def __repr__(self) -> str:
        with self._mu:
            buckets = len(self._buckets)
            pending = self._pending
            completed = sum(b.completed for b in self._buckets.values())
        return (
            f"Router(jobs={len(self._jobs)}, buckets={buckets},"
            f" pending={pending}, completed={completed})"
        )
