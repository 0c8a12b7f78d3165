"""Supervised multi-process serving: crash-isolated workers.

The thread-pool :class:`~repro.service.serve.Server` shares one address
space — a segfaulting kernel, a wedged extension, or an ``os._exit``
takes the whole process down.  :class:`WorkerPool` puts each worker in
its own *process*, supervised over a duplex pipe:

* **crashes** are detected the moment the worker process dies (its
  pipe hits EOF / its sentinel fires) and the worker is restarted with
  a bumped incarnation number;
* **hangs** are detected two ways: a per-request wall-clock *budget*
  (``deadline``, measured from submission and decremented through
  queue wait and execution alike — a request whose budget expires
  while still queued fails fast without ever occupying a worker), and
  heartbeat staleness for a process wedged hard enough that its
  heartbeat thread stops (e.g. a C loop holding the GIL).  Either
  kills and restarts the worker;
* the in-flight requests of a dead worker are **re-dispatched** under
  a bounded retry budget with exponential backoff and deterministic
  jitter — unless a request was submitted ``idempotent=False``, in
  which case at-most-once semantics apply and the caller gets the
  typed error;
* workers **warm-start** from the shared artifact store
  (``cache_dir``), so a restart re-hydrates kernels instead of paying
  saturation and codegen again;
* a worker **keeps its execution state** for as long as it lives: one
  :class:`~repro.runtime.plan.ExecutionPlan` (bound buffers, arena,
  shuffle-operand memo) serves every singleton, every batch-axis
  bucket and every looped fallback, so a served convolution builds
  its Toeplitz operand once per worker, not once per request or path.

Transport is split into two planes.  The **control plane** — request
ids, shape/dtype metadata, slot indices, error reports — always rides
the duplex pipe as small picklable tuples.  The **data plane** —
tensor payloads — rides a pair of :class:`~repro.service.shm.ShmRing`
shared-memory rings per worker (requests one way, responses the
other), written once and mapped as zero-copy NumPy views on the far
side, with no per-request pickling.  When shared memory is
unavailable, a frame outgrows its slot, or every slot is in flight,
that batch transparently falls back to the legacy pipe path (whole
batch as *one* pickle message, preserving intra-batch array identity);
``transport="pipe"`` disables shared memory outright.

Requests are queued as **batches**: :meth:`WorkerPool.submit` enqueues
a singleton, :meth:`WorkerPool.submit_many` a micro-batch that a
worker executes through the batch-axis
:meth:`~repro.runtime.executor.CompiledPipeline.run_many` path (shared
weights stay shared across the boundary because frames deduplicate
tensors by identity).  Retries always re-queue as singletons so one
poisoned request cannot re-fail its batch-mates.

Every request is **one record** (:class:`~repro.service.serve._Request`)
from its front door (``submit_many``, or :meth:`Router.submit
<repro.service.router.Router.submit>`) to its terminal outcome,
decided once by its ``settle`` under the one outcome rule every
ledger reads.

Jobs cross the boundary as :class:`~repro.service.batch.CompileJob`
specs — an ``App`` itself is not picklable.  Every recovery action —
restarts, retries, deadline and heartbeat kills, crash counts — and
every transport decision is reported by :meth:`WorkerPool.stats`.

Lifecycle verbs: :meth:`WorkerPool.drain` stops admission and lets
every accepted request reach its normal terminal state before the
workers stop; :meth:`WorkerPool.close` drains with a timeout and then
turns forceful, failing whatever is left with
:class:`~repro.service.serve.ServerClosed` so no future is ever left
unresolved; :meth:`WorkerPool.rolling_restart` replaces workers one at
a time — drain, retire, respawn, health-probe — with zero dropped
requests, for planned restarts (artifact refresh, config rollout)
rather than crash recovery.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from multiprocessing import resource_tracker
from multiprocessing.connection import wait as connection_wait
from typing import (
    Deque, Dict, Iterable, List, Optional, Sequence, Tuple
)

import numpy as np

from ..runtime.executor import RequestError
from .batch import CompileJob
from .faults import FaultPlan
from .serve import (
    DeadlineExceeded, RejectedError, ServerClosed, _Request, gather
)
from . import shm as shm_transport

#: worker heartbeat period (seconds)
_HEARTBEAT_INTERVAL = 0.05
#: worker processes' start method (None: the platform's default)
_START_METHOD = None


class WorkerCrashed(RuntimeError):
    """A worker process died while (or before) serving a request."""

    def __init__(self, message: str, exit_code: Optional[int] = None) -> None:
        super().__init__(message)
        self.exit_code = exit_code


class RemoteError(RuntimeError):
    """An exception raised inside a worker, carried back by type name.

    The original traceback text is on :attr:`remote_traceback` — the
    exception object itself never crosses the process boundary (it may
    not be picklable), so the supervisor re-raises this typed wrapper.
    For a request that failed inside a worker-side batch, the traceback
    is the *original* per-request one recovered from
    :class:`~repro.runtime.executor.RequestError`, not the batch
    wrapper's.
    """

    def __init__(self, kind: str, message: str, remote_traceback: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_traceback = remote_traceback


class WorkerInitFailed(RuntimeError):
    """A worker could not build its pipeline (bad job, poisoned store)."""


# -- worker process ------------------------------------------------------------


def _format_remote(exc: BaseException) -> tuple:
    """``(kind, message, traceback_text)`` for one worker-side error,
    unwrapping :class:`RequestError` to the request's original failure
    so callers see the real traceback, not the batch wrapper's."""
    if isinstance(exc, RequestError):
        exc = exc.original
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return type(exc).__name__, str(exc), tb


def _serve_batch(plan, rids, requests, resp_ring) -> dict:
    """Run one batch on the worker's plan and lay out the reply payload.

    ``plan`` is the worker's :class:`~repro.runtime.plan.ExecutionPlan`,
    alive as long as the process.  Every batch is one
    :meth:`~repro.runtime.executor.CompiledPipeline.run_many` call on
    it under ``on_error="return"``, so one poisoned request fails
    alone: a singleton runs straight on the plan, a larger batch takes
    the plan's batch-axis kernel, falling back to looping on it.
    Successful outputs ride the response ring when they fit
    (``"shm"``), the pipe otherwise (``"inline"``); failures always
    ride the pipe (``"errs"``); the plan's counters ride along
    (``"plan"``) for :meth:`WorkerPool.stats`.
    """
    errs: List[tuple] = []
    ok: List[tuple] = []
    try:
        outputs = plan.pipeline.run_many(
            requests,
            batch_axis=None if len(requests) > 1 else False,
            on_error="return",
            plan=plan,
        )
    except BaseException as exc:
        remote = _format_remote(exc)
        errs = [(rid,) + remote for rid in rids]
    else:
        for rid, output in zip(rids, outputs):
            if isinstance(output, RequestError):
                errs.append((rid,) + _format_remote(output))
            else:
                ok.append((rid, output))
    shm_part = None
    if resp_ring is not None and ok:
        frame = shm_transport.plan_frame([{"o": out} for _, out in ok])
        if frame is not None:
            slot = shm_transport.write_frame(resp_ring, frame)
            if slot is not None:
                shm_part = (slot, [rid for rid, _ in ok], frame.meta)
                ok = []
    return {
        "shm": shm_part,
        "inline": ok,
        "errs": errs,
        "plan": plan.stats(),
    }


def _worker_main(
    worker_id: int,
    incarnation: int,
    conn,
    job: CompileJob,
    backend: str,
    cache_dir: Optional[str],
    fault_plan: Optional[FaultPlan],
) -> None:
    """Entry point of one worker process.

    Protocol (worker -> supervisor): ``("hb",)`` heartbeats on a side
    thread, ``("ready", incarnation, out_nbytes)`` once the pipeline is
    built, ``("attached",)`` / ``("attach_err", tb)`` answering a ring
    handoff, then one ``("done", payload)`` per batch received.
    ``("init_err", tb)`` replaces ``ready`` when the build fails.

    Protocol (supervisor -> worker): ``("attach", req_spec,
    resp_spec)`` hands over the shared-memory rings, ``("reqs",
    [(rid, inputs), ...])`` carries a batch over the pipe,
    ``("reqs_shm", slot, rids, meta)`` points at a published
    request-ring frame, ``("stop",)`` shuts down.
    """
    # Fork-safety: a forked child inherits the multiprocessing resource
    # tracker's RLock *state*.  Workers are forked from the supervisor
    # thread, so if any other parent thread (a sibling pool creating or
    # destroying rings) held that lock at fork time, this process would
    # deadlock inside ensure_running() on its first SharedMemory attach
    # — while the heartbeat side-thread keeps it looking healthy.  The
    # holder does not exist in this process, so a fresh lock is safe;
    # the inherited fd still points at the parent's live tracker.
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_lock"):
        tracker._lock = threading.RLock()
    send_lock = threading.Lock()

    def send(message) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (BrokenPipeError, OSError):
            raise SystemExit(0)  # supervisor is gone; nothing to serve

    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.wait(_HEARTBEAT_INTERVAL):
            try:
                send(("hb",))
            except SystemExit:
                return

    # beat from the very start so a hang *during init* is visible too;
    # the heartbeat thread survives kernel runs (NumPy releases the GIL)
    threading.Thread(target=beat, daemon=True).start()
    try:
        if fault_plan is not None:
            from . import faults

            faults.install(
                fault_plan,
                scope={"worker": worker_id, "incarnation": incarnation},
            )
        app = job.build_app()
        app.backend = backend
        pipeline = app.compile(cache_dir=cache_dir)
        # the worker's execution state, bound once and kept for the
        # process's lifetime (resolving the kernel is part of "ready")
        plan = pipeline.plan()
        out_nbytes = int(
            np.prod(pipeline.output_extents, dtype=np.int64)
        ) * np.dtype(pipeline.output_dtype.to_numpy()).itemsize
    except BaseException:
        send(("init_err", traceback.format_exc()))
        return
    send(("ready", incarnation, out_nbytes))
    req_ring: Optional[shm_transport.ShmRing] = None
    resp_ring: Optional[shm_transport.ShmRing] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "attach":
            _, req_spec, resp_spec = message
            try:
                req_ring = shm_transport.ShmRing.attach(req_spec)
                resp_ring = shm_transport.ShmRing.attach(resp_spec)
            except Exception:
                req_ring = resp_ring = None
                send(("attach_err", traceback.format_exc()))
            else:
                send(("attached",))
            continue
        if kind == "reqs":
            _, packed = message
            rids = [rid for rid, _ in packed]
            requests = [inputs for _, inputs in packed]
            slot = None
        else:  # "reqs_shm"
            _, slot, rids, meta = message
            try:
                requests = shm_transport.read_frame(req_ring, slot, meta)
            except shm_transport.ShmCorruption:
                remote = _format_remote(
                    shm_transport.ShmCorruption(
                        f"request frame in slot {slot} rejected"
                    )
                )
                req_ring.release(slot)  # corrupt or not, free the slot
                send(
                    (
                        "done",
                        {
                            "shm": None,
                            "inline": [],
                            "errs": [(rid,) + remote for rid in rids],
                        },
                    )
                )
                continue
        payload = _serve_batch(plan, rids, requests, resp_ring)
        if slot is not None:
            # the kernel may read zero-copy views until the run above
            # returned (the plan keeps them bound, unread, until its
            # next ingest); only now is the slot safe to hand back
            req_ring.release(slot)
        send(("done", payload))
    stop_beat.set()
    for ring in (req_ring, resp_ring):
        if ring is not None:
            ring.close()


# -- supervisor-side bookkeeping -----------------------------------------------


#: a terminal outcome -> its :meth:`WorkerPool.event_log` kind
_EVENT_KINDS = {"completed": "complete", "failed": "fail", "expired": "expire"}


def _split_expired(
    requests: Iterable[_Request], now: float
) -> Tuple[List[_Request], List[_Request]]:
    """``(live, spent)``: the one expiry test, for a router bucket and
    the pool's queue alike — a request is spent once ``now`` reaches
    its own ``expires_at``."""
    live: List[_Request] = []
    spent: List[_Request] = []
    for request in requests:
        expires_at = request.expires_at
        if expires_at is not None and expires_at <= now:
            spent.append(request)
        else:
            live.append(request)
    return live, spent


class _Rolling:
    """In-progress :meth:`WorkerPool.rolling_restart` bookkeeping.

    All fields are guarded by the pool's ``_mu`` except ``done``
    (an event the caller waits on outside the lock).
    """

    __slots__ = (
        "pending",
        "phase",
        "old_incarnation",
        "probe_started",
        "replaced",
        "error",
        "done",
    )

    def __init__(self, worker_ids: List[int]) -> None:
        self.pending = list(worker_ids)
        self.phase = "draining"  # "draining" | "probing"
        self.old_incarnation: Optional[int] = None
        self.probe_started = 0.0
        self.replaced = 0
        self.error: Optional[str] = None
        self.done = threading.Event()


class _Worker:
    __slots__ = (
        "id",
        "incarnation",
        "process",
        "conn",
        "ready",
        "batch",
        "dispatched_at",
        "last_heartbeat",
        "init_strikes",
        "out_nbytes",
        "req_ring",
        "resp_ring",
        "shm_state",  # "none" | "pending" | "ready" | "broken"
        "draining",
        "plan_stats",
    )

    def __init__(self, wid, incarnation, process, conn, init_strikes, now):
        self.id = wid
        self.incarnation = incarnation
        self.process = process
        self.conn = conn
        self.ready = False
        #: the requests of its one in-flight dispatch
        self.batch: Optional[List[_Request]] = None
        self.draining = False  # rolling restart: no new dispatches
        self.dispatched_at = 0.0
        self.last_heartbeat = now
        self.init_strikes = init_strikes
        self.out_nbytes: Optional[int] = None
        self.req_ring: Optional[shm_transport.ShmRing] = None
        self.resp_ring: Optional[shm_transport.ShmRing] = None
        self.shm_state = "none"
        #: the worker plan's counters as of its last reply (like every
        #: field here, touched only under the pool's ``_mu``)
        self.plan_stats: Optional[Dict[str, int]] = None


def _jitter_fraction(req_id: int, attempt: int) -> float:
    """Deterministic jitter in ``[0, 1)`` — reproducible backoff."""
    digest = hashlib.sha256(f"{req_id}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class WorkerPool:
    """Serve one :class:`CompileJob` from supervised worker processes.

    Parameters
    ----------
    job:
        The pipeline to serve, as a picklable compile spec.
    workers:
        Worker-process count (default 2).
    backend:
        Execution backend inside each worker; defaults to the job's.
    cache_dir:
        Shared artifact-store root for warm starts.  Strongly
        recommended: restarted workers re-hydrate kernels from it.
    fault_plan:
        A :class:`~repro.service.faults.FaultPlan` installed in every
        worker (scoped ``{"worker": id, "incarnation": n}``) — the
        deterministic fault-injection harness for tests/benchmarks.
    retries:
        Extra dispatches allowed per request (default 2).  Applies to
        worker crashes, deadline kills, and in-worker exceptions alike.
        Dispatches are spaced by exponential backoff: ``min(0.25, 0.02 *
        2**(attempt-1)) * (0.5 + 0.5 * jitter)`` seconds, with
        deterministic per-request jitter.
    deadline:
        Default per-request wall-clock *budget* in seconds, measured
        from submission; ``None`` disables.  Overridable per
        :meth:`submit`.  The budget is decremented through queue wait
        and execution alike: a request still queued when its budget
        runs out fails fast with :class:`DeadlineExceeded` without
        ever occupying a worker, and a dispatched batch is killed at
        its tightest *live* member expiry (expired members are swept
        out before dispatch, never inherited).  Only the members whose
        own budget ran out expire; the rest are retried, or fail with
        :class:`WorkerCrashed` as after any other kill.
    record_events:
        When true, keep a bounded in-memory log of request lifecycle
        events (``("dispatch"|"complete"|"fail"|"expire", rid, ...)``)
        readable via :meth:`event_log` — the chaos harness uses it to
        check at-most-once and exactly-one-terminal-outcome.
    hang_grace:
        Workers heartbeat every 0.05 s; staleness beyond ``hang_grace``
        seconds (default ``max(1s, 10x that period)``) kills the worker.
    max_pending:
        Admission bound on queued+in-flight requests; a full pool
        raises :class:`~repro.service.serve.RejectedError`.
    max_restarts:
        Total restart budget; once spent, further deaths are final.
    transport:
        ``"auto"`` (default) uses shared-memory rings when the host
        supports them, with per-batch pipe fallback; ``"shm"`` insists
        (raises :class:`~repro.service.shm.ShmUnavailable` up front
        when the host cannot); ``"pipe"`` never touches shared memory.
    batch_max:
        Largest batch one dispatch may carry (:meth:`submit_many`
        chunks above it).
    """

    _POLL = 0.02  # supervisor loop granularity (seconds)
    _RETRY_BASE_DELAY = 0.02  # first retry backoff (seconds)
    _RETRY_MAX_DELAY = 0.25  # backoff ceiling (seconds)
    _INIT_STRIKE_LIMIT = 3
    _RING_SLOTS = 2  # one frame in flight + one being written

    def __init__(
        self,
        job: CompileJob,
        workers: int = 2,
        backend: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        retries: int = 2,
        deadline: Optional[float] = None,
        hang_grace: Optional[float] = None,
        max_pending: Optional[int] = None,
        max_restarts: int = 16,
        transport: str = "auto",
        batch_max: int = 32,
        record_events: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if transport not in ("auto", "shm", "pipe"):
            raise ValueError(
                f"transport must be 'auto', 'shm', or 'pipe',"
                f" got {transport!r}"
            )
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.job = job
        self.backend = backend if backend is not None else job.backend
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.fault_plan = fault_plan
        self.retries = int(retries)
        self.deadline = deadline
        self.hang_grace = (
            float(hang_grace)
            if hang_grace is not None
            else max(1.0, 10.0 * _HEARTBEAT_INTERVAL)
        )
        self.max_pending = max_pending
        self.max_restarts = int(max_restarts)
        self.batch_max = int(batch_max)
        if transport == "shm" and not shm_transport.available():
            raise shm_transport.ShmUnavailable(
                "transport='shm' requested but this host cannot back"
                " shared memory"
            )
        if transport == "auto" and not shm_transport.available():
            transport = "pipe"
        self.transport = transport
        self._ctx = multiprocessing.get_context(_START_METHOD)

        self._mu = threading.Lock()
        #: queued batches, each served by one dispatch
        self._queue: Deque[List[_Request]] = deque()  # guarded-by: _mu
        self._workers: Dict[int, _Worker] = {}  # guarded-by: _mu
        self._closed = False  # guarded-by: _mu
        self._rolling: Optional[_Rolling] = None  # guarded-by: _mu
        self._drained = threading.Event()
        self._req_ids = itertools.count()
        self._wakeup_r, self._wakeup_w = self._ctx.Pipe(duplex=False)
        self.record_events = bool(record_events)
        self._events: Deque[tuple] = deque(maxlen=65536)  # guarded-by: _mu

        self.restarts = 0  # guarded-by: _mu
        self.crashes = 0  # guarded-by: _mu
        self.deadline_kills = 0  # guarded-by: _mu
        self.heartbeat_kills = 0  # guarded-by: _mu
        self.retries_performed = 0  # guarded-by: _mu
        self.completed = 0  # guarded-by: _mu
        self.failed = 0  # guarded-by: _mu
        self.expired = 0  # guarded-by: _mu
        self.rejected = 0  # guarded-by: _mu
        self.rolling_restarts = 0  # guarded-by: _mu
        self.shm_batches = 0  # guarded-by: _mu
        self.shm_requests = 0  # guarded-by: _mu
        self.pipe_batches = 0  # guarded-by: _mu
        self.pipe_payloads = 0  # guarded-by: _mu
        self.shm_fallbacks = 0  # guarded-by: _mu
        self.shm_corruptions = 0  # guarded-by: _mu

        # no supervisor thread exists yet, so these spawns race nothing
        for wid in range(int(workers)):
            self._spawn_locked(wid, 0, init_strikes=0)
        self._thread = threading.Thread(
            target=self._supervise, daemon=True, name="repro-supervisor"
        )
        self._thread.start()

    # -- lifecycle -------------------------------------------------------------

    def _spawn_locked(
        self, wid: int, incarnation: int, init_strikes: int
    ) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                wid,
                incarnation,
                child_conn,
                self.job,
                self.backend,
                self.cache_dir,
                self.fault_plan,
            ),
            daemon=True,
            name=f"repro-worker-{wid}.{incarnation}",
        )
        process.start()
        child_conn.close()
        self._workers[wid] = _Worker(
            wid, incarnation, process, parent_conn, init_strikes,
            time.monotonic(),
        )

    def _destroy_rings(self, worker: _Worker) -> None:
        """Tear down one worker's rings (supervisor owns the segments)."""
        for ring in (worker.req_ring, worker.resp_ring):
            if ring is not None:
                ring.destroy()
        worker.req_ring = None
        worker.resp_ring = None

    def _stop_worker(self, worker: _Worker, grace: float) -> None:
        """End one worker process and free its pipe and rings: wait up
        to ``grace`` seconds for it to exit on its own (after a
        ``("stop",)`` it does), then terminate it, then kill it."""
        worker.process.join(timeout=grace)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover - stuck SIGTERM
            worker.process.kill()
            worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        self._destroy_rings(worker)

    def _nudge(self) -> None:
        try:
            self._wakeup_w.send(None)
        except (BrokenPipeError, OSError):  # pragma: no cover - teardown race
            pass

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, complete queued + in-flight work, shut down.

        The graceful lifecycle verb: every already-accepted request
        reaches its normal terminal state (success, retry-exhausted
        failure, or expiry) before the workers stop.  Returns ``True``
        once fully drained, ``False`` on timeout (work may still be
        completing; futures stay owned by the pool).  Idempotent.
        """
        with self._mu:
            self._closed = True
        self._nudge()
        return self._drained.wait(timeout)

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting work, drain, and shut the workers down.

        Idempotent.  Queued and in-flight requests complete (with their
        normal retry semantics) before the workers are stopped; a
        submit racing the close gets a typed
        :class:`~repro.service.serve.ServerClosed`.  If the drain does
        not finish within ``timeout`` the close turns forceful: every
        still-pending future is failed with
        :class:`~repro.service.serve.ServerClosed` and the workers are
        killed — no future is ever left unresolved.
        """
        if not self.drain(timeout):
            with self._mu:
                self._fail_left_locked(
                    ServerClosed("worker pool closed before completion")
                )
            self._nudge()
            self._drained.wait(10.0)

    def rolling_restart(self, timeout: float = 120.0) -> int:
        """Replace every worker, one at a time, with zero dropped work.

        Each worker in turn is drained (no new dispatches; its
        in-flight batch completes), stopped, and respawned with a
        bumped incarnation; the replacement warm-starts from
        ``cache_dir`` and must health-probe ``ready`` before the next
        worker is touched.  Admission stays open throughout and queued
        requests keep flowing to the other workers.  Returns the
        number of workers replaced; raises on timeout or when no
        replacement comes up.
        """
        with self._mu:
            if self._closed:
                raise ServerClosed("worker pool is closed")
            if self._rolling is not None:
                raise RuntimeError("a rolling restart is already in progress")
            rolling = _Rolling(sorted(self._workers))
            self._rolling = rolling
        self._nudge()
        if not rolling.done.wait(timeout):
            with self._mu:
                if self._rolling is rolling:
                    self._rolling = None
                for worker in self._workers.values():
                    worker.draining = False
            raise TimeoutError(
                f"rolling restart did not complete within {timeout}s"
                f" ({rolling.replaced} workers replaced)"
            )
        if rolling.error is not None:
            raise WorkerInitFailed(rolling.error)
        return rolling.replaced

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ------------------------------------------------------------

    def submit(
        self,
        inputs: Optional[Dict[str, np.ndarray]],
        deadline: Optional[float] = None,
        idempotent: bool = True,
    ) -> "Future[np.ndarray]":
        """Enqueue one request; the future resolves to its output.

        ``idempotent=False`` requests are dispatched **at most once**:
        if the owning worker crashes or blows its deadline mid-request
        the future fails with the typed error instead of re-running
        work whose side effects may have partially applied.
        """
        return self.submit_many(
            [inputs], deadline=deadline, idempotent=idempotent
        )[0]

    def submit_many(
        self,
        requests: Sequence[Optional[Dict[str, np.ndarray]]],
        deadline: Optional[float] = None,
        idempotent: bool = True,
    ) -> "List[Future[np.ndarray]]":
        """Enqueue a micro-batch; one future per request, in order.

        The batch is chunked across idle workers (never beyond
        ``batch_max`` per chunk) and each chunk runs as one batch-axis
        dispatch inside a worker.  Admission is all-or-nothing: when
        ``max_pending`` cannot absorb the whole batch, every request is
        rejected and counted.  ``deadline`` is a per-request wall-clock
        budget from *now*.
        """
        now = time.monotonic()
        budget = deadline if deadline is not None else self.deadline
        expires_at = now + budget if budget is not None else None
        members = [
            _Request(inputs, idempotent, expires_at, now)
            for inputs in requests
        ]
        if members:
            self._enqueue(members)
        return [member.future for member in members]

    def _enqueue(self, requests: List[_Request]) -> None:
        """Admit, queue and dispatch records: the one way into the
        pool, for :meth:`submit_many` and the router's flusher alike.

        Who dispatches: this call, on the submitting thread, runs the
        supervisor's own :meth:`_dispatch_locked` pass (expiry sweep,
        backoff gates, at-most-once accounting), so an idle worker gets
        its frame without a supervisor wake-up.  What stays queued —
        every worker busy, a retry inside its backoff — is the
        supervisor thread's, which is nudged; replies, reaping,
        heartbeats, rolling restarts and retries are its alone.
        """
        with self._mu:
            if self._closed:
                raise ServerClosed("worker pool is closed")
            if (
                self.max_pending is not None
                and self._pending_locked() + len(requests) > self.max_pending
            ):
                self.rejected += len(requests)
                raise RejectedError(
                    f"admission queue full ({self.max_pending} pending)"
                )
            for request in requests:
                request.id = next(self._req_ids)
                request.ledgers.append(self._count_locked)
            spread = max(1, len(self._workers))
            chunk = max(
                1, min(self.batch_max, -(-len(requests) // spread))
            )
            for start in range(0, len(requests), chunk):
                self._queue.append(requests[start:start + chunk])
            self._dispatch_locked(time.monotonic())
            queued = bool(self._queue)
        if queued:
            self._nudge()

    def run(
        self,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        return self.submit(inputs, deadline=deadline).result()

    def run_many(
        self,
        requests: Sequence[Optional[Dict[str, np.ndarray]]],
        deadline: Optional[float] = None,
        on_error: str = "raise",
    ) -> List[np.ndarray]:
        """Run a batch over the pool; outputs in request order.

        Each request is submitted as its own dispatch (use
        :meth:`submit_many` for micro-batched dispatch); tensor
        payloads still ride the shared-memory data plane.  Failures
        follow :func:`~repro.service.serve.gather`; a ``RequestError``
        keeps the worker-side traceback on its ``original``
        (:class:`RemoteError`).
        """
        return gather(
            lambda inputs: self.submit(inputs, deadline=deadline),
            requests,
            on_error,
        )

    def event_log(self) -> List[tuple]:
        """Snapshot of the lifecycle event log (``record_events=True``).

        Entries are ``("dispatch", rid, idempotent, attempt)``,
        ``("complete", rid)``, ``("fail", rid, error_kind)``, and
        ``("expire", rid)`` in supervisor order — the terminal kinds
        appear exactly once per request id.
        """
        with self._mu:
            return list(self._events)

    def stats(self) -> Dict[str, object]:
        """Recovery and throughput counters plus per-worker state
        (``"plan"``: the worker's execution-plan and arena counters as
        of its last reply, ``None`` before the first)."""
        with self._mu:
            rings = [
                ring.stats()
                for worker in self._workers.values()
                for ring in (worker.req_ring, worker.resp_ring)
                if ring is not None
            ]
            return {
                "workers": [
                    {
                        "id": worker.id,
                        "incarnation": worker.incarnation,
                        "ready": worker.ready,
                        "busy": worker.batch is not None,
                        "alive": worker.process.is_alive(),
                        "shm": worker.shm_state,
                        "draining": worker.draining,
                        "plan": worker.plan_stats,
                    }
                    for worker in self._workers.values()
                ],
                "restarts": self.restarts,
                "rolling_restarts": self.rolling_restarts,
                "crashes": self.crashes,
                "deadline_kills": self.deadline_kills,
                "heartbeat_kills": self.heartbeat_kills,
                "retries": self.retries_performed,
                "completed": self.completed,
                "failed": self.failed,
                "expired": self.expired,
                "rejected": self.rejected,
                "pending": self._pending_locked(),
                "closed": self._closed,
                "transport": {
                    "mode": self.transport,
                    "shm_batches": self.shm_batches,
                    "shm_requests": self.shm_requests,
                    "pipe_batches": self.pipe_batches,
                    "pipe_payloads": self.pipe_payloads,
                    "shm_fallbacks": self.shm_fallbacks,
                    "shm_corruptions": self.shm_corruptions,
                    "rings": rings,
                },
            }

    # -- supervisor internals --------------------------------------------------

    def _pending_locked(self) -> int:
        inflight = sum(
            len(worker.batch)
            for worker in self._workers.values()
            if worker.batch is not None
        )
        return sum(len(batch) for batch in self._queue) + inflight

    def _backoff(self, request: _Request) -> float:
        base = min(
            self._RETRY_MAX_DELAY,
            self._RETRY_BASE_DELAY * (2 ** max(0, request.attempts - 1)),
        )
        return base * (0.5 + 0.5 * _jitter_fraction(request.id, request.attempts))

    def _count_locked(
        self, request: _Request, outcome: str, error: Optional[BaseException]
    ) -> None:
        """The pool's ledger (see :meth:`_Request.settle`)."""
        setattr(self, outcome, getattr(self, outcome) + 1)
        if self.record_events:
            event = (_EVENT_KINDS[outcome], request.id)
            if outcome == "failed":
                event += (type(error).__name__,)
            self._events.append(event)

    def _retry_or_fail_locked(
        self, request: _Request, error: BaseException
    ) -> None:
        """Re-queue a failed dispatch (as a singleton batch, so it
        cannot re-fail batch-mates), or surface the error.

        ``request.attempts`` already counts the dispatch that failed.
        """
        if (
            request.expires_at is not None
            and time.monotonic() >= request.expires_at
        ):
            # the budget is spent; a retry could never meet it
            request.settle(
                error=DeadlineExceeded(
                    f"request {request.id} budget expired during dispatch"
                )
            )
            return
        # at-most-once (the attempt may have partially run), or the
        # retry budget is spent
        if not request.idempotent or request.attempts > self.retries:
            request.settle(error=error)
            return
        self.retries_performed += 1
        request.not_before = time.monotonic() + self._backoff(request)
        self._queue.appendleft([request])

    def _reap_locked(
        self, worker: _Worker, error: BaseException, counter: str
    ) -> None:
        """Bury a dead/hung worker, requeue its batch, restart it."""
        setattr(self, counter, getattr(self, counter) + 1)
        batch, worker.batch = worker.batch, None
        self._stop_worker(worker, grace=0.0)
        for request in batch or ():
            self._retry_or_fail_locked(request, error)
        del self._workers[worker.id]
        strikes = worker.init_strikes + (0 if worker.ready else 1)
        # a graceful drain still owes terminal results for queued work,
        # so crashes keep respawning until the queue is empty (a forced
        # close has already emptied it)
        if (
            (not self._closed or self._queue)
            and self.restarts < self.max_restarts
            and strikes < self._INIT_STRIKE_LIMIT
        ):
            self.restarts += 1
            self._spawn_locked(worker.id, worker.incarnation + 1, strikes)

    def _handle_message_locked(self, worker: _Worker, message) -> None:
        kind = message[0]
        now = time.monotonic()
        worker.last_heartbeat = now
        if kind == "hb":
            return
        if kind == "ready":
            worker.ready = True
            worker.init_strikes = 0
            worker.out_nbytes = message[2]
            return
        if kind == "attached":
            if worker.shm_state == "pending":
                worker.shm_state = "ready"
            return
        if kind == "attach_err":
            worker.shm_state = "broken"
            self.shm_fallbacks += 1
            self._destroy_rings(worker)
            return
        if kind == "init_err":
            # the worker exits right after sending this; reap it now
            # with the remote traceback as the cause
            self._reap_locked(
                worker,
                WorkerInitFailed(
                    f"worker {worker.id} failed to initialize:\n{message[1]}"
                ),
                "crashes",
            )
            return
        if kind == "done":
            self._finish_batch_locked(worker, message[1])

    def _finish_batch_locked(self, worker: _Worker, payload: dict) -> None:
        """Resolve one dispatched batch from its reply payload."""
        batch, worker.batch = worker.batch, None
        if batch is None:  # stale reply from a reaped dispatch
            return
        worker.plan_stats = payload.get("plan", worker.plan_stats)
        by_id = {request.id: request for request in batch}
        outputs: Dict[int, np.ndarray] = {}
        shm_part = payload.get("shm")
        if shm_part is not None:
            slot, rids, meta = shm_part
            try:
                frames = shm_transport.read_frame(
                    worker.resp_ring, slot, meta, copy=True
                )
            except shm_transport.ShmCorruption as exc:
                self.shm_corruptions += 1
                worker.resp_ring.release(slot)
                for rid in rids:
                    request = by_id.pop(rid, None)
                    if request is not None:
                        self._retry_or_fail_locked(request, exc)
            else:
                worker.resp_ring.release(slot)
                for rid, frame in zip(rids, frames):
                    outputs[rid] = frame["o"]
        for rid, output in payload.get("inline", ()):
            outputs[rid] = output
        for rid, err_kind, err_msg, err_tb in payload.get("errs", ()):
            request = by_id.pop(rid, None)
            if request is not None:
                if err_kind == "ShmCorruption":
                    self.shm_corruptions += 1
                self._retry_or_fail_locked(
                    request, RemoteError(err_kind, err_msg, err_tb)
                )
        for rid, output in outputs.items():
            request = by_id.pop(rid, None)
            if request is not None:
                request.settle(output)
        for request in by_id.values():  # no verdict at all: treat as lost
            self._retry_or_fail_locked(
                request,
                WorkerCrashed(
                    f"worker {worker.id} returned no result for request"
                    f" {request.id}"
                ),
            )

    def _setup_rings_locked(self, worker: _Worker, inputs: List) -> None:
        """Create this worker's rings and start the attach handshake.

        Slot capacity is sized from the batch's shape signature: one
        request's frame (its unique tensors, shared weights included)
        times ``batch_max``, with alignment slack.  Ring creation
        failure marks the worker's transport broken — it serves over
        the pipe for the rest of its incarnation.
        """
        if worker.out_nbytes is None or not inputs:
            return
        probe = shm_transport.plan_frame(inputs[:1])
        if probe is None:
            return  # not tensor traffic; stay on the pipe for now
        slack = 64 * (self.batch_max + 4)
        req_bytes = probe.length * self.batch_max + slack
        resp_bytes = worker.out_nbytes * self.batch_max + slack
        try:
            worker.req_ring = shm_transport.ShmRing.create(
                self._RING_SLOTS, req_bytes
            )
            worker.resp_ring = shm_transport.ShmRing.create(
                self._RING_SLOTS, resp_bytes
            )
            worker.conn.send(
                ("attach", worker.req_ring.spec, worker.resp_ring.spec)
            )
        except (shm_transport.ShmUnavailable, BrokenPipeError, OSError):
            self._destroy_rings(worker)
            worker.shm_state = "broken"
            self.shm_fallbacks += 1
            return
        worker.shm_state = "pending"

    def _send_batch_locked(
        self, worker: _Worker, batch: List[_Request]
    ) -> bool:
        """Dispatch one batch, choosing the data plane.

        Shared memory when the worker's rings are up and the frame
        fits; the pipe otherwise (whole batch as one message, so
        intra-batch array identity — shared weights — survives
        pickling).  Returns ``False`` when the worker's pipe is dead.
        """
        rids = [request.id for request in batch]
        inputs = [request.inputs for request in batch]
        if self.transport != "pipe" and worker.shm_state != "broken":
            if worker.req_ring is None and worker.shm_state == "none":
                self._setup_rings_locked(worker, inputs)
            if worker.shm_state == "ready":
                plan = shm_transport.plan_frame(inputs)
                slot = None
                if plan is not None:
                    slot = shm_transport.write_frame(worker.req_ring, plan)
                if slot is not None:
                    try:
                        worker.conn.send(("reqs_shm", slot, rids, plan.meta))
                    except (BrokenPipeError, OSError):
                        return False  # reap (next pass) frees the rings
                    self.shm_batches += 1
                    self.shm_requests += len(rids)
                    return True
                self.shm_fallbacks += 1
        try:
            worker.conn.send(("reqs", list(zip(rids, inputs))))
        except (BrokenPipeError, OSError):
            return False
        self.pipe_batches += 1
        self.pipe_payloads += len(rids)
        return True

    def _dispatch_locked(self, now: float) -> None:
        # expiries leave first, so an expired request never occupies a
        # worker and a batch's dispatch deadline is the tightest *live*
        # member expiry, never an expired one's
        for batch in self._queue:
            live, spent = _split_expired(batch, now)
            batch[:] = live
            for request in spent:
                request.settle(
                    error=DeadlineExceeded(
                        f"request {request.id} budget expired while queued"
                    )
                )
        self._queue = deque(batch for batch in self._queue if batch)
        idle = [
            worker
            for worker in self._workers.values()
            if worker.ready
            and worker.batch is None
            and not worker.draining
            and worker.process.is_alive()
        ]
        deferred: List[List[_Request]] = []
        while idle and self._queue:
            batch = self._queue.popleft()
            if max(request.not_before for request in batch) > now:
                deferred.append(batch)  # a retry inside its backoff
                continue
            worker = idle.pop()
            for request in batch:
                request.attempts += 1
            if not self._send_batch_locked(worker, batch):
                # worker died between poll and dispatch; the reap below
                # (next loop pass) restarts it — requeue undispatched
                for request in batch:
                    request.attempts -= 1
                deferred.append(batch)
                continue
            if self.record_events:
                for request in batch:
                    self._events.append(
                        (
                            "dispatch",
                            request.id,
                            request.idempotent,
                            request.attempts,
                        )
                    )
            worker.batch = batch
            worker.dispatched_at = now
        for batch in deferred:
            self._queue.appendleft(batch)

    def _fail_left_locked(self, error: BaseException) -> None:
        """Fail what is left, queued and in flight, with ``error``.

        The forceful end of :meth:`close` (:class:`ServerClosed`, once
        a graceful drain gave up) and of a pool whose restart budget is
        spent with no live worker (:class:`WorkerCrashed`): every
        future reaches a terminal state, so no caller blocks forever.
        """
        left = [request for batch in self._queue for request in batch]
        self._queue.clear()
        for worker in self._workers.values():
            batch, worker.batch = worker.batch, None
            left.extend(batch or ())
        for request in left:
            request.settle(error=error)

    def _rolling_step_locked(self, now: float) -> None:
        """Advance an in-progress rolling restart by one state step.

        One worker at a time: mark it draining (no new dispatches; its
        in-flight batch completes), retire it, spawn the replacement
        with a bumped incarnation, and only move to the next worker
        once the replacement health-probes ``ready``.  A crash during
        the probe rides the normal reap/respawn path; a replacement
        that strikes out fails the whole rolling restart.
        """
        rolling = self._rolling
        if rolling is None:
            return
        while rolling.pending:
            wid = rolling.pending[0]
            worker = self._workers.get(wid)
            if worker is None:
                rolling.error = (
                    f"worker {wid} is gone and was not respawned; cannot"
                    " complete the rolling restart"
                )
                break
            if rolling.phase == "draining":
                if rolling.old_incarnation is None:
                    rolling.old_incarnation = worker.incarnation
                if worker.incarnation > rolling.old_incarnation:
                    # a crash already replaced it mid-drain: treat the
                    # respawn as the replacement and health-probe it
                    rolling.phase = "probing"
                    rolling.probe_started = now
                    continue
                worker.draining = True
                if worker.batch is not None:
                    return  # its in-flight batch finishes first
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                self._stop_worker(worker, grace=2.0)
                del self._workers[wid]
                self._spawn_locked(wid, worker.incarnation + 1, 0)
                rolling.phase = "probing"
                rolling.probe_started = now
                return
            # probing: wait for the replacement's ready health probe
            if worker.ready:
                worker.draining = False
                rolling.replaced += 1
                rolling.pending.pop(0)
                rolling.phase = "draining"
                rolling.old_incarnation = None
                continue
            return
        self._rolling = None
        if rolling.error is None:
            self.rolling_restarts += 1
        rolling.done.set()

    def _supervise(self) -> None:
        while True:
            with self._mu:
                now = time.monotonic()
                # drain every worker conn, then check for deaths/hangs
                for worker in list(self._workers.values()):
                    try:
                        while worker.conn.poll():
                            self._handle_message_locked(
                                worker, worker.conn.recv()
                            )
                            if worker.id not in self._workers:
                                break  # reaped (init_err)
                    except (EOFError, OSError):
                        pass  # death handled below via is_alive
                for worker in list(self._workers.values()):
                    if not worker.process.is_alive():
                        code = worker.process.exitcode
                        self._reap_locked(
                            worker,
                            WorkerCrashed(
                                f"worker {worker.id} (incarnation"
                                f" {worker.incarnation}) died with exit"
                                f" code {code}",
                                exit_code=code,
                            ),
                            "crashes",
                        )
                        continue
                    # the batch runs as one dispatch, so its deadline is
                    # the tightest member expiry; expired members were
                    # swept out before dispatch, so it never inherits a
                    # budget a live member did not ask for
                    expiries = [
                        request.expires_at
                        for request in worker.batch or ()
                        if request.expires_at is not None
                    ]
                    if expiries and now > min(expiries):
                        # the member whose budget ran out expires; to
                        # the rest this is a kill like any other
                        self._reap_locked(
                            worker,
                            WorkerCrashed(
                                f"worker {worker.id} killed: its batch of"
                                f" {len(worker.batch)} overran a"
                                " member's budget mid-execution"
                            ),
                            "deadline_kills",
                        )
                        continue
                    if now - worker.last_heartbeat > self.hang_grace:
                        self._reap_locked(
                            worker,
                            WorkerCrashed(
                                f"worker {worker.id} heartbeat stale"
                                f" (> {self.hang_grace:.2f}s); killed"
                            ),
                            "heartbeat_kills",
                        )
                        continue
                if not self._workers and self._queue:
                    # the restart budget is spent and nobody can serve:
                    # fail queued work now instead of letting it hang
                    self._fail_left_locked(
                        WorkerCrashed("no live workers remain")
                    )
                self._rolling_step_locked(now)
                self._dispatch_locked(now)
                if (
                    self._closed
                    and not self._queue
                    and not any(
                        worker.batch for worker in self._workers.values()
                    )
                ):
                    if self._rolling is not None:
                        rolling, self._rolling = self._rolling, None
                        rolling.error = (
                            rolling.error
                            or "pool closed during rolling restart"
                        )
                        rolling.done.set()
                    workers = list(self._workers.values())
                    self._workers.clear()
                    break
                conns = [worker.conn for worker in self._workers.values()]
                sentinels = [
                    worker.process.sentinel
                    for worker in self._workers.values()
                ]
            connection_wait(
                conns + sentinels + [self._wakeup_r], timeout=self._POLL
            )
            try:
                while self._wakeup_r.poll():
                    self._wakeup_r.recv()
            except (EOFError, OSError):  # pragma: no cover - teardown race
                pass
        # shutdown: polite stop, then force
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            self._stop_worker(worker, grace=2.0)
        self._drained.set()

    def __repr__(self) -> str:
        with self._mu:
            workers = len(self._workers)
            completed = self.completed
        return (
            f"WorkerPool({self.job.label!r}, workers={workers},"
            f" backend={self.backend!r}, completed={completed})"
        )
