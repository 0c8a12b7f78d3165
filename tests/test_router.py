"""Differential serving-parity suite for the micro-batching router.

The gate for the shared-memory transport + router stack: a mixed
stream of requests served through ``Router`` -> shm rings ->
batch-axis workers must be **bitwise identical** to running every
request one at a time through ``CompiledPipeline.run`` in the same
process — on both backends, in submission order, and while the
fault-injection harness crashes workers mid-bucket or corrupts
shared-memory frames under the read path.
"""

import time

import numpy as np
import pytest

from conftest import SIMPLE_APPS, build_requests
from repro.runtime.executor import RequestError
from repro.service import CompileJob
from repro.service.faults import FaultPlan, FaultSpec
from repro.service.router import Router, job_fingerprint, shape_signature
from repro.service.serve import RejectedError, ServerClosed
from repro.service.shm import available as shm_available
from repro.service.supervisor import RemoteError, WorkerPool, _Request

pytestmark = pytest.mark.router

#: the cuda variants skip equality saturation, so workers start fast
JOBS = [
    CompileJob.make(
        module.__name__.split(".")[-1], "cuda", **params
    )
    for module, params in SIMPLE_APPS
]
#: a second conv1d shape so one app contributes two distinct buckets
EXTRA_SHAPE_JOB = CompileJob.make("conv1d", "cuda", taps=8, rows=1)

FAST_JOB = EXTRA_SHAPE_JOB  # smallest/fastest worker init of the set

BACKENDS = ["compile", "interpret"]


def _reference_outputs(job, requests, backend):
    """Per-request single-process ``CompiledPipeline.run`` outputs."""
    app = job.build_app()
    app.backend = backend
    pipeline = app.compile()
    return [pipeline.run(request) for request in requests]


def _mixed_stream(jobs, per_app, rng):
    """An interleaved mixed-shape stream: request ``i`` of every app,
    then request ``i+1`` of every app, ... — adjacent requests never
    share an app or a shape signature."""
    per_job = {}
    for job in jobs:
        app = job.build_app()
        per_job[job] = build_requests(app, per_app, rng)
    stream = []
    for index in range(per_app):
        for job in jobs:
            stream.append((job, per_job[job][index]))
    return per_job, stream


def _hang(seconds, visits=None):
    """A plan whose kernel visits sleep ``seconds`` (all of them, or
    the given per-worker visit indices) — how these tests hold a worker
    busy for a known time without depending on how fast it runs."""
    return FaultPlan(
        specs=[
            FaultSpec(
                "hang-kernel", rate=1.0, visits=visits, seconds=seconds
            )
        ]
    )


def _await_bucket(router, predicate, timeout=30.0):
    """Poll the router's only bucket row (1 ms period) until
    ``predicate(row)`` holds; returns ``(row, monotonic time seen)``."""
    give_up = time.monotonic() + timeout
    while True:
        buckets = router.stats()["buckets"]
        now = time.monotonic()
        if buckets and predicate(buckets[0]):
            return buckets[0], now
        assert now < give_up, f"bucket never got there: {buckets}"
        time.sleep(0.001)


def _await_pool(router, predicate, timeout=60.0):
    """Poll the router's only pool (1 ms period) until
    ``predicate(pool.stats())`` holds; returns the pool."""
    (pool,) = router.pools().values()
    give_up = time.monotonic() + timeout
    while not predicate(pool.stats()):
        assert time.monotonic() < give_up, "pool never got there"
        time.sleep(0.001)
    return pool


def _ready(stats):
    return all(worker["ready"] for worker in stats["workers"])


def _busy(stats):
    return any(worker["busy"] for worker in stats["workers"])


def _batches_sent(pool):
    """Worker dispatches so far, over either data plane."""
    transport = pool.stats()["transport"]
    return transport["shm_batches"] + transport["pipe_batches"]


class TestDifferentialParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_stream_bitwise_identical(self, backend, rng):
        """Every fig-6 app, mixed into one stream, twice over (the
        second round rides the warmed shared-memory path): routed
        results equal per-request execution bit for bit, in
        submission order."""
        jobs = JOBS + [EXTRA_SHAPE_JOB]
        per_job, stream = _mixed_stream(jobs, 3, rng)
        expected = {
            job_fingerprint(job): _reference_outputs(
                job, requests, backend
            )
            for job, requests in per_job.items()
        }
        with Router(
            jobs, workers=1, backend=backend, max_batch=4
        ) as router:
            for round_index in range(2):
                futures = [
                    (job_fingerprint(job), router.submit(job, inputs))
                    for job, inputs in stream
                ]
                seen = {}
                for key, future in futures:
                    position = seen.get(key, 0)
                    seen[key] = position + 1
                    np.testing.assert_array_equal(
                        future.result(timeout=120), expected[key][position]
                    )
            stats = router.stats()
        assert stats["completed"] == 2 * len(stream)
        assert stats["failed"] == 0
        # every app formed its own bucket; the extra conv1d shape too
        assert len(stats["buckets"]) == len(jobs)
        if backend == "compile" and shm_available():
            shm_requests = sum(
                pool["transport"]["shm_requests"]
                for pool in stats["pools"].values()
            )
            assert shm_requests > 0, "warmed stream never rode shm"

    def test_results_arrive_in_submission_order(self, rng):
        app = FAST_JOB.build_app()
        requests = build_requests(app, 10, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router([FAST_JOB], workers=2, max_batch=4) as router:
            results = router.run_many(FAST_JOB, requests)
        for result, reference in zip(results, expected):
            np.testing.assert_array_equal(result, reference)


class TestFaultedParity:
    def test_worker_crash_mid_bucket_is_bitwise_transparent(self, rng):
        """The acceptance scenario: a worker killed mid-bucket, the
        bucket's requests retried onto the respawned worker, results
        still bit-identical and in order."""
        app = FAST_JOB.build_app()
        requests = build_requests(app, 8, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        plan = FaultPlan(
            seed=11,
            specs=[
                FaultSpec(
                    "kill-worker", visits=(0,), scope={"incarnation": 0}
                )
            ],
        )
        with Router(
            [FAST_JOB],
            workers=2,
            max_batch=4,
            fault_plan=plan,
            retries=3,
        ) as router:
            results = router.run_many(FAST_JOB, requests)
            stats = router.stats()
        for result, reference in zip(results, expected):
            np.testing.assert_array_equal(result, reference)
        pool_stats = next(iter(stats["pools"].values()))
        assert pool_stats["crashes"] >= 1
        assert pool_stats["restarts"] >= 1
        assert stats["failed"] == 0

    @pytest.mark.skipif(
        not shm_available(), reason="host cannot back shared memory"
    )
    def test_corrupted_shm_frame_is_rejected_and_retried(self, rng):
        """An injected shm-slot corruption under the worker's read
        path: the checksummed frame is rejected, the requests retried
        on a fresh frame, and the served bytes stay identical."""
        app = FAST_JOB.build_app()
        requests = build_requests(app, 6, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        plan = FaultPlan(
            seed=5,
            specs=[FaultSpec("corrupt-shm-slot", visits=(0,))],
        )
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=4,
            fault_plan=plan,
            retries=3,
            transport="shm",
        ) as router:
            # two rounds: round 1 warms the ring handshake, round 2
            # rides shm and trips the injected corruption
            for _ in range(2):
                results = router.run_many(FAST_JOB, requests)
                for result, reference in zip(results, expected):
                    np.testing.assert_array_equal(result, reference)
            stats = router.stats()
        pool_stats = next(iter(stats["pools"].values()))
        transport = pool_stats["transport"]
        assert transport["shm_corruptions"] >= 1
        assert transport["shm_batches"] >= 1
        assert stats["failed"] == 0


class TestTracebackPreservation:
    def test_run_many_on_error_return_preserves_worker_traceback(
        self, rng
    ):
        """Regression: a request failing *inside* a worker-side batch
        must surface its own original traceback through the shm
        transport — the same exception type a local run raises, with
        the worker-side traceback text attached."""
        app = FAST_JOB.build_app()
        app.backend = "compile"
        pipeline = app.compile()
        requests = build_requests(app, 5, rng)
        poisoned = dict(requests[2])
        first_key = sorted(poisoned)[0]
        poisoned[first_key] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(Exception) as local:
            pipeline.run(poisoned)
        local_kind = type(local.value).__name__

        batch = requests[:2] + [poisoned] + requests[3:]
        with WorkerPool(FAST_JOB, workers=1, retries=0) as pool:
            # warm the ring handshake so the batch below rides shm
            pool.run(requests[0])
            before = pool.stats()["transport"]["shm_batches"]
            futures = pool.submit_many(batch)
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result(timeout=120))
                except Exception as exc:
                    results.append(RequestError(index, exc))
            after = pool.stats()["transport"]["shm_batches"]
        if shm_available():
            assert after > before, "batch did not ride the shm path"
        assert isinstance(results[2], RequestError)
        remote = results[2].original
        assert isinstance(remote, RemoteError)
        assert remote.kind == local_kind
        assert "Traceback (most recent call last)" in (
            remote.remote_traceback
        )
        assert local_kind in remote.remote_traceback
        for index in (0, 1, 3, 4):
            np.testing.assert_array_equal(
                results[index], pipeline.run(batch[index])
            )

    def test_router_isolates_poisoned_request(self, rng):
        app = FAST_JOB.build_app()
        requests = build_requests(app, 4, rng)
        poisoned = dict(requests[1])
        first_key = sorted(poisoned)[0]
        poisoned[first_key] = np.zeros((2, 2), dtype=np.float32)
        batch = [requests[0], poisoned, requests[2], requests[3]]
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router([FAST_JOB], workers=1, retries=0) as router:
            results = router.run_many(
                FAST_JOB, batch, on_error="return"
            )
        assert isinstance(results[1], RequestError)
        assert results[1].index == 1
        np.testing.assert_array_equal(results[0], expected[0])
        np.testing.assert_array_equal(results[2], expected[2])
        np.testing.assert_array_equal(results[3], expected[3])


class TestAdmissionAndLifecycle:
    def test_backpressure_rejects_beyond_max_pending(self, rng):
        app = FAST_JOB.build_app()
        requests = build_requests(app, 3, rng)
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=16,
            flush_interval=0.5,
            max_pending=2,
            # the head leaves for the idle worker at once; it must
            # still be pending there when the tail is offered
            fault_plan=_hang(0.1),
        ) as router:
            first = router.submit(FAST_JOB, requests[0])
            second = router.submit(FAST_JOB, requests[1])
            with pytest.raises(RejectedError):
                router.submit(FAST_JOB, requests[2])
            first.result(timeout=120)
            second.result(timeout=120)
            stats = router.stats()
        assert stats["rejected"] >= 1
        assert any(b["rejected"] >= 1 for b in stats["buckets"])

    def test_close_is_idempotent_and_rejects_new_work(self, rng):
        app = FAST_JOB.build_app()
        request = build_requests(app, 1, rng)[0]
        router = Router([FAST_JOB], workers=1)
        router.run(FAST_JOB, request)
        router.close()
        router.close()
        with pytest.raises(ServerClosed):
            router.submit(FAST_JOB, request)
        assert router.stats()["closed"] is True

    def test_unknown_job_is_a_typed_error(self, rng):
        with Router([FAST_JOB], workers=1) as router:
            with pytest.raises(KeyError):
                router.submit(
                    CompileJob.make("conv1d", "cuda", taps=4, rows=1), None
                )

    def test_pipe_transport_serves_identically(self, rng):
        """Fallback matrix row: shared memory disabled outright, the
        pipe path alone still serves bit-identical results."""
        app = FAST_JOB.build_app()
        requests = build_requests(app, 6, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router(
            [FAST_JOB], workers=1, transport="pipe"
        ) as router:
            results = router.run_many(FAST_JOB, requests)
            stats = router.stats()
        for result, reference in zip(results, expected):
            np.testing.assert_array_equal(result, reference)
        transport = next(iter(stats["pools"].values()))["transport"]
        assert transport["mode"] == "pipe"
        assert transport["shm_batches"] == 0
        assert transport["pipe_payloads"] >= len(requests)


class TestStats:
    def test_per_bucket_latency_and_throughput(self, rng):
        app = FAST_JOB.build_app()
        requests = build_requests(app, 8, rng)
        with Router(
            [FAST_JOB], workers=1, max_batch=4, flush_interval=0.05
        ) as router:
            router.run_many(FAST_JOB, requests)
            stats = router.stats()
        assert stats["submitted"] == len(requests)
        assert stats["completed"] == len(requests)
        (bucket,) = stats["buckets"]
        assert bucket["signature"] == shape_signature(requests[0])
        assert bucket["flushes"] >= 1
        assert bucket["largest_flush"] >= 2  # micro-batching engaged
        assert bucket["p50_ms"] is not None
        assert bucket["p99_ms"] is not None
        assert bucket["p50_ms"] <= bucket["p99_ms"]
        assert bucket["throughput_rps"] and bucket["throughput_rps"] > 0
        fingerprint = bucket["fingerprint"]
        assert stats["jobs"][fingerprint] == FAST_JOB.label
        assert stats["pools"][fingerprint]["completed"] == len(requests)


class TestLifecycleHardening:
    def test_run_many_partial_submit_returns_placeholders(self, rng):
        """Regression: a mid-stream admission rejection must not
        abandon already-submitted futures.  With on_error="return" the
        rejected tail comes back as RequestError placeholders and the
        admitted head still completes."""
        app = FAST_JOB.build_app()
        requests = build_requests(app, 4, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=16,
            flush_interval=0.3,
            max_pending=2,
            # the head leaves for the idle worker at once; it must
            # still be pending there when the tail is offered
            fault_plan=_hang(0.1),
        ) as router:
            results = router.run_many(
                FAST_JOB, requests, on_error="return"
            )
        np.testing.assert_array_equal(results[0], expected[0])
        np.testing.assert_array_equal(results[1], expected[1])
        for index in (2, 3):
            assert isinstance(results[index], RequestError)
            assert isinstance(results[index].original, RejectedError)
            assert results[index].index == index

    def test_run_many_partial_submit_raise_awaits_the_head(self, rng):
        """Same regression, on_error="raise": the RejectedError
        surfaces only after the already-submitted futures reached
        terminal states — nothing is left pending behind the raise."""
        app = FAST_JOB.build_app()
        requests = build_requests(app, 4, rng)
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=16,
            flush_interval=0.3,
            max_pending=2,
            # the head leaves for the idle worker at once; it must
            # still be pending there when the tail is offered
            fault_plan=_hang(0.1),
        ) as router:
            with pytest.raises(RejectedError):
                router.run_many(FAST_JOB, requests, on_error="raise")
            stats = router.stats()
            assert stats["pending"] == 0
            assert stats["completed"] == 2

    def test_expired_request_never_reaches_a_worker(self, rng):
        """The deadline-budget contract: a request whose budget is
        already spent fails fast with DeadlineExceeded and is never
        dispatched — no worker time, no pool traffic."""
        from repro.service.supervisor import DeadlineExceeded

        app = FAST_JOB.build_app()
        requests = build_requests(app, 2, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router(
            [FAST_JOB], workers=1, flush_interval=0.02, record_events=True
        ) as router:
            doomed = router.submit(FAST_JOB, requests[0], deadline=1e-6)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=60)
            # the router stays healthy for in-budget work
            live = router.submit(FAST_JOB, requests[1], deadline=60.0)
            np.testing.assert_array_equal(
                live.result(timeout=120), expected[1]
            )
            stats = router.stats()
            (pool,) = router.pools().values()
            dispatched = {
                event[1]
                for event in pool.event_log()
                if event[0] == "dispatch"
            }
        assert stats["expired"] == 1
        assert stats["completed"] == 1
        assert stats["failed"] == 0
        # exactly one request ever reached the pool
        assert len(dispatched) == 1
        pool_stats = stats["pools"][job_fingerprint(FAST_JOB)]
        assert pool_stats["completed"] == 1
        assert pool_stats["expired"] == 0
        assert pool_stats["deadline_kills"] == 0

    def test_queue_wait_consumes_the_budget(self, rng):
        """The budget spans router queue wait: a request held behind a
        busy worker, whose bucket does not flush inside its budget,
        expires without dispatch."""
        from repro.service.supervisor import DeadlineExceeded

        app = FAST_JOB.build_app()
        requests = build_requests(app, 2, rng)
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=16,
            flush_interval=0.5,
            fault_plan=_hang(0.3, visits=(0,)),
            record_events=True,
        ) as router:
            blocker = router.submit(FAST_JOB, requests[0])
            _await_bucket(router, lambda row: row["inflight"] == 1)
            start = time.monotonic()
            future = router.submit(FAST_JOB, requests[1], deadline=0.05)
            with pytest.raises(DeadlineExceeded) as excinfo:
                future.result(timeout=60)
            elapsed = time.monotonic() - start
            assert "before its bucket flushed" in str(excinfo.value)
            assert router.stats()["expired"] == 1
            blocker.result(timeout=60)
            (pool,) = router.pools().values()
            dispatches = [
                event for event in pool.event_log() if event[0] == "dispatch"
            ]
        # only the blocker ever reached the pool
        assert len(dispatches) == 1
        # on time: the flusher sleeps toward the expiry, not toward
        # the (ten times later) end of the flush window
        assert 0.05 <= elapsed <= 0.05 + 0.5 * 0.25

    def test_interactive_evicts_best_effort_at_bucket_cap(self, rng):
        """Two-class admission at the depth cap: best-effort arrivals
        shed, an interactive arrival evicts the newest queued
        best-effort entry instead of being turned away."""
        from repro.service.serve import ShedError

        app = FAST_JOB.build_app()
        requests = build_requests(app, 5, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        router = Router(
            [FAST_JOB],
            workers=1,
            max_batch=16,
            flush_interval=60.0,
            bucket_cap=2,
            fault_plan=_hang(0.3, visits=(0,)),
        )
        try:
            # a queue only forms behind a busy worker
            router.submit(FAST_JOB, requests[4])
            _await_bucket(router, lambda row: row["inflight"] == 1)
            first = router.submit(
                FAST_JOB, requests[0], priority="best-effort"
            )
            evicted = router.submit(
                FAST_JOB, requests[1], priority="best-effort"
            )
            with pytest.raises(ShedError):
                router.submit(
                    FAST_JOB, requests[2], priority="best-effort"
                )
            urgent = router.submit(
                FAST_JOB, requests[3], priority="interactive"
            )
            with pytest.raises(ShedError):
                evicted.result(timeout=1)
            # close() flushes the survivors: both classes complete
            router.close()
            np.testing.assert_array_equal(
                first.result(timeout=1), expected[0]
            )
            np.testing.assert_array_equal(
                urgent.result(timeout=1), expected[3]
            )
            stats = router.stats()
            assert stats["shed"] == 2
            assert stats["completed"] == 3
        finally:
            router.close()

    def test_sojourn_shedding_under_sustained_overload(self, rng):
        """CoDel-style control: under 3x overload the bucket sheds
        best-effort entries once head-of-queue wait stays above target,
        while every interactive request still completes — and once the
        queue has drained, the very next best-effort arrival is
        admitted (the shed state follows the queue, not the flusher's
        next wake-up)."""
        from repro.service.serve import ShedError

        app = FAST_JOB.build_app()
        requests = build_requests(app, 61, rng)
        shed = 0
        interactive = []
        best_effort = []
        # every kernel visit takes 6 ms, arrivals come every 2 ms: the
        # overload does not depend on how fast the worker runs the job
        slow_kernel = _hang(0.006)
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=1,
            max_inflight=1,
            flush_interval=0.001,
            shed_target=0.01,
            shed_interval=0.02,
            fault_plan=slow_kernel,
        ) as router:
            for index, request in enumerate(requests[:60]):
                # paced open-loop arrivals: the stream outlives the
                # service rate, so head-of-queue wait actually grows
                time.sleep(0.002)
                priority = (
                    "interactive" if index % 2 == 0 else "best-effort"
                )
                try:
                    future = router.submit(
                        FAST_JOB, request, priority=priority
                    )
                except ShedError:
                    assert priority == "best-effort"
                    shed += 1
                    continue
                (interactive if priority == "interactive" else
                 best_effort).append(future)
            (bucket,) = router.stats()["buckets"]
            assert bucket["shedding"], "arrivals ended before the overload"
            for future in interactive + best_effort:
                future.exception(timeout=120)
            late = router.submit(
                FAST_JOB, requests[60], priority="best-effort"
            )
            best_effort.append(late)
            assert router.drain(timeout=120) is True
            stats = router.stats()
        assert shed >= 1, "overload never tripped the shedder"
        assert stats["shed"] == shed
        # the interactive class rode through the overload untouched
        assert all(f.exception(timeout=1) is None for f in interactive)
        assert all(f.exception(timeout=1) is None for f in best_effort)
        assert stats["completed"] == len(interactive) + len(best_effort)

    def test_drain_resolves_everything_then_rejects(self, rng):
        app = FAST_JOB.build_app()
        requests = build_requests(app, 6, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        router = Router([FAST_JOB], workers=1, max_batch=4)
        try:
            futures = [
                router.submit(FAST_JOB, request) for request in requests
            ]
            assert router.drain(timeout=120) is True
            assert all(future.done() for future in futures)
            for future, reference in zip(futures, expected):
                np.testing.assert_array_equal(
                    future.result(timeout=1), reference
                )
            with pytest.raises(ServerClosed):
                router.submit(FAST_JOB, requests[0])
            stats = router.stats()
            assert stats["pending"] == 0
            assert stats["offered"] == stats["completed"] == len(requests)
        finally:
            router.close()

    def test_close_timeout_force_fails_stuck_requests(self, rng):
        """A wedged worker cannot strand callers: close(timeout=)
        fails the stuck future with a typed ServerClosed."""
        app = FAST_JOB.build_app()
        request = build_requests(app, 1, rng)[0]
        plan = _hang(30.0, visits=(0,))
        router = Router(
            [FAST_JOB],
            workers=1,
            fault_plan=plan,
            hang_grace=60.0,
            flush_interval=0.005,
        )
        future = router.submit(FAST_JOB, request)
        router.close(timeout=0.3)
        with pytest.raises(ServerClosed):
            future.result(timeout=1)

    def test_batch_mate_of_an_expiry_fails_and_the_ledgers_agree(
        self, rng
    ):
        """Regression: a batch killed because one member's budget ran
        out.  That member expires; its at-most-once batch-mate, which
        had no budget of its own, fails with WorkerCrashed as after any
        other kill — and the router's and the pool's ledgers count the
        same outcomes."""
        from repro.service.supervisor import DeadlineExceeded, WorkerCrashed

        app = FAST_JOB.build_app()
        requests = build_requests(app, 3, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "hang-kernel",
                    visits=(0,),
                    seconds=0.6,
                    scope={"incarnation": 0},
                ),
                FaultSpec(
                    "hang-kernel",
                    visits=(1,),
                    seconds=30.0,
                    scope={"incarnation": 0},
                ),
            ]
        )
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=8,
            flush_interval=10.0,
            fault_plan=plan,
            hang_grace=60.0,
        ) as router:
            pool = _await_pool(router, _ready)
            running = router.submit(FAST_JOB, requests[0])
            _await_bucket(router, lambda row: row["inflight"] == 1)
            # queued behind the busy worker, they leave as one batch
            budgeted = router.submit(
                FAST_JOB, requests[1], deadline=1.5, idempotent=False
            )
            unbudgeted = router.submit(
                FAST_JOB, requests[2], idempotent=False
            )
            np.testing.assert_array_equal(
                running.result(timeout=60), expected[0]
            )
            with pytest.raises(DeadlineExceeded):
                budgeted.result(timeout=60)
            with pytest.raises(WorkerCrashed):
                unbudgeted.result(timeout=60)
            stats = router.stats()
            pool_stats = pool.stats()
        (bucket,) = stats["buckets"]
        assert bucket["largest_flush"] == 2
        for ledger in (stats, pool_stats):
            outcomes = (
                ledger["completed"], ledger["failed"], ledger["expired"]
            )
            assert outcomes == (1, 1, 1)
        assert pool_stats["deadline_kills"] == 1

    def test_rolling_restart_replaces_every_worker(self, rng):
        app = FAST_JOB.build_app()
        requests = build_requests(app, 4, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router([FAST_JOB], workers=2, max_batch=2) as router:
            before = router.run_many(FAST_JOB, requests)
            replaced = router.rolling_restart(timeout=120)
            after = router.run_many(FAST_JOB, requests)
            stats = router.stats()
        assert replaced == 2
        for result, reference in zip(before, expected):
            np.testing.assert_array_equal(result, reference)
        for result, reference in zip(after, expected):
            np.testing.assert_array_equal(result, reference)
        pool_stats = stats["pools"][job_fingerprint(FAST_JOB)]
        assert pool_stats["rolling_restarts"] == 1
        assert pool_stats["crashes"] == 0
        assert all(
            worker["incarnation"] >= 1
            for worker in pool_stats["workers"]
        )


class TestFlusherTiming:
    """The flusher sleeps toward real deadlines instead of polling.
    A bucket is only ever held behind a *busy* pool, so each test
    occupies the one worker with a kernel visit that hangs longer than
    the hold it measures.  Upper bounds scale with ``flush_interval``
    so a loaded runner has tens of milliseconds of slack."""

    FLUSH = 0.2
    HANG = 0.3

    def test_lone_request_is_held_one_flush_interval(self, rng):
        """Behind a worker that stays busy, a lone request leaves for
        the pool's queue when ``flush_interval`` is up — the maximum
        hold — and not a poll period later."""
        app = FAST_JOB.build_app()
        requests = build_requests(app, 6, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=16,
            flush_interval=self.FLUSH,
            fault_plan=_hang(self.HANG, visits=(0, 2, 4)),
        ) as router:
            for trial in range(3):
                blocker = router.submit(FAST_JOB, requests[2 * trial])
                before, _ = _await_bucket(
                    router, lambda row: row["inflight"] == 1
                )
                start = time.monotonic()
                lone = router.submit(FAST_JOB, requests[2 * trial + 1])
                after, seen = _await_bucket(
                    router, lambda row: row["queued"] == 0
                )
                held = seen - start
                # the worker was still busy: the window closed, nothing
                # else let the request go
                assert not blocker.done()
                assert (
                    after["flush_reasons"]["interval"]
                    == before["flush_reasons"]["interval"] + 1
                )
                # never early, and late by a scheduler tick — not by
                # the up-to-half-an-interval a fixed poll adds
                assert self.FLUSH <= held <= self.FLUSH * 1.25
                for future, reference in zip(
                    (blocker, lone), expected[2 * trial:]
                ):
                    np.testing.assert_array_equal(
                        future.result(timeout=60), reference
                    )
            (bucket,) = router.stats()["buckets"]
        assert bucket["flush_reasons"] == {
            "idle": 3, "full": 0, "interval": 3, "closing": 0
        }

    def test_expiry_inside_the_flush_window_is_on_time(self, rng):
        """A budget that runs out while an older entry holds the
        bucket's flush window open (the worker is busy throughout):
        the expiry wakes the flusher at its own time, and the older
        entry still flushes at its own."""
        from repro.service.supervisor import DeadlineExceeded

        app = FAST_JOB.build_app()
        requests = build_requests(app, 3, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=16,
            flush_interval=self.FLUSH,
            fault_plan=_hang(self.HANG, visits=(0,)),
        ) as router:
            blocker = router.submit(FAST_JOB, requests[2])
            _await_bucket(router, lambda row: row["inflight"] == 1)
            start = time.monotonic()
            held = router.submit(FAST_JOB, requests[0])
            doomed = router.submit(FAST_JOB, requests[1], deadline=0.05)
            with pytest.raises(DeadlineExceeded) as excinfo:
                doomed.result(timeout=60)
            expired_after = time.monotonic() - start
            assert "before its bucket flushed" in str(excinfo.value)
            assert 0.05 <= expired_after <= 0.05 + self.FLUSH * 0.25
            np.testing.assert_array_equal(
                held.result(timeout=60), expected[0]
            )
            assert time.monotonic() - start >= self.FLUSH
            np.testing.assert_array_equal(
                blocker.result(timeout=60), expected[2]
            )
            (bucket,) = router.stats()["buckets"]
        # the blocker left for an idle worker, the held entry when its
        # window closed behind the busy one
        assert bucket["flush_reasons"]["idle"] == 1
        assert bucket["flush_reasons"]["interval"] == 1

    def test_idle_router_makes_no_passes_and_still_shuts_down(self, rng):
        app = FAST_JOB.build_app()
        request = build_requests(app, 1, rng)[0]
        (reference,) = _reference_outputs(FAST_JOB, [request], "compile")
        router = Router([FAST_JOB], workers=1, flush_interval=0.005)
        try:
            time.sleep(0.5)
            assert router.stats()["flusher_passes"] == 0
            assert router.rolling_restart(timeout=120) == 1
            assert router.stats()["flusher_passes"] == 0
            np.testing.assert_array_equal(
                router.run(FAST_JOB, request), reference
            )
            # the submit, the flush deadline, the completion — and a
            # little slack, but nothing periodic: the count settles
            # (unchanged across a 0.2 s window; a stalled host may
            # deliver the last pass late, so poll, bounded by 5 s)
            passes = router.stats()["flusher_passes"]
            assert passes >= 1
            give_up = time.monotonic() + 5.0
            while True:
                time.sleep(0.2)
                settled = router.stats()["flusher_passes"]
                if settled == passes:
                    break
                assert time.monotonic() < give_up, "flusher keeps passing"
                passes = settled
            assert passes <= 6
            assert router.drain(timeout=30) is True
        finally:
            router.close()


class TestWorkConservingFlush:
    """Dispatch never parks a request behind an idle worker: the router
    flushes a bucket the moment its pool has one, and the pool hands an
    idle worker its frame on the submitting thread.  One Router serves
    the whole class; every kernel visit sleeps ``HANG`` so "busy" lasts
    a known time, and assertions read flush reasons and counts rather
    than the clock wherever they can."""

    FLUSH = 0.4
    HANG = 0.05
    WORKERS = 2

    @pytest.fixture(scope="class")
    def served(self):
        app = FAST_JOB.build_app()
        requests = build_requests(app, 8, np.random.default_rng(16))
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router(
            [FAST_JOB],
            workers=self.WORKERS,
            max_batch=8,
            flush_interval=self.FLUSH,
            fault_plan=_hang(self.HANG),
            record_events=True,
        ) as router:
            router.run_many(FAST_JOB, requests)  # workers and rings warm
            yield router, requests, expected

    def _occupy(self, router, request):
        """Put one request in flight on every worker, one flush each."""
        blockers = []
        for count in range(1, self.WORKERS + 1):
            blockers.append(router.submit(FAST_JOB, request))
            _await_bucket(
                router, lambda row: row["inflight"] == count
            )
        return blockers

    def test_lone_request_on_an_idle_pool_is_not_held(self, served):
        router, requests, expected = served
        for request, reference in zip(requests[:5], expected):
            (before,) = router.stats()["buckets"]
            start = time.monotonic()
            result = router.run(FAST_JOB, request)
            took = time.monotonic() - start
            np.testing.assert_array_equal(result, reference)
            assert took <= 0.5 * self.FLUSH
            (after,) = router.stats()["buckets"]
            assert after["flushes"] == before["flushes"] + 1
            assert (
                after["flush_reasons"]["idle"]
                == before["flush_reasons"]["idle"] + 1
            )

    def test_arrivals_behind_busy_workers_leave_as_one_batch(self, served):
        """Batching under load is preserved: while every worker is
        busy, k < max_batch arrivals wait together and leave as one
        flush of k the moment a worker frees — well inside the window."""
        router, requests, expected = served
        k = 5
        blockers = self._occupy(router, requests[7])
        (before,) = router.stats()["buckets"]
        futures = [
            router.submit(FAST_JOB, request) for request in requests[:k]
        ]
        (row,) = router.stats()["buckets"]
        assert row["queued"] == k and not any(b.done() for b in blockers), (
            "the workers freed before the arrivals were in: host stall"
        )
        for future, reference in zip(futures, expected):
            np.testing.assert_array_equal(
                future.result(timeout=60), reference
            )
        (after,) = router.stats()["buckets"]
        assert after["flushes"] == before["flushes"] + 1
        assert (
            after["flush_reasons"]["idle"]
            == before["flush_reasons"]["idle"] + 1
        )
        assert (
            after["flush_reasons"]["interval"]
            == before["flush_reasons"]["interval"]
        )
        assert after["largest_flush"] >= k
        (pool,) = router.pools().values()
        rids = [e[1] for e in pool.event_log() if e[0] == "dispatch"]
        assert len(rids) == len(set(rids))  # nothing dispatched twice

    def test_one_flush_is_one_dispatch(self, rng):
        """Four queued requests of alternating idempotence leave as one
        flush and reach the worker as one batch — the flag rides on
        each request, so at-most-once still holds per request."""
        app = FAST_JOB.build_app()
        requests = build_requests(app, 5, rng)
        expected = _reference_outputs(FAST_JOB, requests, "compile")
        with Router(
            [FAST_JOB],
            workers=1,
            max_batch=8,
            flush_interval=10.0,
            fault_plan=_hang(0.6, visits=(0,)),
            record_events=True,
        ) as router:
            _await_pool(router, _ready)
            blocker = router.submit(FAST_JOB, requests[4])
            pool = _await_pool(router, _busy)
            (before,) = router.stats()["buckets"]
            before_sent = _batches_sent(pool)
            futures = [
                router.submit(FAST_JOB, request, idempotent=index % 2 == 0)
                for index, request in enumerate(requests[:4])
            ]
            (row,) = router.stats()["buckets"]
            assert row["queued"] == 4 and not blocker.done(), (
                "the worker freed before the arrivals were in: host stall"
            )
            for future, reference in zip(futures, expected):
                np.testing.assert_array_equal(
                    future.result(timeout=60), reference
                )
            np.testing.assert_array_equal(
                blocker.result(timeout=60), expected[4]
            )
            (after,) = router.stats()["buckets"]
            sent = _batches_sent(pool)
            events = pool.event_log()
        assert after["flushes"] == before["flushes"] + 1
        assert sent == before_sent + 1
        dispatches = [event for event in events if event[0] == "dispatch"]
        at_most_once = {event[1] for event in dispatches if not event[2]}
        assert len(at_most_once) == 2
        for rid in at_most_once:
            assert [event[1] for event in dispatches].count(rid) == 1

    def test_one_inflight_request_does_not_hold_the_second_worker(
        self, served
    ):
        router, requests, expected = served
        (before,) = router.stats()["buckets"]
        blockers = self._occupy(router, requests[6])
        (after,) = router.stats()["buckets"]
        # the second entry left while the first was still running, for
        # the idle second worker — two flushes of one, neither held
        assert not blockers[0].done()
        assert after["flushes"] == before["flushes"] + self.WORKERS
        assert (
            after["flush_reasons"]["idle"]
            == before["flush_reasons"]["idle"] + self.WORKERS
        )
        for blocker in blockers:
            np.testing.assert_array_equal(
                blocker.result(timeout=60), expected[6]
            )

    def test_pool_dispatches_on_the_submitting_thread(
        self, served, monkeypatch
    ):
        from repro.service.supervisor import DeadlineExceeded

        router, requests, expected = served
        (pool,) = router.pools().values()
        nudges = []
        nudge = pool._nudge
        monkeypatch.setattr(
            pool, "_nudge", lambda: (nudges.append(1), nudge())
        )

        def dispatched():
            return [e for e in pool.event_log() if e[0] == "dispatch"]

        # idle pool: the frame is on its way before submit_many returns
        # and the supervisor thread is not woken for it; at-most-once
        # requests are stamped with their single attempt as ever
        before = dispatched()
        (future,) = pool.submit_many([requests[0]], idempotent=False)
        (event,) = dispatched()[len(before):]
        assert event[2:] == (False, 1)
        assert nudges == []
        np.testing.assert_array_equal(
            future.result(timeout=60), expected[0]
        )
        # a spent budget is swept on the inline path too: handed over
        # as the router's flusher does, a record whose budget ran out
        # in its bucket expires without a dispatch, its live batch-mate
        # is served
        before = dispatched()
        now = time.monotonic()
        doomed = _Request(requests[0], True, now - 1.0, now)
        live = _Request(requests[1], True, None, now)
        pool._enqueue([doomed, live])
        assert isinstance(
            doomed.future.exception(timeout=1), DeadlineExceeded
        )
        np.testing.assert_array_equal(
            live.future.result(timeout=60), expected[1]
        )
        assert len(dispatched()) == len(before) + 1
        # every worker busy: the batch queues, the supervisor is nudged
        # and dispatches it when a worker frees
        blockers = pool.submit_many([requests[2]] * self.WORKERS)
        before = dispatched()
        assert nudges == []
        (queued,) = pool.submit_many([requests[3]])
        assert dispatched() == before and not blockers[0].done()
        assert nudges == [1]
        np.testing.assert_array_equal(
            queued.result(timeout=60), expected[3]
        )
        for blocker in blockers:
            blocker.result(timeout=60)
