"""Supervised multi-process serving: crash/hang recovery, retry
budgets, at-most-once semantics, warm restarts, and pool lifecycle —
all driven by the deterministic fault-injection harness."""

import numpy as np
import pytest

from conftest import build_requests
from repro.service import CompileJob, compile_one
from repro.service.faults import KILL_EXIT_CODE, FaultPlan, FaultSpec
from repro.service.serve import RejectedError, ServerClosed
from repro.service.shm import available as shm_available
from repro.service.supervisor import (
    DeadlineExceeded,
    RemoteError,
    WorkerCrashed,
    WorkerPool,
)

pytestmark = pytest.mark.faults

#: the cuda variant skips equality saturation, so workers start fast
JOB = CompileJob.make("conv1d", "cuda", taps=8, rows=1)


@pytest.fixture(scope="module")
def reference():
    """The job's request dict and its unfaulted single-process output."""
    app = JOB.build_app()
    app.backend = "compile"
    request = {param.name: array for param, array in app.inputs.items()}
    expected = app.compile().run(request)
    return request, expected


class TestServing:
    def test_bit_identical_across_workers(self, reference):
        request, expected = reference
        with WorkerPool(JOB, workers=2) as pool:
            outputs = pool.run_many([request] * 6)
            assert all(np.array_equal(o, expected) for o in outputs)
            stats = pool.stats()
            assert stats["completed"] == 6
            assert stats["crashes"] == 0 and stats["restarts"] == 0

    def test_warm_start_from_artifact_store(self, tmp_path, reference):
        # tensor-variant job: workers re-hydrate saturation + kernel
        # artifacts from the shared store instead of recompiling
        job = CompileJob.make("conv1d", taps=8, rows=1)
        result = compile_one(job, str(tmp_path), "host")
        assert result.ok, result.error
        app = job.build_app()
        app.backend = "compile"
        request = {p.name: a for p, a in app.inputs.items()}
        expected = app.compile(cache_dir=str(tmp_path)).run(request)
        with WorkerPool(job, workers=1, cache_dir=str(tmp_path)) as pool:
            assert np.array_equal(pool.run(request), expected)


class TestCrashRecovery:
    def test_killed_worker_restarts_and_output_is_identical(
        self, reference
    ):
        """The acceptance scenario: kill a worker mid-batch, assert the
        served results are bit-identical to the unfaulted run and the
        recovery shows up in stats()."""
        request, expected = reference
        plan = FaultPlan(
            seed=3,
            specs=[
                FaultSpec(
                    "kill-worker",
                    visits=(0,),
                    scope={"incarnation": 0},
                )
            ],
        )
        with WorkerPool(
            JOB, workers=2, fault_plan=plan, retries=3
        ) as pool:
            outputs = pool.run_many([request] * 4)
            assert all(np.array_equal(o, expected) for o in outputs)
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["restarts"] >= 1
            assert stats["retries"] >= 1
            assert stats["failed"] == 0
            # the replacement workers carry bumped incarnations
            assert any(
                worker["incarnation"] > 0 for worker in stats["workers"]
            )

    def test_hung_worker_killed_at_deadline(self, reference):
        """A hang longer than the budget: the worker is killed, the
        hung request's budget is spent so it expires terminally
        (retrying could never meet the latency contract), and a fresh
        request served by the respawned worker is bit-identical."""
        request, expected = reference
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "hang-kernel",
                    visits=(0,),
                    seconds=30.0,
                    scope={"incarnation": 0},
                )
            ]
        )
        with WorkerPool(
            JOB, workers=1, fault_plan=plan, retries=2, deadline=0.8
        ) as pool:
            hung = pool.submit(request)
            with pytest.raises(DeadlineExceeded):
                hung.result(timeout=60)
            after = pool.submit(request, deadline=60.0)
            assert np.array_equal(after.result(timeout=60), expected)
            stats = pool.stats()
            assert stats["deadline_kills"] >= 1
            assert stats["restarts"] >= 1
            assert stats["expired"] == 1
            assert stats["failed"] == 0  # expiry is its own terminal kind

    def test_remote_error_is_retried_in_place(self, reference):
        request, expected = reference
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "raise-in-kernel",
                    visits=(0, 1),
                    scope={"incarnation": 0},
                )
            ]
        )
        with WorkerPool(
            JOB, workers=1, fault_plan=plan, retries=3
        ) as pool:
            outputs = pool.run_many([request] * 3)
            assert all(np.array_equal(o, expected) for o in outputs)
            stats = pool.stats()
            # the worker survived: retries happened, no restarts
            assert stats["retries"] >= 1
            assert stats["crashes"] == 0 and stats["restarts"] == 0

    def test_retry_budget_exhausts_into_typed_error(self, reference):
        request, _ = reference
        # every incarnation fails every kernel call: unrecoverable
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", rate=1.0)]
        )
        with WorkerPool(
            JOB, workers=1, fault_plan=plan, retries=1
        ) as pool:
            with pytest.raises(RemoteError) as excinfo:
                pool.run(request)
            assert excinfo.value.kind == "InjectedKernelError"
            assert "InjectedKernelError" in excinfo.value.remote_traceback
            stats = pool.stats()
            assert stats["failed"] == 1
            assert stats["retries"] == 1  # budget spent, then surfaced

    def test_at_most_once_is_never_redispatched(self, reference):
        request, _ = reference
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "kill-worker",
                    visits=(0,),
                    scope={"incarnation": 0},
                )
            ]
        )
        with WorkerPool(
            JOB, workers=1, fault_plan=plan, retries=3
        ) as pool:
            future = pool.submit(request, idempotent=False)
            with pytest.raises(WorkerCrashed) as excinfo:
                future.result(timeout=60)
            assert excinfo.value.exit_code == KILL_EXIT_CODE
            stats = pool.stats()
            assert stats["retries"] == 0  # at-most-once held
            assert stats["failed"] == 1


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self, reference):
        request, expected = reference
        pool = WorkerPool(JOB, workers=1)
        assert np.array_equal(pool.run(request), expected)
        pool.close()
        pool.close()
        with pytest.raises(ServerClosed, match="closed"):
            pool.submit(request)
        assert pool.stats()["closed"] is True

    def test_close_drains_in_flight_requests(self, reference):
        request, expected = reference
        pool = WorkerPool(JOB, workers=2)
        futures = [pool.submit(request) for _ in range(6)]
        pool.close()
        # nothing silently dropped: every accepted request completed
        assert all(
            np.array_equal(f.result(timeout=1), expected)
            for f in futures
        )

    def test_admission_rejects_when_full(self, reference):
        request, expected = reference
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "hang-kernel",
                    visits=(0,),
                    seconds=0.5,
                    scope={"incarnation": 0},
                )
            ]
        )
        with WorkerPool(
            JOB, workers=1, fault_plan=plan, max_pending=1
        ) as pool:
            first = pool.submit(request)  # hangs ~0.5s in the worker
            rejected = False
            for _ in range(200):
                if first.done():
                    break
                try:
                    pool.submit(request)
                except RejectedError:
                    rejected = True
                    break
            assert np.array_equal(first.result(timeout=60), expected)
            assert rejected
            assert pool.stats()["rejected"] >= 1

    def test_failed_init_eventually_fails_requests(self):
        bad_job = CompileJob.make("conv1d", "no-such-variant", taps=8, rows=1)
        with WorkerPool(bad_job, workers=1, max_restarts=4) as pool:
            future = pool.submit({})
            with pytest.raises((WorkerCrashed, Exception)):
                future.result(timeout=120)
            stats = pool.stats()
            assert stats["failed"] == 1
            assert stats["workers"] == []  # struck out, not respawned


class TestLifecycleHardening:
    def test_drain_completes_everything_then_rejects(self, reference):
        """drain(): in-flight and queued work completes, futures all
        reach terminal states, and admission is closed afterwards."""
        request, expected = reference
        pool = WorkerPool(JOB, workers=2)
        try:
            futures = [pool.submit(request) for _ in range(6)]
            assert pool.drain(timeout=120) is True
            assert all(future.done() for future in futures)
            assert all(
                np.array_equal(future.result(timeout=1), expected)
                for future in futures
            )
            with pytest.raises(ServerClosed):
                pool.submit(request)
        finally:
            pool.close()

    def test_drain_respawns_crashed_worker_to_finish_queue(
        self, reference
    ):
        """Regression: a worker crashing *during* a graceful drain is
        respawned while queued work remains — the queue must not be
        mass-failed with ``no live workers remain`` when the restart
        budget is still available."""
        request, expected = reference
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "kill-worker", visits=(0,), scope={"incarnation": 0}
                )
            ]
        )
        pool = WorkerPool(JOB, workers=1, fault_plan=plan, retries=3)
        try:
            futures = [pool.submit(request) for _ in range(4)]
            assert pool.drain(timeout=120) is True
            assert all(
                np.array_equal(future.result(timeout=1), expected)
                for future in futures
            )
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["restarts"] >= 1
            assert stats["failed"] == 0
        finally:
            pool.close()

    def test_close_timeout_force_fails_stuck_requests(self, reference):
        """close(timeout=) on a wedged pool: the stuck future still
        reaches a terminal state — a typed ServerClosed — instead of
        blocking its caller forever."""
        request, _ = reference
        plan = FaultPlan(
            specs=[FaultSpec("hang-kernel", visits=(0,), seconds=30.0)]
        )
        pool = WorkerPool(
            JOB, workers=1, fault_plan=plan, hang_grace=60.0
        )
        future = pool.submit(request)
        pool.close(timeout=0.3)
        with pytest.raises(ServerClosed):
            future.result(timeout=1)
        assert pool.stats()["closed"] is True

    def test_no_live_workers_fails_queued_work_fast(self, reference):
        """With the restart budget spent and every worker dead, queued
        requests fail promptly with WorkerCrashed instead of waiting
        on a worker that will never come back."""
        request, _ = reference
        plan = FaultPlan(specs=[FaultSpec("kill-worker", rate=1.0)])
        with WorkerPool(
            JOB, workers=1, fault_plan=plan, retries=0, max_restarts=0
        ) as pool:
            future = pool.submit(request)
            with pytest.raises(WorkerCrashed):
                future.result(timeout=60)

    def test_rolling_restart_drops_nothing(self, reference):
        """rolling_restart() under a concurrent request stream: every
        request completes bit-identically, every worker comes back
        with a bumped incarnation, and the replacement is not counted
        against the crash-restart budget."""
        import threading

        request, expected = reference
        pool = WorkerPool(JOB, workers=2)
        results = []
        failures = []

        def client():
            try:
                for _ in range(12):
                    results.append(pool.run(request))
            except Exception as exc:  # pragma: no cover - fail below
                failures.append(exc)

        try:
            pool.run(request)  # workers warm before the stream starts
            thread = threading.Thread(target=client)
            thread.start()
            replaced = pool.rolling_restart(timeout=120)
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert not failures, failures
            assert replaced == 2
            assert all(
                np.array_equal(result, expected) for result in results
            )
            stats = pool.stats()
            assert stats["rolling_restarts"] == 1
            assert stats["restarts"] == 0  # planned, not crash recovery
            assert stats["failed"] == 0
            assert all(
                worker["incarnation"] >= 1 for worker in stats["workers"]
            )
            assert all(worker["ready"] for worker in stats["workers"])
        finally:
            pool.close()


#: one job per accelerator, as the serving benchmark's catalog has them;
#: the AMX job takes bf16 inputs, so its name-keyed requests only bind
#: right through the declared dtypes
PLAN_JOBS = {
    "wmma": CompileJob.make("conv1d", "tensor", taps=8, rows=1),
    "amx": CompileJob.make("matmul", None, builder="build_amx"),
    "dp4a": CompileJob.make("matmul", None, builder="build_int8", tiles=2),
}


@pytest.fixture(scope="module")
def plan_store(tmp_path_factory):
    """An artifact store holding every PLAN_JOBS pipeline, so the
    workers below warm-start instead of saturating."""
    store = str(tmp_path_factory.mktemp("plan-store"))
    for job in PLAN_JOBS.values():
        result = compile_one(job, store, "host")
        assert result.ok, result.error
    return store


def _local(job, store, count, rng):
    """``(pipeline, requests)``: the job compiled in this process and
    ``count`` name-keyed requests with fresh data for the first input."""
    app = job.build_app()
    app.backend = "compile"
    return app.compile(cache_dir=store), build_requests(app, count, rng)


class TestWorkerPlan:
    """A worker serves on one execution plan for its whole life."""

    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    @pytest.mark.parametrize("kind", sorted(PLAN_JOBS))
    def test_singletons_stay_on_one_warm_plan(
        self, kind, transport, plan_store, rng
    ):
        if transport == "shm" and not shm_available():
            pytest.skip("host cannot back shared memory")
        job = PLAN_JOBS[kind]
        pipeline, requests = _local(job, plan_store, 20, rng)
        local_plan = pipeline.plan()
        for request in requests:
            local_plan.run(request)
        with WorkerPool(
            job, workers=1, cache_dir=plan_store, transport=transport
        ) as pool:
            for request in requests:
                assert np.array_equal(
                    pool.run(request), pipeline.run(request)
                )
            (worker,) = pool.stats()["workers"]
        # bound once, then steady state: the worker's counters are the
        # ones an in-process plan shows for the same twenty requests
        assert worker["plan"]["rebinds"] == 1
        assert worker["plan"] == local_plan.stats()
        # the weight-derived shuffle operands were built once
        assert worker["plan"]["memo_hits"] > 0

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("raise-in-kernel", visits=(1,)),
            FaultSpec("alloc-fail", visits=(0,)),
        ],
        ids=["kernel.compile", "arena.alloc"],
    )
    def test_fault_fails_one_request_and_the_plan_rebinds(
        self, spec, plan_store, rng
    ):
        job = PLAN_JOBS["wmma"]
        pipeline, requests = _local(job, plan_store, 4, rng)
        outcomes = []
        with WorkerPool(
            job,
            workers=1,
            cache_dir=plan_store,
            fault_plan=FaultPlan(specs=[spec]),
            retries=0,
        ) as pool:
            for request in requests:
                try:
                    outcomes.append(pool.run(request))
                except RemoteError as exc:
                    outcomes.append(exc)
            stats = pool.stats()
        (failed,) = [
            index
            for index, outcome in enumerate(outcomes)
            if isinstance(outcome, RemoteError)
        ]
        assert failed == spec.visits[0]
        assert outcomes[failed].kind.startswith("Injected")
        for index, request in enumerate(requests):
            if index != failed:
                assert np.array_equal(outcomes[index], pipeline.run(request))
        # the same process served all four; its plan rebound from
        # scratch after the failed run
        assert stats["crashes"] == 0 and stats["restarts"] == 0
        (worker,) = stats["workers"]
        assert worker["incarnation"] == 0
        assert worker["plan"]["runs"] == 3
        assert worker["plan"]["rebinds"] == 2

    def test_singletons_and_batches_share_one_arena(self, tmp_path, rng):
        """Singletons, then 8-request batches, on one worker: one plan,
        one arena, so conv1d's weight-derived Toeplitz operands are
        built once for both paths — the counters one in-process plan
        shows for the same traffic through ``_serve_batch``'s calls
        (one stack of its four operands, not one per path in a second
        arena)."""
        job = CompileJob.make("conv1d", "tensor", taps=32, rows=1)
        store = str(tmp_path)
        assert compile_one(job, store, "host").ok
        pipeline, requests = _local(job, store, 20, rng)
        singles, batches = requests[:4], [requests[4:12], requests[12:]]
        local_plan = pipeline.plan()
        for request in singles:
            pipeline.run_many(
                [request], batch_axis=False, on_error="return",
                plan=local_plan,
            )
        for batch in batches:
            pipeline.run_many(batch, on_error="return", plan=local_plan)
        with WorkerPool(job, workers=1, cache_dir=store) as pool:
            outputs = [pool.run(request) for request in singles]
            for batch in batches:
                outputs += [f.result() for f in pool.submit_many(batch)]
            (worker,) = pool.stats()["workers"]
        for output, request in zip(outputs, requests):
            assert np.array_equal(output, pipeline.run(request))
        plan = worker["plan"]
        assert plan == local_plan.stats()
        assert (plan["memo_entries"], plan["memo_misses"]) == (1, 1)
        assert plan["batched_requests"] == 16
        # one bind per slot: switching between them never rebinds
        assert plan["rebinds"] == 2

    def test_shape_change_mid_stream_rebinds(self, plan_store, rng):
        job = PLAN_JOBS["wmma"]
        pipeline, requests = _local(job, plan_store, 4, rng)
        for request in requests[2:]:
            # one more image row than the pipeline reads
            request["I"] = np.concatenate(
                [request["I"], np.ones_like(request["I"])]
            )
        with WorkerPool(job, workers=1, cache_dir=plan_store) as pool:
            for request in requests:
                assert np.array_equal(
                    pool.run(request), pipeline.run(request)
                )
            (worker,) = pool.stats()["workers"]
        assert worker["plan"]["runs"] == 4
        assert worker["plan"]["rebinds"] == 2
