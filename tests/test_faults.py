"""The deterministic fault-injection harness and in-process recovery:
FaultPlan semantics, store hardening (checksums, quarantine, IO retry),
per-request isolation in run_many, and the Server's retry / circuit-
breaker / admission machinery."""

import pickle
import threading
import time

import numpy as np
import pytest
from conftest import build_requests, build_vector_pipeline, make_vector_input

from repro.lowering import lower
from repro.runtime.executor import RequestError, compile_pipeline
from repro.service import faults
from repro.service.faults import (
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    InjectedKernelError,
)
from repro.service.fingerprint import ArtifactKey
from repro.service.serve import RejectedError, Server
from repro.service.store import ArtifactStore, CompileArtifact

pytestmark = pytest.mark.faults


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process without an installed fault plan."""
    yield
    faults.uninstall()


def vector_setup(count=6):
    """A cheap compiled pipeline, requests, and unfaulted outputs."""
    inp, func = build_vector_pipeline()
    pipe = compile_pipeline(func, backend="compile")
    requests = [{inp.name: make_vector_input(seed=i)} for i in range(count)]
    expected = [pipe.run(request) for request in requests]
    return pipe, requests, expected


def conv1d_setup(count=8):
    """conv1d (32 taps) on the compiled backend: ``count`` requests
    sharing its weights, their outputs, and both kernels already warm."""
    from repro.apps import conv1d

    app = conv1d.build("tensor", taps=32, rows=1)
    app.backend = "compile"
    pipe = app.compile()
    requests = build_requests(app, count, np.random.default_rng(7))
    expected = pipe.run_many(requests, batch_axis=False, workers=1)
    pipe.run_many(requests, batch_axis=True)
    return pipe, requests, expected


def hang_first_kernel():
    """A plan whose first kernel call hangs for half a second."""
    return FaultPlan(
        specs=[FaultSpec("hang-kernel", seconds=0.5, visits=(0,))]
    )


def await_fire(plan, timeout=5.0):
    """Block until ``plan`` has fired once (its hang has begun)."""
    deadline = time.monotonic() + timeout
    while not plan.fired() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert plan.fired()


class TestFaultPlan:
    def test_rate_pattern_is_deterministic(self):
        def pattern(plan):
            fired = []
            for visit in range(64):
                try:
                    plan.fire("kernel.compile")
                except InjectedKernelError:
                    fired.append(visit)
            return fired

        spec = FaultSpec("raise-in-kernel", rate=0.25)
        first = pattern(FaultPlan(seed=11, specs=[spec]))
        second = pattern(FaultPlan(seed=11, specs=[spec]))
        assert first == second
        assert 0 < len(first) < 64  # it is a rate, not all-or-nothing
        assert pattern(FaultPlan(seed=12, specs=[spec])) != first

    def test_visit_pinning_and_max_fires(self):
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "raise-in-kernel", visits=(1, 3, 5), max_fires=2
                )
            ]
        )
        fired = []
        for visit in range(8):
            try:
                plan.fire("kernel.compile")
            except InjectedKernelError:
                fired.append(visit)
        assert fired == [1, 3]  # max_fires capped the third hit
        assert plan.fired("raise-in-kernel") == 2

    def test_scope_gates_firing(self):
        spec = FaultSpec(
            "raise-in-kernel", visits=(0,), scope={"incarnation": 0}
        )
        plan = FaultPlan(specs=[spec])
        # a restarted worker's scope does not match: no fire, and the
        # visit is not even counted against the spec
        plan.fire("kernel.compile", scope={"incarnation": 1})
        with pytest.raises(InjectedKernelError):
            plan.fire("kernel.compile", scope={"incarnation": 0})

    def test_pickle_resets_counters(self):
        plan = FaultPlan(seed=3, specs=[FaultSpec("raise-in-kernel")])
        with pytest.raises(InjectedKernelError):
            plan.fire("kernel.compile")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == plan.seed and clone.specs == plan.specs
        assert clone.stats()["visits"] == [0]  # fresh per process
        assert plan.stats()["visits"] == [1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec("set-fire-to-the-rain")

    def test_uninstalled_fire_is_inert(self):
        from repro.runtime.faultpoints import fire

        fire("kernel.compile")  # no plan installed: must be a no-op


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        breaker.record_success()  # streak broken
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert not breaker.allow()

    def test_reset_closes_but_keeps_trip_count(self):
        breaker = CircuitBreaker(threshold=1)
        assert breaker.record_failure() is True
        breaker.reset()
        assert breaker.allow()
        stats = breaker.stats()
        assert stats["trips"] == 1 and stats["total_failures"] == 1


class TestStoreFaults:
    def _seeded_store(self, tmp_path):
        _, func = build_vector_pipeline()
        key = ArtifactKey(
            stmt="s", rules="r", backend="compile", device="host"
        )
        artifact = CompileArtifact(
            key_digest=key.digest, key=key, stmt=lower(func).stmt
        )
        store = ArtifactStore(tmp_path, io_retry_delay=0.001)
        store.put(key, artifact)
        return store, key, artifact

    def test_corrupt_artifact_quarantined_not_served(self, tmp_path):
        store, key, artifact = self._seeded_store(tmp_path)
        plan = FaultPlan(
            specs=[FaultSpec("corrupt-artifact", visits=(0,))]
        )
        with faults.active(plan):
            assert store.get(key) is None  # never serves corrupt bytes
        assert plan.fired("corrupt-artifact") == 1
        assert store.stats.stale == 1
        assert store.stats.quarantined == 1
        assert len(store.quarantined_files()) == 1
        # recompile analog: re-persist, then the hit path works again
        store.put(key, artifact)
        assert store.get(key) is not None
        assert store.stats.hits == 1

    def test_transient_io_error_absorbed_by_retry(self, tmp_path):
        store, key, _ = self._seeded_store(tmp_path)
        plan = FaultPlan(specs=[FaultSpec("io-error", visits=(0,))])
        with faults.active(plan):
            assert store.get(key) is not None  # retried, then served
        assert store.stats.io_retries == 1
        assert store.stats.hits == 1 and store.stats.quarantined == 0

    def test_exhausted_io_retries_miss_without_quarantine(self, tmp_path):
        store, key, _ = self._seeded_store(tmp_path)
        plan = FaultPlan(specs=[FaultSpec("io-error", rate=1.0)])
        with faults.active(plan):
            assert store.get(key) is None
        # the file itself may be fine — a flaky mount is not corruption
        assert store.stats.quarantined == 0
        assert store.stats.misses == 1
        assert store.get(key) is not None  # healthy again, still there

    def test_slow_io_is_slow_but_correct(self, tmp_path):
        store, key, _ = self._seeded_store(tmp_path)
        plan = FaultPlan(
            specs=[FaultSpec("slow-io", seconds=0.01, rate=1.0)]
        )
        with faults.active(plan):
            assert store.get(key) is not None


class TestRunManyIsolation:
    def test_looped_path_isolates_failing_request(self):
        pipe, requests, expected = vector_setup(count=5)
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", visits=(2,))]
        )
        with faults.active(plan):
            results = pipe.run_many(
                requests, workers=1, batch_axis=False, on_error="return"
            )
        assert isinstance(results[2], RequestError)
        assert results[2].index == 2
        assert isinstance(results[2].original, InjectedKernelError)
        assert results[2].original.__traceback__ is not None
        for i in (0, 1, 3, 4):
            assert np.array_equal(results[i], expected[i])

    def test_on_error_raise_propagates_original(self):
        pipe, requests, _ = vector_setup(count=3)
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", visits=(0,))]
        )
        with faults.active(plan):
            with pytest.raises(InjectedKernelError):
                pipe.run_many(requests, workers=1, batch_axis=False)

    def test_batch_axis_failure_falls_back_to_looped(self):
        pipe, requests, expected = vector_setup(count=4)
        # visit 0 is the single batch-axis kernel call; the looped
        # retry (visits 1..4) runs clean
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", visits=(0,))]
        )
        with faults.active(plan):
            results = pipe.run_many(
                requests, workers=1, on_error="return"
            )
        assert not any(isinstance(r, RequestError) for r in results)
        assert all(
            np.array_equal(r, e) for r, e in zip(results, expected)
        )

    def test_explicit_batch_axis_failure_propagates(self):
        pipe, requests, _ = vector_setup(count=4)
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", visits=(0,))]
        )
        with faults.active(plan):
            with pytest.raises(InjectedKernelError):
                pipe.run_many(requests, batch_axis=True)

    def test_caller_held_plan_survives_a_failed_request(self):
        """``plan=``: the looped path runs on the caller's plan across
        calls; a failed request resets it in place (rebind, empty
        arena) and its neighbours and the next call stay right."""
        pipe, requests, expected = vector_setup(count=5)
        held = pipe.plan()
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", visits=(2,))]
        )
        with faults.active(plan):
            results = pipe.run_many(
                requests, batch_axis=False, on_error="return", plan=held
            )
        assert isinstance(results[2], RequestError)
        for i in (0, 1, 3, 4):
            assert np.array_equal(results[i], expected[i])
        again = pipe.run_many(requests, batch_axis=False, plan=held)
        assert all(np.array_equal(r, e) for r, e in zip(again, expected))
        assert held.stats()["runs"] == 9
        assert held.stats()["rebinds"] == 2
        with pytest.raises(ValueError, match="plan="):
            pipe.run_many(requests, plan=vector_setup(count=1)[0].plan())

    def test_bad_on_error_rejected(self):
        pipe, requests, _ = vector_setup(count=2)
        with pytest.raises(ValueError, match="on_error"):
            pipe.run_many(requests, on_error="ignore")


class TestServerRecovery:
    def test_retry_recovers_transient_kernel_fault(self):
        pipe, requests, expected = vector_setup(count=1)
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", visits=(0,))]
        )
        with Server(pipe, workers=1, retries=1) as server:
            with faults.active(plan):
                out = server.run(requests[0])
            assert np.array_equal(out, expected[0])
            stats = server.stats()
            assert stats["retries"] == 1
            assert stats["failures"] == 1
            assert stats["requests"] == 1

    def test_alloc_failure_is_retried(self):
        # a two-stage pipeline: the compute_root producer is an
        # Allocate in the kernel, so the plan's arena actually
        # allocates (the single-stage vector pipeline never does)
        from repro import frontend as hl

        inp = hl.ImageParam(hl.Float(32), 1, name="af_in")
        x = hl.Var("x")
        g = hl.Func("af_mid")
        g[x] = inp[x] * 2.0
        f = hl.Func("af_out")
        f[x] = g[x] + 1.0
        f.bound(x, 0, 64)
        g.compute_root()
        pipe = compile_pipeline(f, backend="compile")
        requests = [{"af_in": make_vector_input(seed=0)}]
        expected = [pipe.run(requests[0])]
        plan = FaultPlan(specs=[FaultSpec("alloc-fail", visits=(0,))])
        with Server(pipe, workers=1, retries=1) as server:
            with faults.active(plan):
                out = server.run(requests[0])
            assert np.array_equal(out, expected[0])
            assert server.stats()["retries"] == 1

    def test_breaker_degrades_to_interpreter_bit_identical(self):
        pipe, requests, expected = vector_setup(count=8)
        inp2, func2 = build_vector_pipeline()
        served = compile_pipeline(func2, backend="compile")
        # every compiled-kernel call fails; the interpreter site is
        # untouched, so degradation ends the outage entirely
        plan = FaultPlan(
            specs=[FaultSpec("raise-in-kernel", rate=1.0)]
        )
        with Server(
            served, workers=2, retries=1, breaker_threshold=2
        ) as server:
            with faults.active(plan):
                results = server.run_many(requests, on_error="return")
                stats = server.stats()
                assert stats["degraded"] is True
                assert stats["effective_backend"] == "interpret"
                assert stats["breakers"]["backend"]["trips"] == 1
                for result, reference in zip(results, expected):
                    if not isinstance(result, RequestError):
                        assert np.array_equal(result, reference)
                # steady degraded state: everything serves, bit-identical
                again = server.run_many(requests)
                assert all(
                    np.array_equal(r, e)
                    for r, e in zip(again, expected)
                )

    def test_reset_breakers_restores_compiled_path(self):
        pipe, requests, expected = vector_setup(count=4)
        plan = FaultPlan(specs=[FaultSpec("raise-in-kernel", rate=1.0)])
        with Server(
            pipe, workers=1, retries=0, breaker_threshold=1
        ) as server:
            with faults.active(plan):
                server.run_many(
                    requests, batch_axis=False, on_error="return"
                )
            assert server.stats()["degraded"] is True
            server.reset_breakers()
            stats = server.stats()
            assert stats["degraded"] is False
            assert stats["effective_backend"] == "compile"
            assert stats["breakers"]["backend"]["trips"] == 1
            results = server.run_many(requests)
            assert all(
                np.array_equal(r, e) for r, e in zip(results, expected)
            )

    def test_failing_batch_kernel_answers_on_the_worker_plan(
        self, monkeypatch
    ):
        """A batch-axis kernel that fails on every call costs the server
        speed, not answers: each chunk's ``run_many`` re-runs it request
        by request on the same worker plan, so no breaker is needed;
        an explicit ``batch_axis=True`` call still raises."""
        pipe, requests, expected = vector_setup(count=4)
        resolve = pipe.kernel

        def failing(*args, **kwargs):
            raise InjectedKernelError("batch-axis kernel down")

        monkeypatch.setattr(
            pipe,
            "kernel",
            lambda stacked=frozenset(): failing if stacked else resolve(),
        )
        with Server(pipe, workers=1) as server:
            for _ in range(3):
                results = server.run_many(requests)
                assert all(
                    np.array_equal(r, e) for r, e in zip(results, expected)
                )
            with pytest.raises(InjectedKernelError):
                server.run_many(requests, batch_axis=True)
            stats = server.stats()
        assert set(stats["breakers"]) == {"backend"}
        assert stats["failures"] == 0 and stats["degraded"] is False
        assert stats["batched_batches"] == 0
        [plan] = stats["plans"]
        assert (plan["runs"], plan["batched_requests"]) == (12, 0)

    def test_admission_rejects_when_full(self):
        pipe, requests, expected = vector_setup(count=2)
        plan = FaultPlan(
            specs=[
                FaultSpec("hang-kernel", seconds=0.3, visits=(0,))
            ]
        )
        with Server(pipe, workers=1, max_pending=1) as server:
            with faults.active(plan):
                first = server.submit(requests[0])  # hangs ~0.3s
                rejected = False
                for _ in range(200):
                    if first.done():
                        break
                    try:
                        server.submit(requests[1], block=False)
                    except RejectedError:
                        rejected = True
                        break
                assert np.array_equal(first.result(), expected[0])
            assert rejected
            assert server.stats()["rejected"] >= 1
            # slot freed: admission is open again
            assert np.array_equal(
                server.run(requests[1]), expected[1]
            )

    def test_run_many_waits_for_admission_room(self):
        """Admission covers every request: with ``max_pending=1`` held
        by a hung request, ``run_many`` waits for the slot instead of
        putting its batch in flight beside it."""
        pipe, requests, expected = conv1d_setup()
        fault = hang_first_kernel()
        with Server(pipe, workers=1, max_pending=1) as server:
            with faults.active(fault):
                first = server.submit(requests[0], block=False)
                await_fire(fault)
                outputs = server.run_many(requests)
                assert first.done()
            assert np.array_equal(first.result(), expected[0])
        for out, reference in zip(outputs, expected):
            assert np.array_equal(out, reference)

    def test_drain_waits_for_a_running_run_many(self):
        """Drain covers every request: a ``run_many`` running on
        another thread is settled, every output in hand, before
        ``drain`` returns."""
        pipe, requests, expected = conv1d_setup()
        fault = hang_first_kernel()
        server = Server(pipe, workers=1)
        box = []
        caller = threading.Thread(
            target=lambda: box.append(server.run_many(requests))
        )
        with faults.active(fault):
            caller.start()
            await_fire(fault)
            assert server.drain(timeout=5) is True
            assert server.stats()["requests"] == len(requests)
        caller.join(timeout=5)
        [outputs] = box
        for out, reference in zip(outputs, expected):
            assert np.array_equal(out, reference)

    def test_store_counters_surface_in_stats(self, tmp_path):
        pipe, requests, _ = vector_setup(count=1)
        pipe.artifact_store = ArtifactStore(tmp_path)
        with Server(pipe, workers=1) as server:
            stats = server.stats()
        assert stats["store"]["quarantined"] == 0
        assert "io_retries" in stats["store"]
