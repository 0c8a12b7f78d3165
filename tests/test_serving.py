"""The batched serving runtime: zero-copy ingest, execution plans,
buffer arenas, concurrent kernel-cache access, run_many, and Server."""

import threading

import numpy as np
import pytest
from conftest import (
    build_vector_pipeline as build_pipeline,
    make_vector_input as make_input,
)

from repro.apps import conv1d, upsample
from repro.lowering import lower
from repro.runtime import kernel_cache as kc
from repro.runtime.buffer import Buffer
from repro.runtime.executor import CompiledPipeline, compile_pipeline, realize
from repro.runtime.kernel_cache import KernelCache
from repro.runtime.plan import BufferArena
from repro.service import Server
from repro.ir.types import BFloat, Float


class TestBufferIngest:
    def test_contiguous_correctly_typed_input_is_not_copied(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = Buffer.from_numpy("A", arr)
        assert np.shares_memory(buf.data, arr)

    def test_1d_contiguous_view(self):
        arr = np.arange(8, dtype=np.int32)
        buf = Buffer.from_numpy("A", arr)
        assert np.shares_memory(buf.data, arr)

    def test_non_contiguous_input_is_copied(self):
        arr = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]
        buf = Buffer.from_numpy("A", arr)
        assert not np.shares_memory(buf.data, arr)
        np.testing.assert_array_equal(buf.to_numpy(), arr)

    def test_dtype_conversion_copies(self):
        arr = np.arange(8, dtype=np.float64)
        buf = Buffer.from_numpy("A", arr, dtype=Float(32))
        assert not np.shares_memory(buf.data, arr)
        assert buf.data.dtype == np.float32

    def test_bfloat16_input_still_rounds_into_a_copy(self):
        arr = np.array([1.0, 1.0 + 2**-12], dtype=np.float32)
        buf = Buffer.from_numpy("A", arr, dtype=BFloat(16))
        assert not np.shares_memory(buf.data, arr)
        # the second value is not bf16-representable: it was rounded
        assert buf.data[1] != arr[1]
        # and the caller's array was left untouched
        assert arr[1] == np.float32(1.0 + 2**-12)

    def test_strides_are_memoized(self):
        buf = Buffer("A", Float(32), (4, 5, 6))
        assert buf.strides == (1, 4, 20)
        assert buf.strides is buf.strides


class TestSteadyStateRun:
    """The acceptance contract on plain ``CompiledPipeline.run``."""

    def test_run_does_not_fingerprint_after_the_first_call(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), "compile", kernel_cache=KernelCache())
        inputs = {inp: make_input()}
        first = pipe.run(inputs)

        def boom(*a, **k):  # pragma: no cover - called means failure
            raise AssertionError("run() fingerprinted the statement")

        original = kc.fingerprint_stmt
        kc.fingerprint_stmt = boom
        try:
            np.testing.assert_array_equal(pipe.run(inputs), first)
        finally:
            kc.fingerprint_stmt = original

    def test_run_does_not_copy_contiguous_inputs(self, monkeypatch):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        wrapped = []
        original = Buffer.from_numpy

        def spy(name, array, **kwargs):
            buf = original(name, array, **kwargs)
            wrapped.append((buf, array))
            return buf

        monkeypatch.setattr(Buffer, "from_numpy", staticmethod(spy))
        pipe.run({inp: make_input()})
        assert wrapped
        for buf, array in wrapped:
            assert np.shares_memory(buf.data, array)


class TestExecutionPlan:
    def test_plan_matches_run_on_both_backends(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        for backend in ("compile", "interpret"):
            plan = pipe.plan(backend=backend)
            for seed in (1, 2, 3):
                inputs = {inp: make_input(seed=seed)}
                np.testing.assert_array_equal(
                    plan.run(inputs), pipe.run(inputs, backend=backend)
                )

    def test_steady_state_does_not_fingerprint_or_hit_the_cache(self):
        inp, f = build_pipeline()
        cache = KernelCache()
        pipe = CompiledPipeline(lower(f), "compile", kernel_cache=cache)
        plan = pipe.plan()
        inputs = {inp: make_input()}
        plan.run(inputs)
        lookups_after_bind = cache.hits + cache.misses
        # sabotage fingerprinting and the cache: the steady state
        # must consult neither
        def boom(*a, **k):  # pragma: no cover - called means failure
            raise AssertionError("steady-state run() touched this")

        original = kc.fingerprint_stmt
        kc.fingerprint_stmt = boom
        cache.get = boom
        cache.lookup = boom
        try:
            out = plan.run({inp: make_input(seed=9)})
        finally:
            kc.fingerprint_stmt = original
        assert out.shape == (64,)
        assert cache.hits + cache.misses == lookups_after_bind

    def test_steady_state_does_not_copy_contiguous_inputs(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        plan = pipe.plan()
        plan.run({inp: make_input()})
        arr = make_input(seed=5)
        plan.run({inp: arr})
        assert np.shares_memory(plan._buffers["sv_in"].data, arr)

    def test_steady_state_reuses_the_env_and_buffers(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        plan = pipe.plan()
        plan.run({inp: make_input()})
        env_id = id(plan._env)
        buffers_id = id(plan._buffers)
        plan.run({inp: make_input(seed=4)})
        plan.run({inp: make_input(seed=5)})
        assert id(plan._env) == env_id
        assert id(plan._buffers) == buffers_id
        assert plan.stats()["rebinds"] == 1
        assert plan.stats()["runs"] == 3

    def test_shape_change_rebinds(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        plan = pipe.plan()
        base = make_input()
        expected = plan.run({inp: base})
        # a longer input: only the bound 64 elements are read
        longer = np.concatenate([base, np.ones(16, np.float32)])
        np.testing.assert_array_equal(plan.run({inp: longer}), expected)
        assert plan.stats()["rebinds"] == 2
        # back to the original shape: rebinds again, still correct
        np.testing.assert_array_equal(plan.run({inp: base}), expected)

    def test_out_parameter_writes_caller_storage(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        plan = pipe.plan()
        inputs = {inp: make_input()}
        expected = plan.run(inputs)
        out = np.full(64, np.nan, dtype=np.float32)  # stale garbage
        result = plan.run(inputs, out=out)
        assert result is out
        np.testing.assert_array_equal(out, expected)

    def test_out_parameter_validates(self):
        inp, f = build_pipeline()
        plan = CompiledPipeline(lower(f), backend="compile").plan()
        inputs = {inp: make_input()}
        with pytest.raises(ValueError, match="shape"):
            plan.run(inputs, out=np.zeros(63, np.float32))
        with pytest.raises(ValueError, match="shape"):
            plan.run(inputs, out=np.zeros(64, np.float64))
        bad = np.zeros(64, np.float32)
        bad.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            plan.run(inputs, out=bad)

    def test_out_must_not_alias_an_input(self):
        # inputs are bound zero-copy: an aliasing out= would be zeroed
        # before the kernel reads it
        inp, f = build_pipeline()
        plan = CompiledPipeline(lower(f), backend="compile").plan()
        arr = make_input()
        with pytest.raises(ValueError, match="share memory"):
            plan.run({inp: arr}, out=arr)

    def test_interpreter_plan_out_path(self):
        inp, f = build_pipeline()
        plan = CompiledPipeline(lower(f)).plan(backend="interpret")
        inputs = {inp: make_input()}
        out = np.empty(64, np.float32)
        np.testing.assert_array_equal(
            plan.run(inputs, out=out), plan.run(inputs)
        )


class TestBufferArena:
    def test_allocations_are_pooled_across_runs(self):
        app = conv1d.build("tensor", taps=8, rows=1)
        app.backend = "compile"
        pipe = app.compile()
        plan = pipe.plan()
        plan.run(app.inputs)
        allocs_after_first = plan.arena.buffer_allocs
        plan.run(app.inputs)
        plan.run(app.inputs)
        assert plan.arena.buffer_allocs == allocs_after_first
        assert plan.arena.buffer_reuses > 0

    def test_arena_outputs_bit_identical_to_unpooled(self):
        # covers tile grids + Toeplitz memo (conv1d) and the multiphase
        # memo (upsample) against the arena-less run() path
        for app in (
            conv1d.build("tensor", taps=16, rows=1),
            upsample.build("tensor"),
        ):
            app.backend = "compile"
            pipe = app.compile()
            plan = pipe.plan()
            for _ in range(2):
                np.testing.assert_array_equal(
                    plan.run(app.inputs), pipe.run(app.inputs)
                )
            assert plan.arena.memo_hits > 0

    def test_memo_keys_on_values_not_identity(self):
        arena = BufferArena()
        built = []

        def build_a():
            built.append("a")
            return np.array([1.0])

        def build_b():
            built.append("b")
            return np.array([2.0])

        key_a = ("toeplitz", b"\x01", 4, 4, 1)
        key_b = ("toeplitz", b"\x02", 4, 4, 1)  # different weight bytes
        assert arena.memo(key_a, build_a)[0] == 1.0
        assert arena.memo(key_a, build_a)[0] == 1.0
        assert arena.memo(key_b, build_b)[0] == 2.0
        assert built == ["a", "b"]
        assert (arena.memo_hits, arena.memo_misses) == (1, 2)

    def test_memo_is_bounded(self):
        arena = BufferArena(memo_maxsize=4)
        for i in range(10):
            arena.memo(("k", i), lambda i=i: np.array([i]))
        assert arena.stats()["memo_entries"] == 4

    def test_take_zeroes_recycled_buffers(self):
        from repro.ir.stmt import MemoryType

        arena = BufferArena()
        buf = arena.take("t", Float(32), (8,), MemoryType.STACK)
        buf.data[:] = 7.0
        arena.give(buf)
        again = arena.take("t", Float(32), (8,), MemoryType.STACK)
        assert again is buf
        np.testing.assert_array_equal(again.data, np.zeros(8, np.float32))


class TestKernelCacheConcurrency:
    def test_concurrent_get_is_consistent(self):
        cache = KernelCache(maxsize=2)
        lowereds = [
            lower(build_pipeline(split=s)[1]) for s in (8, 16, 32)
        ]
        keys = [kc.fingerprint_stmt(lo.stmt) for lo in lowereds]
        errors = []
        barrier = threading.Barrier(8)

        def worker(i):
            try:
                barrier.wait()
                for j in range(30):
                    lo = lowereds[(i + j) % len(lowereds)]
                    kernel = cache.get(lo, key=keys[(i + j) % len(keys)])
                    assert kernel is not None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["entries"] <= 2
        # every one of the 240 gets was accounted exactly once
        assert stats["hits"] + stats["misses"] == 240

    def test_concurrent_put_and_clear(self):
        cache = KernelCache(maxsize=8)
        lowered = lower(build_pipeline()[1])
        errors = []

        def churn():
            try:
                for _ in range(50):
                    cache.get(lowered)
                    cache.clear()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestRunMany:
    def _requests(self, inp, n):
        return [{inp: make_input(seed=100 + i)} for i in range(n)]

    def test_parallel_matches_sequential_compile(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        requests = self._requests(inp, 9)
        sequential = [pipe.run(r) for r in requests]
        parallel = pipe.run_many(requests, workers=3, batch_axis=False)
        assert len(parallel) == 9
        for a, b in zip(sequential, parallel):
            np.testing.assert_array_equal(a, b)

    def test_parallel_matches_sequential_interpret(self):
        # the interpreter batch path, counters disabled
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f))
        requests = self._requests(inp, 4)
        sequential = [pipe.run(r, backend="interpret") for r in requests]
        parallel = pipe.run_many(requests, workers=2, backend="interpret")
        for a, b in zip(sequential, parallel):
            np.testing.assert_array_equal(a, b)

    def test_workers_one_runs_in_caller_thread(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        requests = self._requests(inp, 3)
        results = pipe.run_many(requests, workers=1, batch_axis=False)
        for r, request in zip(results, requests):
            np.testing.assert_array_equal(r, pipe.run(request))

    def test_empty_batch(self):
        _, f = build_pipeline()
        assert CompiledPipeline(lower(f)).run_many([]) == []

    def test_worker_errors_propagate(self):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        bad = {inp: make_input()[:32]}  # wrong shape: kernel reads OOB
        with pytest.raises(Exception):
            pipe.run_many([bad, bad], workers=2)

    def test_accelerator_app_run_many(self):
        app = conv1d.build("tensor", taps=8, rows=1)
        app.backend = "compile"
        outputs = app.run_many([None, None, None], workers=2)
        expected = app.run()
        for out in outputs:
            np.testing.assert_array_equal(out, expected)


class TestServer:
    def test_serves_batches_bit_identical(self):
        # batch_axis=False pins the worker-pool path; the batch-axis
        # serving path is covered by tests/test_batched.py
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        requests = [{inp: make_input(seed=i)} for i in range(8)]
        expected = [pipe.run(r) for r in requests]
        with Server(pipe, workers=3) as server:
            for _ in range(2):  # second batch reuses warm plans
                results = server.run_many(requests, batch_axis=False)
                for a, b in zip(expected, results):
                    np.testing.assert_array_equal(a, b)
            stats = server.stats()
        assert stats["requests"] == 16
        assert stats["batches"] == 2
        assert stats["batched_batches"] == 0
        assert 1 <= len(stats["plans"]) <= 3
        assert sum(p["runs"] for p in stats["plans"]) == 16

    def test_plan_survives_a_failed_request(self):
        """The worker thread keeps its plan across a failed run:
        ``ExecutionPlan.run`` resets its own bound state and arena, so
        the retry rebinds the *same* plan instead of building another."""
        from repro.service import FaultPlan, FaultSpec, faults

        app = conv1d.build("tensor", taps=8, rows=1)
        app.backend = "compile"
        expected = app.run()
        fault = FaultPlan(specs=[FaultSpec("raise-in-kernel", visits=(0,))])
        with Server(app, workers=1, retries=1) as server:
            with faults.active(fault):
                out = server.run(app.inputs)
            np.testing.assert_array_equal(out, expected)
            np.testing.assert_array_equal(server.run(app.inputs), expected)
            stats = server.stats()
        assert stats["failures"] == 1 and stats["retries"] == 1
        [plan] = stats["plans"]  # one plan object served all three runs
        assert plan["rebinds"] == 2
        assert plan["runs"] == 2

    def test_accepts_an_app_and_single_requests(self):
        app = conv1d.build("tensor", taps=8, rows=1)
        app.backend = "compile"
        expected = app.run()
        with Server(app, workers=2) as server:
            np.testing.assert_array_equal(server.run(app.inputs), expected)
            future = server.submit(app.inputs)
            np.testing.assert_array_equal(future.result(), expected)

    def test_close_is_idempotent_and_rejects_new_work(self):
        _, f = build_pipeline()
        server = Server(CompiledPipeline(lower(f), backend="compile"))
        server.close()
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit({})

    def test_submit_after_close_raises_typed_error(self):
        from repro.service import ServerClosed

        _, f = build_pipeline()
        server = Server(CompiledPipeline(lower(f), backend="compile"))
        server.close()
        with pytest.raises(ServerClosed):
            server.submit({})
        with pytest.raises(ServerClosed):
            server.run_many([{}])
        assert issubclass(ServerClosed, RuntimeError)  # old callers hold

    def test_drain_completes_in_flight_then_rejects(self):
        from repro.service import ServerClosed

        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        expected = pipe.run({inp: make_input(seed=1)})
        server = Server(pipe, workers=2)
        futures = [
            server.submit({inp: make_input(seed=1)}) for _ in range(4)
        ]
        assert server.drain(timeout=60) is True
        for future in futures:
            np.testing.assert_array_equal(future.result(timeout=1), expected)
        with pytest.raises(ServerClosed):
            server.submit({})

    def test_close_racing_submit_never_drops_work(self):
        """Hammer submit from threads while the server closes: every
        accepted future resolves; every refusal is a typed
        ServerClosed — nothing hangs, nothing vanishes."""
        from repro.service import ServerClosed

        inp, f = build_pipeline()
        pipe = compile_pipeline(f, backend="compile")
        request = {inp.name: make_input()}
        expected = pipe.run(request)
        server = Server(pipe, workers=2)
        accepted, refused, wrong = [], [], []
        start = threading.Barrier(5)

        def submitter():
            start.wait()
            for _ in range(50):
                try:
                    accepted.append(server.submit(request))
                except ServerClosed:
                    refused.append(1)
                except Exception as exc:  # pragma: no cover
                    wrong.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        start.wait()
        server.close()
        for thread in threads:
            thread.join()
        assert wrong == []
        for future in accepted:
            np.testing.assert_array_equal(future.result(1.0), expected)
        assert len(accepted) + len(refused) == 200
        assert server.stats()["requests"] == len(accepted)

    def test_zero_workers_rejected(self):
        _, f = build_pipeline()
        with pytest.raises(ValueError, match="workers"):
            Server(CompiledPipeline(lower(f)), workers=0)

    def test_one_plan_per_worker_thread_serves_every_path(self):
        """Buckets and singletons on one worker thread share its one
        plan and arena: the server's plan ends exactly where one plan
        driven through ``run_many(plan=...)`` over the same traffic
        does, and the pipeline's default plan is never touched."""
        from conftest import build_requests

        app = conv1d.build("tensor", taps=32, rows=1)
        app.backend = "compile"
        pipe = app.compile()
        rng = np.random.default_rng(5)
        batches = [build_requests(app, 8, rng) for _ in range(3)]
        singles = build_requests(app, 8, rng)
        with Server(pipe, workers=1) as server:
            served = [server.run_many(batch) for batch in batches]
            served.append([server.run(request) for request in singles])
            stats = server.stats()
        assert pipe._default_plan is None
        held = pipe.plan()
        for batch in batches:
            pipe.run_many(batch, plan=held)
        for request in singles:
            pipe.run_many([request], batch_axis=False, plan=held)
        [plan] = stats["plans"]
        assert plan == held.stats()
        # one stack of the four Toeplitz operands, built once for both
        assert (plan["memo_misses"], plan["memo_entries"]) == (1, 1)
        for outputs, requests in zip(served, batches + [singles]):
            for out, request in zip(outputs, requests):
                np.testing.assert_array_equal(out, pipe.run(request))


class TestKernelCacheThreading:
    def test_one_shot_entry_points_accept_a_private_cache(self):
        cache = KernelCache()
        inp, f = build_pipeline()
        inputs = {inp: make_input()}
        out = realize(f, inputs, backend="compile", kernel_cache=cache)
        assert cache.stats()["misses"] == 1
        _, f2 = build_pipeline()
        pipe = compile_pipeline(f2, backend="compile", kernel_cache=cache)
        np.testing.assert_array_equal(pipe.run(inputs), out)
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
