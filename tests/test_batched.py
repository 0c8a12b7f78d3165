"""The differential batch-parity harness for batch-axis kernels.

For every app in the fig-6 suite (both schedule variants) plus the
quantized int8 apps, random request batches run through three paths:

(a) the per-request **interpreter** — the semantic reference,
(b) the per-request **compiled kernel** (the looped ``run_many`` path),
(c) the **batch-axis kernel** — one kernel call for the whole bucket,

and all three must agree **bitwise** — including B=1 buckets, bf16
rounding inside the AMX tiles, int8 wraparound through dp4a, and the
float summation order of every vector reduce.  The suite also pins the
routing contract: ragged buckets and per-request weights fall back to
the looped path (and raise under ``batch_axis=True``), staging is
invalidated on shape changes mid-serving, and one compiled batched
kernel serves every batch size.

Run this file alone with ``pytest -m batched``.
"""

import numpy as np
import pytest
from conftest import (
    INT8_APP_IDS,
    INT8_APPS,
    SIMPLE_APP_IDS,
    SIMPLE_APPS,
    VARIANTS,
    build_requests,
    build_vector_pipeline,
    make_vector_input,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lowering import lower
from repro.runtime.executor import CompiledPipeline
from repro.runtime.plan import BatchingUnsupported
from repro.service import FaultPlan, FaultSpec, Server, faults

pytestmark = pytest.mark.batched

#: compiled pipelines are expensive (equality saturation); build each
#: app+variant once and share it across every B parametrization
_PIPELINES = {}


def compiled_app(module, params, variant=None):
    """``(app, pipeline)`` for an app module + variant, or a bare
    builder callable (the int8 apps) when ``variant`` is None."""
    key = (getattr(module, "__name__", repr(module)), variant,
           tuple(sorted(params.items())))
    if key not in _PIPELINES:
        app = (
            module.build(variant, **params)
            if variant is not None
            else module(**params)
        )
        app.backend = "compile"
        _PIPELINES[key] = (app, app.compile())
    return _PIPELINES[key]


def assert_three_way_parity(pipe, requests):
    """(a) interpreter == (b) looped compiled == (c) batched, bitwise."""
    batched = pipe.run_many(requests, batch_axis=True)
    looped = pipe.run_many(requests, batch_axis=False, workers=1)
    for out_b, out_l, request in zip(batched, looped, requests):
        reference = pipe.run(request, backend="interpret")
        np.testing.assert_array_equal(out_l, reference)
        np.testing.assert_array_equal(out_b, reference)


class TestAppParity:
    """Every fig-6 app, both variants, B in {1, 2, odd, large}."""

    @pytest.mark.parametrize("batch", [1, 2, 5], ids=lambda b: f"B{b}")
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "module,params", SIMPLE_APPS, ids=SIMPLE_APP_IDS
    )
    def test_batched_parity(self, module, params, variant, batch, rng):
        app, pipe = compiled_app(module, params, variant)
        assert_three_way_parity(pipe, build_requests(app, batch, rng))

    @pytest.mark.parametrize(
        "module,params", SIMPLE_APPS, ids=SIMPLE_APP_IDS
    )
    def test_large_batch(self, module, params, rng):
        app, pipe = compiled_app(module, params, "tensor")
        requests = build_requests(app, 16, rng)
        batched = pipe.run_many(requests, batch_axis=True)
        for out, request in zip(batched, requests):
            np.testing.assert_array_equal(
                out, pipe.run(request, backend="interpret")
            )

    @pytest.mark.parametrize("batch", [1, 3, 8], ids=lambda b: f"B{b}")
    @pytest.mark.parametrize(
        "builder,params", INT8_APPS, ids=INT8_APP_IDS
    )
    def test_int8_parity(self, builder, params, batch, rng):
        """dp4a: int8 truncation and int32 wraparound are elementwise,
        so batching must preserve them exactly."""
        app, pipe = compiled_app(builder, params)
        assert_three_way_parity(pipe, build_requests(app, batch, rng))

    def test_int8_wraparound_values_survive_batching(self, rng):
        """Inputs at the int8 extremes: accumulator wraparound must be
        identical whether requests run alone or stacked."""
        app, pipe = compiled_app(INT8_APPS[0][0], INT8_APPS[0][1])
        params = list(app.inputs.items())
        requests = []
        for _ in range(4):
            request = {}
            for position, (param, array) in enumerate(params):
                if position == 0:
                    request[param.name] = rng.choice(
                        np.array([-128, -127, 126, 127], dtype=array.dtype),
                        size=array.shape,
                    )
                else:
                    request[param.name] = array
            requests.append(request)
        assert_three_way_parity(pipe, requests)

    def test_batched_path_actually_used(self, rng):
        """The parity above must not silently test the fallback."""
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        pipe.run_many(build_requests(app, 4, rng), batch_axis=True)
        stats = pipe._default_plan.stats()
        assert stats["runs"] >= 1
        assert stats["batched_requests"] >= 4


class TestKernelReuse:
    """One B-agnostic kernel serves every batch size."""

    def test_batch_size_change_does_not_rebind(self, rng):
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        plan = pipe.plan()
        kernels = set()
        for batch in (2, 5, 1, 16):
            requests = build_requests(app, batch, rng)
            outs = plan.run_batch(requests)
            kernels.add(id(plan._stacked.kernel))
            for out, request in zip(outs, requests):
                np.testing.assert_array_equal(
                    out, pipe.run(request, backend="interpret")
                )
        assert plan.stats()["rebinds"] == 1
        assert len(kernels) == 1

    def test_batched_kernel_is_cached_and_negative_cached(self):
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        names = [p.name for p in app.inputs]
        data_split = frozenset([names[0], pipe.output_name])
        first = pipe.kernel(data_split)
        assert first is not None
        assert pipe.kernel(data_split) is first
        # per-request weights feed the ConvolutionShuffle constructor:
        # unbatchable, and the None answer is memoized
        weights_split = frozenset(names + [pipe.output_name])
        assert pipe.kernel(weights_split) is None
        assert weights_split in pipe._unbatchable

    def test_out_parameter(self, rng):
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        plan = pipe.plan()
        requests = build_requests(app, 3, rng)
        expected = plan.run_batch(requests)
        out = np.full((3,) + expected[0].shape, np.nan, expected[0].dtype)
        results = plan.run_batch(requests, out=out)
        for row, exp, res in zip(out, expected, results):
            assert np.shares_memory(row, res)
            np.testing.assert_array_equal(row, exp)

    def test_singletons_and_buckets_share_one_plan(self, rng):
        """One plan, two binding slots, one arena: alternating B=1 and
        B=8 binds each slot once, and the shared weights' shuffle
        operands are built once for both paths."""
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        requests = build_requests(app, 8, rng)
        plan = pipe.plan()
        for _ in range(3):
            for request in requests[:2]:
                np.testing.assert_array_equal(
                    plan.run(request), pipe.run(request)
                )
            for out, request in zip(plan.run_batch(requests), requests):
                np.testing.assert_array_equal(out, pipe.run(request))
        stats = plan.stats()
        assert stats["rebinds"] == 2
        assert (stats["runs"], stats["batched_requests"]) == (9, 24)
        singles = pipe.plan()
        for request in requests[:2]:
            singles.run(request)
        assert stats["memo_misses"] == singles.stats()["memo_misses"]
        assert stats["memo_entries"] == singles.stats()["memo_entries"]

    def test_failed_bucket_drops_both_slots(self, rng):
        """The one failure rule: a failed batch-axis run leaves no bound
        state and no arena behind, on either slot."""
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        requests = build_requests(app, 4, rng)
        plan = pipe.plan()
        plan.run(requests[0])
        plan.run_batch(requests)
        arena = plan.arena
        fault = FaultPlan(specs=[FaultSpec("raise-in-kernel", visits=(0,))])
        with faults.active(fault):
            with pytest.raises(faults.InjectedKernelError):
                plan.run_batch(requests)
        assert plan.arena is not arena
        np.testing.assert_array_equal(
            plan.run(requests[0]), pipe.run(requests[0])
        )
        for out, request in zip(plan.run_batch(requests), requests):
            np.testing.assert_array_equal(out, pipe.run(request))
        assert plan.stats()["rebinds"] == 4


class TestRoutingFallback:
    def _pipe(self):
        inp, f = build_vector_pipeline()
        return inp, CompiledPipeline(lower(f), backend="compile")

    def test_ragged_bucket_falls_back(self):
        inp, pipe = self._pipe()
        # second request is longer: only the bound 64 elements are read
        ragged = [
            {inp: make_vector_input(seed=1)},
            {inp: np.concatenate(
                [make_vector_input(seed=2), np.ones(16, np.float32)]
            )},
        ]
        results = pipe.run_many(ragged)  # silent fallback
        for out, request in zip(results, ragged):
            np.testing.assert_array_equal(out, pipe.run(request))
        with pytest.raises(BatchingUnsupported):
            pipe.run_many(ragged, batch_axis=True)

    def test_interpret_backend_rejects_explicit_batching(self):
        inp, pipe = self._pipe()
        requests = [{inp: make_vector_input(seed=i)} for i in range(2)]
        with pytest.raises(BatchingUnsupported):
            pipe.run_many(
                requests, backend="interpret", batch_axis=True
            )
        # and never routes there implicitly
        results = pipe.run_many(requests, backend="interpret")
        for out, request in zip(results, requests):
            np.testing.assert_array_equal(
                out, pipe.run(request, backend="interpret")
            )

    def test_per_request_weights_fall_back(self, rng):
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        # vary every input: the weights feed a shuffle constructor, so
        # the bucket is unbatchable — looped fallback, still bitwise
        requests = build_requests(app, 3, rng, vary=len(app.inputs))
        results = pipe.run_many(requests)
        for out, request in zip(results, requests):
            np.testing.assert_array_equal(
                out, pipe.run(request, backend="interpret")
            )
        with pytest.raises(BatchingUnsupported):
            pipe.run_many(requests, batch_axis=True)

    def test_none_requests_reuse_app_inputs(self):
        # App.run_many substitutes the app's bundled inputs for None
        # entries — same dict object per request, so everything is
        # shared and the all-shared kernel variant serves the bucket
        from repro.apps import conv1d

        app, _ = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        expected = app.run()
        for out in app.run_many([None, None]):
            np.testing.assert_array_equal(out, expected)


class TestDataDependentAddressing:
    """Addressing by per-request data has no batched emission, whether
    the table is shared or stacked: per-lane addresses belong to lane
    loops, which prove them safe; the looped path serves these."""

    @pytest.mark.parametrize("table_stacked", [False, True])
    def test_per_request_gather_is_not_batched(self, table_stacked):
        from repro.ir import Float, Int, IntImm, Load, Ramp, Store
        from repro.runtime.codegen import CodegenError, compile_batched_stmt

        lanes = Ramp(IntImm(0), IntImm(1), 4)
        picked = Load(Float(32, 4), "lut", Load(Int(32, 4), "idx", lanes))
        stacked = {"idx", "out"} | ({"lut"} if table_stacked else set())
        with pytest.raises(CodegenError):
            compile_batched_stmt(Store("out", lanes, picked), stacked)


class TestServerBatched:
    def test_server_routes_through_batched_kernel(self, rng):
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        requests = build_requests(app, 6, rng)
        with Server(pipe, workers=2) as server:
            batched = server.run_many(requests)
            looped = server.run_many(requests, batch_axis=False)
            stats = server.stats()
        # each call is two dispatches of ceil(6 / 2) = 3 requests; only
        # the first call's two take the batch-axis kernel
        assert stats["batched_batches"] == 2
        assert stats["batches"] == 2
        for out_b, out_l in zip(batched, looped):
            np.testing.assert_array_equal(out_b, out_l)

    def test_server_batch_axis_policy(self):
        inp, f = build_vector_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        requests = [{inp: make_vector_input(seed=i)} for i in range(3)]
        with Server(pipe, workers=2) as server:
            server.run_many(requests, batch_axis=False)
            assert server.stats()["batched_batches"] == 0
        ragged = [
            {inp: make_vector_input(seed=1)},
            {inp: np.concatenate(
                [make_vector_input(seed=2), np.ones(8, np.float32)]
            )},
        ]
        with Server(pipe, workers=2) as server:
            with pytest.raises(BatchingUnsupported):
                server.run_many(ragged, batch_axis=True)

    def test_shape_change_mid_serving_invalidates_staging(self):
        """Regression: a rebind on shape change must also drop the
        batched staging blocks — stale staging would stack the new
        requests into the old geometry."""
        inp, f = build_vector_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        short = [{inp: make_vector_input(seed=i)} for i in range(3)]
        long = [
            {inp: np.concatenate(
                [make_vector_input(seed=10 + i), np.full(16, 7.0, np.float32)]
            )}
            for i in range(3)
        ]
        with Server(pipe, workers=1) as server:
            first = server.run_many(short)
            second = server.run_many(long)   # rebind: wider inputs
            third = server.run_many(short)   # rebind back
            stats = server.stats()
        # one worker: each call is one dispatch, one batch-axis call
        assert stats["batched_batches"] == 3
        [plan_stats] = stats["plans"]
        assert plan_stats["rebinds"] == 3
        for out, request in zip(first + third, short + short):
            np.testing.assert_array_equal(out, pipe.run(request))
        for out, request in zip(second, long):
            np.testing.assert_array_equal(out, pipe.run(request))


class TestHypothesisSweeps:
    """Randomized differential sweeps — batch size and data drawn by
    Hypothesis, parity asserted bitwise against the interpreter."""

    @settings(max_examples=12, deadline=None)
    @given(batch=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_vector_pipeline_parity(self, batch, seed):
        inp, f = build_vector_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile")
        rng = np.random.default_rng(seed)
        requests = [
            {inp: rng.standard_normal(64).astype(np.float32)}
            for _ in range(batch)
        ]
        assert_three_way_parity(pipe, requests)

    @settings(max_examples=8, deadline=None)
    @given(batch=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_accelerator_app_parity(self, batch, seed):
        from repro.apps import conv1d

        app, pipe = compiled_app(conv1d, {"taps": 16, "rows": 1}, "tensor")
        rng = np.random.default_rng(seed)
        requests = build_requests(app, batch, rng)
        batched = pipe.run_many(requests, batch_axis=True)
        for out, request in zip(batched, requests):
            np.testing.assert_array_equal(
                out, pipe.run(request, backend="interpret")
            )
