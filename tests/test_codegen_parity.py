"""Interpreter vs. compiled-NumPy-backend parity for every application.

The compiled backend (runtime/codegen.py) mirrors the interpreter's
NumPy semantics operation for operation, so the two backends must agree
*bit for bit* on every app and both schedule variants — allclose with
zero tolerance.  These tests also pin down that real Python/NumPy
kernels were emitted (no silent interpreter fallback).
"""

import functools
import re

import numpy as np
import pytest
from conftest import (
    F16_SPECIALS,
    F32_SPECIALS,
    INT8_APP_IDS,
    INT8_APPS,
    SIMPLE_APP_IDS,
    SIMPLE_APPS,
    VARIANTS,
    assert_same_bytes,
    build_requests,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    conv1d,
    dct_denoise,
    matmul,
    recursive_filter,
    resample,
)
from repro.hardboiled.intrinsics import ShuffleError
from repro.ir import (
    LT,
    Allocate,
    BFloat,
    Block,
    Cast,
    Evaluate,
    Float,
    For,
    ForKind,
    IfThenElse,
    Int,
    IntImm,
    LetStmt,
    Load,
    MemoryType,
    Ramp,
    Store,
    StringImm,
    Variable,
)
from repro.ir.builders import (
    cast,
    const,
    intrinsic,
    make_add,
    make_broadcast,
    make_max,
    make_min,
    make_mod,
    make_mul,
    make_sub,
)
from repro.lowering import lower
from repro.runtime import Buffer, Interpreter
from repro.runtime.buffer import StackedBuffer
from repro.runtime.interpreter import EvalError
from repro.runtime.codegen import (
    _LANES,
    KernelFacts,
    KERNEL_FORMAT_VERSION,
    WIDENED,
    compile_batched_stmt,
    compile_stmt,
    deserialize_kernel,
    serialize_kernel,
)
from repro.runtime.executor import CompiledPipeline, RequestError
from repro.runtime.kernel_cache import KernelCache
from repro.targets import wmma
from repro.targets.amx import AMXError
from repro.targets.dp4a import DP4AError
from repro.service import (
    ArtifactStore,
    FaultPlan,
    FaultSpec,
    Server,
    faults,
    warm_select,
)


def assert_backends_agree(app):
    interpreted = app.run()
    compiled = app.run(backend="compile")
    np.testing.assert_allclose(interpreted, compiled, rtol=0, atol=0)


@pytest.mark.parametrize("module,params", SIMPLE_APPS, ids=SIMPLE_APP_IDS)
@pytest.mark.parametrize("variant", ["cuda", "tensor"])
class TestBackendParity:
    def test_backends_agree(self, module, params, variant):
        assert_backends_agree(module.build(variant, **params))


@pytest.mark.parametrize("variant", ["cuda", "tensor"])
class TestMultiStageBackendParity:
    def test_resample_pass(self, variant):
        assert_backends_agree(
            resample.build_pass(variant, in_size=256, out_size=57, columns=32)
        )

    def test_recursive_filter(self, variant):
        assert_backends_agree(recursive_filter.build(variant, samples=4096))

    def test_dct_denoise(self, variant):
        assert_backends_agree(dct_denoise.build(variant, num_tiles=8))


class TestQuantizedBackendParity:
    """The dp4a apps accumulate in exact int32: interpret, compile, and
    the numpy reference must agree bit for bit, not just allclose."""

    @pytest.mark.parametrize("builder,params", INT8_APPS, ids=INT8_APP_IDS)
    def test_int8_apps_bit_exact(self, builder, params):
        app = builder(**params)
        assert_backends_agree(app)
        np.testing.assert_array_equal(
            app.run(backend="compile"), app.reference()
        )

    def test_no_fallback_kernels(self):
        cache = KernelCache()
        app = matmul.build_int8(tiles=1)
        kernel = cache.get(app.compile().lowered)
        assert not kernel.is_fallback
        assert kernel.source is not None


class TestRealKernelsEmitted:
    """The apps must compile to real kernels, not the interpreter fallback."""

    @pytest.mark.parametrize("variant", ["cuda", "tensor"])
    def test_no_fallback(self, variant):
        cache = KernelCache()
        app = conv1d.build(variant, taps=16, rows=1)
        kernel = cache.get(app.compile().lowered)
        assert not kernel.is_fallback
        assert kernel.source is not None
        # the cuda variant is pure vector code: no interpreter at all
        if variant == "cuda":
            assert not kernel.needs_interp

    def test_compiled_output_matches_reference(self):
        # and the compiled path is still *correct*, not just self-consistent
        app = matmul.build("tensor", n=64)
        app.verify(backend="compile")


class TestInputKeyParity:
    """A request keyed by parameter *name* binds exactly like one keyed by
    the ``ImageParam``: numpy has no bfloat16, so the declared dtype has
    to come from the pipeline, not from the array (regression: the
    interpreter raised ``AMXError`` on name-keyed bf16 inputs)."""

    @pytest.mark.parametrize(
        "build",
        [
            matmul.build_amx,
            lambda: matmul.build_amx(layout="vnni"),
            lambda: matmul.build_int8(tiles=1),
        ],
        ids=["bf16", "bf16_vnni", "int8"],
    )
    def test_name_keyed_equals_param_keyed_on_both_backends(self, build):
        app = build()
        pipeline = app.compile()
        rng = np.random.default_rng(7)
        by_param = {}
        for param, array in app.inputs.items():
            if array.dtype.kind == "f":
                # not pre-rounded to bf16: ingest has to do the rounding
                fresh = rng.standard_normal(array.shape).astype(array.dtype)
            else:
                fresh = rng.integers(-128, 128, array.shape).astype(array.dtype)
            by_param[param] = fresh
        by_name = {param.name: array for param, array in by_param.items()}
        expected = pipeline.run(by_param, backend="interpret")
        for backend in ("interpret", "compile"):
            for inputs in (by_param, by_name):
                np.testing.assert_array_equal(
                    pipeline.run(inputs, backend=backend), expected
                )
                np.testing.assert_array_equal(
                    pipeline.plan(backend=backend).run(inputs), expected
                )


# -- lane-vectorised block loops -----------------------------------------------
#
# compile_stmt runs a gpu_block/parallel loop nest as ONE array pass
# with a leading lane axis when it can prove that legal, and as the
# Python loop otherwise.  The interpreter is the serial oracle for both.

#: every single-pipeline app the suite builds: label -> (builder,
#: positional args, keyword args)
LANE_APPS = {
    f"{module.__name__.split('.')[-1]}-{variant}": (
        module.build, (variant,), params
    )
    for module, params in SIMPLE_APPS
    for variant in VARIANTS
}
for variant in VARIANTS:
    LANE_APPS[f"resample-{variant}"] = (
        resample.build_pass,
        (variant,),
        {"in_size": 256, "out_size": 57, "columns": 32},
    )
for taps in (8, 32, 56, 96, 160, 256):  # the Fig. 6 sweep
    LANE_APPS[f"conv1d-k{taps}"] = (
        conv1d.build, ("tensor",), {"taps": taps, "rows": 1}
    )
#: the serial-loop accelerator kernels: nothing to vectorise
SERIAL_APPS = {
    "amx": (matmul.build_amx, (), {}),
    "amx-vnni": (matmul.build_amx, (), {"layout": "vnni"}),
}
for name, (builder, params) in zip(INT8_APP_IDS, INT8_APPS):
    SERIAL_APPS[name] = (builder, (), params)
#: the benchmark catalog's WMMA programs must really take the lane path
MUST_TAKE_LANES = {label for label in LANE_APPS if "cuda" not in label}


@functools.lru_cache(maxsize=None)
def build_app(label):
    """The app behind ``label`` — built once per session: an ``App``
    keeps its compiled pipeline, and eqsat dominates these tests."""
    builder, args, kwargs = (LANE_APPS.get(label) or SERIAL_APPS[label])
    return builder(*args, **kwargs)


def four_way(app):
    """interpreter ≡ pipeline.run ≡ plan.run ≡ out= path; returns the
    plan's kernel."""
    pipe = app.compile()
    expected = pipe.run(app.inputs, backend="interpret")
    np.testing.assert_array_equal(
        pipe.run(app.inputs, backend="compile"), expected
    )
    plan = pipe.plan(backend="compile")
    for _ in range(2):  # the second run recycles the arena's lane slabs
        np.testing.assert_array_equal(plan.run(app.inputs), expected)
    out = np.full_like(expected, 7)
    assert plan.run(app.inputs, out=out) is out
    np.testing.assert_array_equal(out, expected)
    return plan.kernel


def block_loop(name, extent, body, kind=ForKind.GPU_BLOCK):
    return For(name, IntImm(0), IntImm(extent), kind, body)


def ramp(base, count, stride=1):
    return Ramp(base, IntImm(stride), count)


def run_both(stmt, arrays, env=None):
    """Run ``stmt`` on the interpreter and as a compiled kernel over
    copies of ``arrays`` (name -> (ndarray, DataType)); returns the
    kernel and both backends' final buffer contents."""

    def fresh():
        return {
            name: Buffer.from_numpy(name, array.copy(), dtype=dtype)
            for name, (array, dtype) in arrays.items()
        }

    kernel = compile_stmt(stmt)
    assert not kernel.is_fallback
    interpreted, compiled = fresh(), fresh()
    Interpreter(interpreted).run(stmt, dict(env or {}))
    kernel(compiled, dict(env or {}))
    return (
        kernel,
        {name: buf.data for name, buf in interpreted.items()},
        {name: buf.data for name, buf in compiled.items()},
    )


def f32_out(size):
    return (np.zeros(size, np.float32), Float(32))


def block_rows(kernel) -> set:
    """The statuses of a kernel's data-parallel loop rows (its serial
    block loops' rows say ``"serial, ..."``)."""
    return {s for _, _, s in kernel.loops if not s.startswith("serial")}


class TestLaneLoops:
    @pytest.mark.parametrize("label", sorted(LANE_APPS))
    def test_apps_four_way(self, label):
        kernel = four_way(build_app(label))
        assert block_rows(kernel), "every app here schedules a block loop"
        if label in MUST_TAKE_LANES:
            assert block_rows(kernel) == {"lanes"}
            assert "_LANES" in kernel.source

    @pytest.mark.parametrize("label", sorted(SERIAL_APPS))
    def test_serial_kernels_are_untouched(self, label):
        kernel = four_way(build_app(label))
        assert block_rows(kernel) == set()
        for lane_construct in ("_LANES", "_take_b", "lanes-disjoint"):
            assert lane_construct not in kernel.source

    # -- one negative case per fallback reason ------------------------------

    def assert_falls_back(self, stmt, arrays, reason, env=None, var="x"):
        kernel, interpreted, compiled = run_both(stmt, arrays, env)
        row = next(r for r in kernel.loops if r[0] == var)  # the outer one
        assert reason in row[2], kernel.loops
        # the one lane pass an inner serial loop may still take is its map
        maps = [s for *_, s in kernel.loops if s == "serial, map"]
        assert kernel.source.count("_LANES):") == len(maps)
        for name in arrays:
            np.testing.assert_array_equal(compiled[name], interpreted[name])

    def test_overlapping_store_falls_back(self):
        # stride 4 < the 8-wide ramp: later lanes overwrite earlier ones
        x = Variable("x")
        value = make_broadcast(cast(Float(32), make_add(x, IntImm(1))), 8)
        stmt = block_loop(
            "x", 4, Store("out", ramp(make_mul(x, IntImm(4)), 8), value)
        )
        self.assert_falls_back(stmt, {"out": f32_out(20)}, "overlap")

    def test_tile_store_narrower_than_the_tile_falls_back(self):
        x = Variable("x")
        tile = intrinsic(
            Float(32, 8), "wmma.fill.sync", IntImm(2), IntImm(4),
            cast(Float(32), x),
        )
        store = intrinsic(
            Float(32), "wmma.store.d.sync", StringImm("out"),
            make_mul(x, IntImm(2)), IntImm(4), IntImm(2), IntImm(4), tile,
        )
        stmt = block_loop("x", 3, Evaluate(store))
        self.assert_falls_back(stmt, {"out": f32_out(16)}, "overlap")

    def test_cross_lane_dependence_falls_back(self):
        # out[x + 1] = out[x] + 1: a serial chain through the buffer
        x = Variable("x")
        stmt = block_loop(
            "x",
            5,
            Store(
                "out",
                make_add(x, IntImm(1)),
                make_add(Load(Float(32), "out", x), const(1.0, Float(32))),
            ),
        )
        self.assert_falls_back(
            stmt, {"out": f32_out(6)}, "loads 'out', which another lane"
        )

    def test_lane_varying_branch_falls_back(self):
        x = Variable("x")
        stmt = block_loop(
            "x",
            4,
            IfThenElse(
                LT(x, IntImm(2)),
                Store("out", x, const(1.0, Float(32))),
                None,
            ),
        )
        self.assert_falls_back(stmt, {"out": f32_out(4)}, "branch")

    def test_lane_varying_inner_extent_falls_back(self):
        # acc counts a triangular loop: lane x iterates x times
        x = Variable("x")
        acc = Load(Float(32), "acc", IntImm(0))
        body = Allocate(
            "acc", Float(32), (IntImm(1),), MemoryType.STACK,
            Block((
                For(
                    "j", IntImm(0), x, ForKind.SERIAL,
                    Store(
                        "acc", IntImm(0),
                        make_add(acc, const(1.0, Float(32))),
                    ),
                ),
                Store("out", x, acc),
            )),
        )
        self.assert_falls_back(
            block_loop("x", 4, body), {"out": f32_out(4)}, "loop bounds"
        )

    def test_lane_varying_shuffle_base_falls_back(self):
        x = Variable("x")
        shuffle = intrinsic(
            Float(16, 128), "ConvolutionShuffle", StringImm("K"),
            make_mul(x, IntImm(8)), IntImm(16), IntImm(8), IntImm(8),
            IntImm(1),
        )
        stmt = block_loop(
            "x",
            3,
            Store(
                "out",
                ramp(make_mul(x, IntImm(128)), 128),
                cast(Float(32, 128), shuffle),
            ),
        )
        taps = np.arange(32, dtype=np.float16)
        self.assert_falls_back(
            stmt,
            {"K": (taps, Float(16)), "out": f32_out(384)},
            "ConvolutionShuffle",
        )

    def test_symbolic_store_stride_falls_back(self):
        x = Variable("x")
        tile = intrinsic(
            Float(32, 8), "wmma.fill.sync", IntImm(2), IntImm(4),
            cast(Float(32), x),
        )
        store = intrinsic(
            Float(32), "wmma.store.d.sync", StringImm("out"),
            make_mul(x, IntImm(8)), Variable("out.stride.1"), IntImm(2),
            IntImm(4), tile,
        )
        self.assert_falls_back(
            block_loop("x", 3, Evaluate(store)),
            {"out": f32_out(24)},
            "symbolic store stride",
            env={"out.stride.1": 4},
        )

    def test_single_iteration_falls_back(self):
        x = Variable("x")
        stmt = block_loop("x", 1, Store("out", x, const(1.0, Float(32))))
        self.assert_falls_back(
            stmt, {"out": f32_out(1)}, "fewer than two iterations"
        )

    def test_fallback_is_per_loop(self):
        """The outer loop's stores overlap along y only: it stays a
        Python loop and the inner x loop still vectorises."""
        x, y = Variable("x"), Variable("y")
        value = make_broadcast(cast(Float(32), make_add(x, y)), 4)
        inner = block_loop(
            "x", 4, Store("out", ramp(make_mul(x, IntImm(4)), 4), value)
        )
        kernel, interpreted, compiled = run_both(
            block_loop("y", 3, inner), {"out": f32_out(16)}
        )
        assert [r[0] for r in kernel.loops] == ["y", "x"]
        assert "overlap" in kernel.loops[0][2]
        assert kernel.loops[1][2] == "lanes"
        np.testing.assert_array_equal(compiled["out"], interpreted["out"])

    def test_rolled_back_attempt_leaves_enclosing_scopes_intact(self):
        """The inner attempt fails under the outer Python loop; once
        that loop ends, ``y`` is the env's again, not its last value."""
        x, y = Variable("x"), Variable("y")
        value = make_broadcast(cast(Float(32), make_add(x, y)), 8)
        inner = block_loop(
            "x", 3, Store("out", ramp(make_mul(x, IntImm(4)), 8), value)
        )
        stmt = Block((
            block_loop("y", 2, inner),
            Store("tail", IntImm(0), cast(Float(32), y)),
        ))
        kernel, interpreted, compiled = run_both(
            stmt, {"out": f32_out(16), "tail": f32_out(1)}, env={"y": 7}
        )
        assert all("overlap" in status for _, _, status in kernel.loops)
        assert compiled["tail"][0] == 7.0
        for name in ("out", "tail"):
            np.testing.assert_array_equal(compiled[name], interpreted[name])

    def test_store_is_proved_with_the_extents_in_scope_at_its_site(self):
        """Two inner loops share the name ``r``: ``out``'s 8-wide one
        overlaps at lane stride 4, whatever the later 2-wide one says."""
        x, r = Variable("x"), Variable("r")

        def at(scale):
            return make_add(make_mul(x, IntImm(scale)), r)

        wide = For(
            "r", IntImm(0), IntImm(8), ForKind.SERIAL,
            Store("out", at(4), cast(Float(32), at(10))),
        )
        narrow = For(
            "r", IntImm(0), IntImm(2), ForKind.SERIAL,
            Store("aux", at(2), cast(Float(32), r)),
        )
        self.assert_falls_back(
            block_loop("x", 3, Block((wide, narrow))),
            {"out": f32_out(16), "aux": f32_out(6)},
            "overlap",
        )

    def test_body_rebinding_a_lane_variable_falls_back(self):
        x = Variable("x")
        inner = For(
            "x", IntImm(0), IntImm(4), ForKind.SERIAL,
            Store("out", x, cast(Float(32), x)),
        )
        self.assert_falls_back(
            block_loop("x", 3, inner), {"out": f32_out(4)}, "rebinds"
        )

    def test_scalar_gather_and_scatter_take_lanes(self):
        # out[x] = lut[idx[x]] + x: data-dependent per-lane gather,
        # one element stored per lane
        x = Variable("x")
        picked = Load(Float(32), "lut", Load(Int(32), "idx", x))
        stmt = block_loop(
            "x", 5, Store("out", x, make_add(picked, cast(Float(32), x))),
            ForKind.PARALLEL,
        )
        kernel, interpreted, compiled = run_both(
            stmt,
            {
                "lut": (np.arange(8, dtype=np.float32) * 1.5, Float(32)),
                "idx": (np.array([3, 0, 7, 7, 1], np.int32), Int(32)),
                "out": f32_out(5),
            },
        )
        assert kernel.loops == (("x", 5, "lanes"),)
        np.testing.assert_array_equal(compiled["out"], interpreted["out"])

    def test_wide_grids_run_in_bounded_chunks(self):
        """More lanes than one slab holds: chunked, still bitwise."""
        n = 2 * _LANES + 3
        x = Variable("x")
        acc = ramp(IntImm(0), 4)
        body = Allocate(
            "acc", Float(32), (IntImm(4),), MemoryType.STACK,
            Block((
                Store("acc", acc, make_broadcast(cast(Float(32), x), 4)),
                Store(
                    "out",
                    ramp(make_mul(x, IntImm(4)), 4),
                    make_add(
                        Load(Float(32, 4), "acc", acc),
                        Load(Float(32, 4), "inp", ramp(x, 4)),
                    ),
                ),
            )),
        )
        inp = np.arange(n + 4, dtype=np.float32)
        kernel, interpreted, compiled = run_both(
            block_loop("x", n, body, ForKind.PARALLEL),
            {"inp": (inp, Float(32)), "out": f32_out(4 * n)},
        )
        assert kernel.loops == (("x", n, "lanes"),)
        np.testing.assert_array_equal(compiled["out"], interpreted["out"])

    # -- failures inside a lane-vectorised kernel ---------------------------

    @pytest.mark.faults
    @pytest.mark.parametrize(
        "mode,victim", [("alloc-fail", 0), ("raise-in-kernel", 1)]
    )
    def test_fault_in_lane_kernel_fails_only_that_request(
        self, mode, victim, rng
    ):
        app = conv1d.build("tensor", taps=16, rows=1)
        pipe = app.compile()
        requests = build_requests(app, 3, rng)
        expected = [pipe.run(r, backend="interpret") for r in requests]
        fault = FaultPlan(specs=[FaultSpec(mode, visits=(victim,))])
        with Server(
            pipe, workers=1, retries=0, backend="compile"
        ) as server:
            with faults.active(fault):
                results = server.run_many(
                    requests, batch_axis=False, on_error="return"
                )
            assert len(fault.log) == 1
            again = server.run_many(requests, batch_axis=False)
            [plan] = server.stats()["plans"]
        for position, (result, reference) in enumerate(
            zip(results, expected)
        ):
            if position == victim:
                assert isinstance(result, RequestError)
            else:
                np.testing.assert_array_equal(result, reference)
        for result, reference in zip(again, expected):
            np.testing.assert_array_equal(result, reference)
        # the failed run dropped the bound state and the arena, no more
        assert plan["rebinds"] == 2
        assert plan["runs"] == 5

    # -- generated block nests ----------------------------------------------

    @pytest.mark.generative
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_generated_block_nests(self, data):
        stmt, arrays, disjoint = data.draw(block_nests())
        kernel, interpreted, compiled = run_both(stmt, arrays)
        np.testing.assert_array_equal(compiled["out"], interpreted["out"])
        statuses, taken = block_rows(kernel), "lanes"
        if stmt.kind is ForKind.SERIAL:  # a map: the outer loop's own row
            taken = "serial, map"
            statuses = {s for v, _, s in kernel.loops if v == stmt.name}
            disjoint &= not KernelFacts(stmt).whole.calls  # no intrinsic
        if disjoint and not any("fewer than two" in s for s in statuses):
            assert statuses == {taken}, kernel.loops


ROWS, COLS = 2, 4
WIDTH = ROWS * COLS

#: element type -> (numpy storage dtype, IR buffer type, accumulator type)
ELEMENT_TYPES = {
    "f32": (np.float32, Float(32), Float(32)),
    "f16": (np.float16, Float(16), Float(32)),
    "bf16": (np.float32, BFloat(16), Float(32)),
    "i8": (np.int8, Int(8), Int(32)),
}


@st.composite
def block_nests(draw):
    """A small block nest: 1-2 data-parallel dims (extents 1-5), a
    private accumulator, an optional serial reduction loop (an add, max
    or min fold), ramp or tile loads and stores, in one of four element
    types.  The output layout is drawn either provably disjoint or
    arbitrary (typically overlapping), so both the lane path and the
    fallback are hit.  The dims may be serial loops instead: a map when
    disjoint, and the reduction loop then a reduce when they are not."""
    kind = draw(st.sampled_from([ForKind.GPU_BLOCK, ForKind.PARALLEL, ForKind.SERIAL]))
    fold = draw(st.sampled_from([make_add, make_max, make_min]))
    extents = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    names = ["y", "x"][-len(extents):]
    element = draw(st.sampled_from(sorted(ELEMENT_TYPES)))
    np_dtype, buf_type, acc_type = ELEMENT_TYPES[element]
    integral = element == "i8"
    reduce = draw(st.integers(0, 3))  # 0: no reduction loop
    tile_load = draw(st.booleans())
    tile_store = draw(st.booleans())
    disjoint = draw(st.booleans())

    # output layout: tiles side by side along x, rows of tiles along y
    stride = COLS * extents[-1] if tile_store else COLS
    span = (ROWS - 1) * stride + COLS if tile_store else WIDTH
    if disjoint:
        out_coefs = [COLS if tile_store else WIDTH]
        if len(extents) == 2:
            out_coefs.insert(
                0, ROWS * stride if tile_store else WIDTH * extents[1]
            )
    else:
        out_coefs = [draw(st.integers(0, span)) for _ in extents]
    in_coefs = [draw(st.integers(0, 6)) for _ in extents]
    in_stride = draw(st.integers(COLS, COLS + 2))

    lanes = [Variable(n) for n in names]

    def affine(coefs, extra=None):
        e = extra if extra is not None else IntImm(0)
        for coef, var in zip(coefs, lanes):
            e = make_add(e, make_mul(var, IntImm(coef)))
        return e

    def reach(coefs):
        return sum(c * (n - 1) for c, n in zip(coefs, extents))

    r = Variable("r")
    in_base = affine(in_coefs, r if reduce else None)
    if tile_load:
        name = "dp4a_load" if integral else "wmma.load.a.sync"
        loaded = intrinsic(
            acc_type.with_lanes(WIDTH), name, StringImm("inp"), in_base,
            IntImm(in_stride), IntImm(ROWS), IntImm(COLS),
        )
        in_span = (ROWS - 1) * in_stride + COLS
    else:
        loaded = cast(
            acc_type.with_lanes(WIDTH),
            Load(buf_type.with_lanes(WIDTH), "inp", ramp(in_base, WIDTH)),
        )
        in_span = WIDTH
    if reduce:
        weight = cast(acc_type, Load(buf_type, "k", r))
        loaded = make_mul(loaded, make_broadcast(weight, WIDTH))
    acc = ramp(IntImm(0), WIDTH)
    acc_load = Load(acc_type.with_lanes(WIDTH), "acc", acc)
    update = Store("acc", acc, fold(acc_load, loaded) if reduce else make_add(acc_load, loaded))
    if reduce:
        update = For("r", IntImm(0), IntImm(reduce), ForKind.SERIAL, update)

    out_type = acc_type if (integral or tile_store) else buf_type
    out_base = affine(out_coefs)
    if tile_store:
        name = "dp4a_store" if integral else "tile_store"
        store = Evaluate(
            intrinsic(
                acc_type, name, StringImm("out"), out_base, IntImm(stride),
                IntImm(ROWS), IntImm(COLS), acc_load,
            )
        )
    else:
        store = Store(
            "out", ramp(out_base, WIDTH),
            cast(out_type.with_lanes(WIDTH), acc_load),
        )
    body = Allocate(
        "acc", acc_type, (IntImm(WIDTH),), MemoryType.STACK,
        Block((
            Store("acc", acc, make_broadcast(const(0, acc_type), WIDTH)),
            update,
            store,
        )),
    )
    stmt = body
    for name, extent in reversed(list(zip(names, extents))):
        stmt = For(name, IntImm(0), IntImm(extent), kind, stmt)

    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)

    def values(size):
        if integral:
            return rng.integers(-128, 128, size).astype(np_dtype)
        return rng.standard_normal(size).astype(np_dtype)

    out_np = np.int32 if integral else (
        np.float32 if tile_store or element != "f16" else np.float16
    )
    arrays = {
        "inp": (values(reach(in_coefs) + reduce + in_span), buf_type),
        "k": (values(max(reduce, 1)), buf_type),
        "out": (np.zeros(reach(out_coefs) + span, out_np), out_type),
    }
    return stmt, arrays, disjoint


# -- tile operands at the MAC boundary -----------------------------------------
#
# A WMMA / DP4A load sitting directly in a MAC's A or B slot hands the
# core the buffer's own float16 / int8 elements (the emitter appends a
# literal ``True`` to that load and to no other); every other consumer
# of a load keeps the widened value the interpreter computes with.
# Everything below compares raw bytes: NaN payloads and the sign of
# zero must survive, not just compare equal.

#: dtype -> the values its type boundaries treat specially
SPECIALS = {
    np.dtype(np.float16): F16_SPECIALS.view(np.float16),
    np.dtype(np.float32): F32_SPECIALS.view(np.float32),
    np.dtype(np.int8): np.array([-128, 127, -1, 0], np.int8),
}


def with_specials(rng, array, finite_only=False, count=6):
    """Fresh random data shaped like ``array`` with ``count`` special
    values dropped in (few, so most outputs stay finite).  Index inputs
    (anything but float / int8) are returned as they are."""
    pool = SPECIALS.get(array.dtype)
    if pool is None:
        return array
    if array.dtype.kind == "f":
        out = rng.standard_normal(array.shape).astype(array.dtype)
        if finite_only:
            pool = pool[np.isfinite(pool)]
    else:
        out = rng.integers(-128, 128, array.shape).astype(array.dtype)
    flat = out.reshape(-1)
    where = rng.choice(flat.size, size=min(count, flat.size), replace=False)
    flat[where] = rng.choice(pool, size=where.size)
    return out


M = N = K = 16
TILE = M * N


def wmma_load(side, name, base, stride=K):
    return intrinsic(
        Float(16, TILE), f"wmma.load.{side}.sync", StringImm(name), base,
        IntImm(stride), IntImm(16), IntImm(16),
    )


def wmma_mma(a, b):
    zero = intrinsic(
        Float(32, TILE), "wmma.fill.sync", IntImm(M), IntImm(N),
        const(0.5, Float(32)),
    )
    return intrinsic(
        Float(32, TILE), "wmma.mma.sync", zero, a, b,
        IntImm(M), IntImm(N), IntImm(K),
    )


def wmma_store(name, base, tile):
    return Evaluate(
        intrinsic(
            Float(32), "wmma.store.d.sync", StringImm(name), base,
            IntImm(N), IntImm(M), IntImm(N), tile,
        )
    )


def run_four_ways(body, arrays, blocks=3, batch=2):
    """``body`` (over block variable ``x``) on the interpreter, as a
    serial kernel, as a lane-vectorised kernel and as a batch-axis
    kernel (request ``b`` gets every array rolled by ``b``): the same
    bytes in every buffer.  Returns the lane kernel."""

    def buffers(shift):
        return {
            name: Buffer.from_numpy(name, np.roll(array, shift), dtype=dtype)
            for name, (array, dtype) in arrays.items()
        }

    def loop(kind):
        return For("x", IntImm(0), IntImm(blocks), kind, body)

    serial, lanes = compile_stmt(loop(ForKind.SERIAL)), compile_stmt(
        loop(ForKind.GPU_BLOCK)
    )
    batched = compile_batched_stmt(loop(ForKind.SERIAL), frozenset(arrays))
    assert not serial.is_fallback and not lanes.is_fallback
    assert {status for _, _, status in lanes.loops} == {"lanes"}, lanes.loops
    assert serial.macs == lanes.macs == batched.macs

    with np.errstate(all="ignore"):
        expected = []
        for shift in range(batch):
            reference = buffers(shift)
            Interpreter(reference).run(loop(ForKind.SERIAL), {})
            expected.append(reference)
            for kernel in (serial, lanes):
                got = buffers(shift)
                kernel(got, {})
                for name in arrays:
                    assert_same_bytes(got[name].data, reference[name].data)
        stacked = {
            name: StackedBuffer(
                name, dtype, (array.size,), is_external=True, batch=batch,
                data=np.stack(
                    [buffers(shift)[name].data for shift in range(batch)]
                ),
            )
            for name, (array, dtype) in arrays.items()
        }
        batched(stacked, {"batch.size": batch})
    for shift, reference in enumerate(expected):
        for name in arrays:
            assert_same_bytes(stacked[name].data[shift], reference[name].data)
    return lanes


def mac_literals(kernel):
    """How many loads in ``kernel``'s source carry the MAC-slot literal."""
    return len(re.findall(r", True\)", kernel.source))


class TestMacOperands:
    def arrays(self, rng, **dtypes):
        """Three tiles' worth of special-laden data per named input,
        and a float32 ``out``."""
        made = {"out": f32_out(3 * TILE)}
        for name, (np_dtype, ir_type) in dtypes.items():
            values = with_specials(rng, np.zeros(3 * TILE, np_dtype), count=40)
            made[name] = (values, ir_type)
        return made

    F16 = (np.float16, Float(16))

    def test_direct_loads_reach_the_core_narrow(self, rng):
        x = Variable("x")
        base = make_mul(x, IntImm(TILE))
        body = wmma_store(
            "out", base,
            wmma_mma(wmma_load("a", "A", base), wmma_load("b", "B", base)),
        )
        kernel = run_four_ways(body, self.arrays(rng, A=self.F16, B=self.F16))
        # inputs the kernel only reads: widened once, exact in the core
        assert kernel.macs == (("wmma.mma.sync", WIDENED, WIDENED),)
        assert mac_literals(kernel) == 2
        assert kernel.source.count(".widen(") == 2

    def test_loads_feeding_anything_else_stay_wide(self, rng):
        """Store of a load, TileExpand(load), load + load: float32
        arithmetic as on the interpreter — in float16, 65504 + 65504
        would be inf and the subnormal sums would round."""
        x = Variable("x")
        base = make_mul(x, IntImm(TILE))
        a, b = wmma_load("a", "A", base), wmma_load("b", "B", base)
        half = intrinsic(
            Float(16, TILE // 2), "wmma.load.a.sync", StringImm("A"), base,
            IntImm(8), IntImm(16), IntImm(8),
        )
        expanded = intrinsic(
            Float(32, TILE), "TileExpand", half, IntImm(8), IntImm(16)
        )
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        arrays["A"][0][:4] = np.float16(65504.0)
        arrays["B"][0][:4] = np.float16(65504.0)
        for value in (a, make_add(a, b), expanded):
            kernel = run_four_ways(wmma_store("out", base, value), arrays)
            assert kernel.macs == () and mac_literals(kernel) == 0
        # ...and as MAC operands they are widened first, with the reason
        kernel = run_four_ways(
            wmma_store("out", base, wmma_mma(make_add(a, b), expanded)),
            arrays,
        )
        assert kernel.macs == (
            ("wmma.mma.sync", "not a direct load", "not a direct load"),
        )
        assert mac_literals(kernel) == 0

    def test_float32_buffers_are_still_rounded_by_the_core(self, rng):
        """An external float32 operand (its dtype is only known at run
        time) and an in-kernel float32 scratch (known to the emitter):
        neither is float16-exact, both must be rounded as before."""
        x = Variable("x")
        base = make_mul(x, IntImm(TILE))
        lanes = ramp(IntImm(0), TILE)
        scratch = Allocate(
            "tmp", Float(32), (IntImm(TILE),), MemoryType.STACK,
            Block((
                Store(
                    "tmp", lanes,
                    make_mul(
                        Load(Float(32, TILE), "W", ramp(base, TILE)),
                        make_broadcast(const(1.0 + 2.0**-13, Float(32)), TILE),
                    ),
                ),
                wmma_store(
                    "out", base,
                    wmma_mma(
                        wmma_load("a", "W", base),
                        wmma_load("b", "tmp", IntImm(0)),
                    ),
                ),
            )),
        )
        arrays = self.arrays(rng, W=(np.float32, Float(32)))
        kernel = run_four_ways(scratch, arrays)
        # W is widened once in form only: float32 is not the narrow
        # type, so ``TileISA.widen`` hands the buffer back unrounded
        assert kernel.macs == (
            ("wmma.mma.sync", WIDENED, "buffer is float32"),
        )
        assert mac_literals(kernel) == 1
        # against the arithmetic spelled out, not just the interpreter
        with np.errstate(all="ignore"):
            _, _, compiled = run_both(block_loop("x", 3, scratch), arrays)
            w = arrays["W"][0].reshape(3, M, K)
            a16 = w.astype(np.float16)
            b16 = (w * np.float32(1.0 + 2.0**-13)).astype(np.float16)
            assert (a16 != w).any() and (b16 != a16).any()
            want = np.float32(0.5) + a16.astype(np.float32) @ b16.astype(
                np.float32
            )
        np.testing.assert_array_equal(compiled["out"], want.ravel())

    @pytest.mark.parametrize("private", [False, True], ids=["shared", "lane"])
    def test_float16_scratch_written_in_kernel(self, rng, private):
        """``hb_tmp*``-style: a float16 Allocate stored by the kernel,
        then loaded as B — shared across lanes, or (when what is stored
        varies with the block) a lane-private ``[N, size]`` slab."""
        x = Variable("x")
        base = make_mul(x, IntImm(TILE))
        source = ramp(base if private else IntImm(0), TILE)
        body = Allocate(
            "hb_tmp0", Float(16), (IntImm(TILE),), MemoryType.STACK,
            Block((
                Store(
                    "hb_tmp0", ramp(IntImm(0), TILE),
                    Load(Float(16, TILE), "B", source),
                ),
                wmma_store(
                    "out", base,
                    wmma_mma(
                        wmma_load("a", "A", base),
                        wmma_load("b", "hb_tmp0", IntImm(0)),
                    ),
                ),
            )),
        )
        kernel = run_four_ways(body, self.arrays(rng, A=self.F16, B=self.F16))
        assert kernel.macs == (("wmma.mma.sync", WIDENED, "narrow"),)
        assert ("_take_b(" in kernel.source) == private

    def test_dp4a_operands(self, rng):
        x = Variable("x")

        def load(name, rows, cols):
            return intrinsic(
                Int(8, rows * cols), "dp4a_load", StringImm(name),
                make_mul(x, IntImm(rows * cols)), IntImm(cols),
                IntImm(rows), IntImm(cols),
            )

        zero = intrinsic(Int(32, 256), "dp4a_zero", IntImm(16), IntImm(16))
        mac = intrinsic(
            Int(32, 256), "dp4a_matmul", zero, load("A", 16, 64),
            load("B", 16, 64), IntImm(16), IntImm(16), IntImm(64),
        )
        body = Evaluate(
            intrinsic(
                Int(32), "dp4a_store", StringImm("out"),
                make_mul(x, IntImm(256)), IntImm(16), IntImm(16), IntImm(16),
                mac,
            )
        )
        arrays = {
            name: (
                with_specials(rng, np.zeros(3 * 1024, np.int8), count=200),
                Int(8),
            )
            for name in ("A", "B")
        }
        arrays["out"] = (np.zeros(3 * 256, np.int32), Int(32))
        kernel = run_four_ways(body, arrays)
        assert kernel.macs == (("dp4a_matmul", WIDENED, WIDENED),)
        assert mac_literals(kernel) == 2

    def test_an_input_the_statement_stores_into_is_not_widened_once(
        self, rng
    ):
        """A copied once at the top of the call would miss what the
        statement stores into it before the load reads it back."""
        x = Variable("x")
        base = make_mul(x, IntImm(TILE))
        body = Block((
            Store(
                "A", ramp(base, TILE), Load(Float(16, TILE), "B", ramp(base, TILE))
            ),
            wmma_store(
                "out", base,
                wmma_mma(wmma_load("a", "A", base), wmma_load("b", "B", base)),
            ),
        ))
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        with np.errstate(all="ignore"):
            kernel, interpreted, compiled = run_both(
                block_loop("x", 3, body, ForKind.SERIAL), arrays
            )
        assert kernel.macs == (("wmma.mma.sync", "narrow", WIDENED),)
        assert kernel.source.count(".widen(") == 1
        assert (arrays["A"][0] != arrays["B"][0]).any()
        for name in arrays:
            assert_same_bytes(compiled[name], interpreted[name])

    def test_a_stacked_input_is_widened_once_under_the_batch_axis(self, rng):
        """The batch-axis kernel widens each ``[B, size]`` input in one
        pass and tells the MAC; every row is its request's bytes."""
        x = Variable("x")
        base = make_mul(x, IntImm(TILE))
        body = wmma_store(
            "out", base,
            wmma_mma(wmma_load("a", "A", base), wmma_load("b", "B", base)),
        )
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        run_four_ways(body, arrays)  # batched ≡ per-request, bytewise
        batched = compile_batched_stmt(
            block_loop("x", 3, body, ForKind.SERIAL), frozenset(arrays)
        )
        assert batched.macs == (("wmma.mma.sync", WIDENED, WIDENED),)
        # both operands reach the core with their exact flags, through
        # the stacks their serial loop reads
        exact = r"\.stack\(_arena, _w\d+, _e\d+, "
        assert len(re.findall(exact, batched.source)) == 2
        # a small batch is widened on the heap, a large one into a
        # mapping of its own (unmapped with the array)
        for batch, mapped in ((2, False), (64, True)):
            stacked = StackedBuffer(
                "A", Float(16), (3 * TILE,), batch=batch,
                data=np.stack([arrays["A"][0]] * batch),
            )
            source, exact = wmma.ISA.widen(stacked)
            assert exact and source.dtype == np.float32
            assert source.flags.owndata != mapped
            assert_same_bytes(source, stacked.data.astype(np.float32))

    def test_catalog_conv1d_widens_its_input_once(self):
        """The Toeplitz A windows overlap 2x: their input is widened
        once; B, a shuffled weight scratch, reaches the core narrow."""
        pipe = conv1d.build("tensor", taps=8, rows=1).compile()
        for kernel in (
            pipe.plan(backend="compile").kernel,
            compile_batched_stmt(pipe.lowered.stmt, {"I", "output"}),
        ):
            assert kernel.macs == (("wmma.mma.sync", WIDENED, "narrow"),)

    @pytest.mark.parametrize(
        "prefix,elem,acc,error",
        [("tile", BFloat, Float(32), AMXError), ("dp4a", Int, Int(32), DP4AError)],
        ids=["amx", "dp4a"],
    )
    def test_an_illegal_mac_shape_is_refused_by_both_backends(
        self, prefix, elem, acc, error
    ):
        """m16n16k16 is no TDPBF16PS / dp4a_matmul shape: the check
        sits in the MAC entry both backends call, so the compiled
        kernel refuses it with the interpreter's error instead of
        multiplying whatever tiles it was handed."""

        def load(name):
            return intrinsic(
                elem(8 if elem is Int else 16, TILE), f"{prefix}_load",
                StringImm(name), IntImm(0), IntImm(16), IntImm(16),
                IntImm(16),
            )

        zero = intrinsic(
            acc.with_lanes(TILE), f"{prefix}_zero", IntImm(16), IntImm(16)
        )
        mac = intrinsic(
            acc.with_lanes(TILE), f"{prefix}_matmul", zero, load("A"),
            load("B"), IntImm(16), IntImm(16), IntImm(16),
        )
        stmt = Evaluate(
            intrinsic(
                acc, f"{prefix}_store", StringImm("out"), IntImm(0),
                IntImm(16), IntImm(16), IntImm(16), mac,
            )
        )
        operand = load("A").type.element_of()

        def buffers():
            return {
                "A": Buffer("A", operand, (TILE,)),
                "B": Buffer("B", operand, (TILE,)),
                "out": Buffer("out", acc, (TILE,)),
            }

        kernel = compile_stmt(stmt)
        assert not kernel.is_fallback
        with pytest.raises(error, match="got m16n16k16"):
            Interpreter(buffers()).run(stmt, {})
        with pytest.raises(error, match="got m16n16k16"):
            kernel(buffers(), {})

    @pytest.mark.parametrize(
        "label", sorted(MUST_TAKE_LANES) + sorted(SERIAL_APPS)
    )
    def test_catalog_on_special_values(self, label, rng):
        """The 12 + 6 benchmark programs on subnormals, +-inf, NaNs with
        payloads, -0.0, 65504 and the int8 extremes: interpreter,
        ``plan.run``, ``run_many(batch_axis=True)`` and a served bucket
        return the same bytes."""
        app = build_app(label)
        pipe = app.compile()
        weights = {
            param.name: with_specials(rng, array, finite_only=True)
            for param, array in list(app.inputs.items())[1:]
        }
        data, like = next(iter(app.inputs.items()))
        requests = [
            {data.name: with_specials(rng, like), **weights} for _ in range(3)
        ]
        with np.errstate(all="ignore"):
            expected = [pipe.run(r, backend="interpret") for r in requests]
            plan = pipe.plan(backend="compile")
            planned = [plan.run(r).copy() for r in requests]
            batched = pipe.run_many(
                requests, batch_axis=True, backend="compile"
            )
            with Server(pipe, workers=1, backend="compile") as server:
                served = server.run_many(requests)
        for want, *got in zip(expected, planned, batched, served):
            for result in got:
                assert_same_bytes(result, want)
        assert not np.isnan(np.concatenate(expected).astype(np.float64)).all()

    def test_parent_commit_artifact_is_recompiled_never_misread(
        self, tmp_path, rng
    ):
        """A v4 kernel payload — no MAC-slot literal, no ``macs`` — is
        demoted to a cold recompile by the format bump; and were it
        run against today's helpers anyway, its loads default to the
        widened value: the same bytes, the old speed."""
        import pickle

        from repro.runtime.codegen import deserialize_kernel
        from repro.service.store import frame_blob, unframe_blob

        app = conv1d.build("tensor", taps=8, rows=1)
        store = ArtifactStore(tmp_path)
        result = warm_select(lower(app.output), store, backend="compile")
        path = store.path_for(result.key.digest)
        with open(path, "rb") as handle:
            artifact = pickle.loads(unframe_blob(handle.read()))
        payload = artifact.kernel
        assert payload["format"] == KERNEL_FORMAT_VERSION
        assert mac_literals(deserialize_kernel(payload)) == 2
        del payload["macs"]
        payload["source"] = payload["source"].replace(", True)", ")")
        payload["format"] = 4
        with open(path, "wb") as handle:
            handle.write(frame_blob(pickle.dumps(artifact)))

        request = {
            param.name: with_specials(rng, array)
            for param, array in app.inputs.items()
        }
        with np.errstate(all="ignore"):
            want = app.compile().run(request, backend="interpret")
            warm = conv1d.build("tensor", taps=8, rows=1)
            warm.backend = "compile"
            pipe = warm.compile(cache_dir=str(tmp_path))
            assert warm.report.artifact_cache == "miss"
            assert_same_bytes(pipe.run(request), want)

            unbumped = CompiledPipeline(
                app.compile().lowered, "compile", KernelCache()
            )
            unbumped.seed_kernel(
                deserialize_kernel(
                    {**payload, "format": KERNEL_FORMAT_VERSION, "macs": ()}
                )
            )
            assert_same_bytes(unbumped.run(request), want)
            assert unbumped.cache_stats["misses"] == 0


class TestSerialHoisting:
    """A serial block loop reads its read-only tiles and weight shuffles
    from stacks its preheader builds; every byte is what the per-tile
    loop makes, and where a stack cannot be built the loop runs as
    ever."""

    arrays = TestMacOperands.arrays
    F16 = TestMacOperands.F16

    @staticmethod
    def body():
        base = make_mul(Variable("x"), IntImm(TILE))
        return wmma_store(
            "out", base,
            wmma_mma(wmma_load("a", "A", base), wmma_load("b", "B", base)),
        )

    def test_read_only_tiles_are_stacked_once(self, rng):
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        with np.errstate(all="ignore"):
            kernel, interpreted, compiled = run_both(
                block_loop("x", 3, self.body(), ForKind.SERIAL), arrays
            )
        assert kernel.loops == (
            ("x", 3, "serial, hoisted: A tile stack, B tile stack"),
        )
        assert kernel.source.count(".stack(") == 2
        for name in arrays:
            assert_same_bytes(compiled[name], interpreted[name])

    def test_an_out_of_range_last_tile_raises_after_the_same_writes(
        self, rng
    ):
        """A holds two tiles, so the third iteration's load runs off its
        end: the stack is refused, the per-tile loop stores the first two
        tiles and raises the gather's IndexError at the third."""
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        arrays["A"] = (arrays["A"][0][: 2 * TILE], arrays["A"][1])

        def buffers():
            return {
                name: Buffer.from_numpy(name, array.copy(), dtype=dtype)
                for name, (array, dtype) in arrays.items()
            }

        kernel = compile_stmt(block_loop("x", 3, self.body(), ForKind.SERIAL))
        assert "hoisted" in kernel.loops[0][2]
        got, two = buffers(), buffers()
        with np.errstate(all="ignore"):
            with pytest.raises(IndexError, match="out of bounds"):
                kernel(got, {})
            Interpreter(two).run(
                block_loop("x", 2, self.body(), ForKind.SERIAL), {}
            )
        assert_same_bytes(got["out"].data, two["out"].data)
        assert not got["out"].data[2 * TILE:].any()

    def test_a_window_off_the_weights_raises_after_the_same_writes(
        self, rng
    ):
        """The third iteration's Toeplitz window runs off a 20-tap ``K``:
        the window stack shuffles each window alone, and the kernel
        stores the first two tiles and raises the interpreter's
        ShuffleError at the third."""
        x = Variable("x")
        base = make_mul(x, IntImm(TILE))
        shuffle = intrinsic(
            Float(16, TILE), "ConvolutionShuffle", StringImm("K"),
            make_mul(x, IntImm(8)), IntImm(16), IntImm(16), IntImm(8),
            IntImm(1),
        )
        body = Allocate(
            "hb_tmp0", Float(16), (IntImm(TILE),), MemoryType.STACK,
            Block((
                Store("hb_tmp0", ramp(IntImm(0), TILE), shuffle),
                wmma_store(
                    "out", base,
                    wmma_mma(
                        wmma_load("a", "A", base),
                        wmma_load("b", "hb_tmp0", IntImm(0)),
                    ),
                ),
            )),
        )
        stmt = block_loop("x", 3, body, ForKind.SERIAL)
        kernel = compile_stmt(stmt)
        assert kernel.loops == (
            ("x", 3, "serial, hoisted: A tile stack, K shuffle stack"),
        )
        a = rng.standard_normal(3 * TILE)

        def buffers():
            return {
                "A": Buffer.from_numpy("A", a.astype(np.float16), Float(16)),
                "K": Buffer.from_numpy(
                    "K", np.arange(20, dtype=np.float16), Float(16)
                ),
                "out": Buffer.from_numpy("out", np.zeros(3 * TILE, np.float32)),
            }

        compiled, interpreted = buffers(), buffers()
        with pytest.raises(ShuffleError, match="'K'"):
            kernel(compiled, {})
        with pytest.raises(ShuffleError, match="'K'"):
            Interpreter(interpreted).run(stmt, {})
        assert_same_bytes(compiled["out"].data, interpreted["out"].data)
        assert compiled["out"].data[: 2 * TILE].any()
        assert not compiled["out"].data[2 * TILE:].any()

    def test_a_stack_over_an_input_not_widened_exact(self, rng):
        """A float32 ``A`` is not float16-exact: its stack cuts and
        rounds each iteration's tile as the per-tile loop does, per
        request (B=1) and under the batch axis (B=3)."""
        arrays = self.arrays(rng, A=(np.float32, Float(32)), B=self.F16)
        stmt = block_loop("x", 3, self.body(), ForKind.SERIAL)
        assert compile_stmt(stmt).loops == (
            ("x", 3, "serial, hoisted: A tile stack, B tile stack"),
        )
        run_four_ways(self.body(), arrays, batch=3)

    @pytest.mark.parametrize(
        "label", sorted(MUST_TAKE_LANES) + sorted(SERIAL_APPS)
    )
    def test_each_hoisted_operand_is_one_expression(self, label):
        """No kernel of the benchmark catalog tests a stack for None."""
        app = build_app(label)
        pipe = app.compile()
        data = next(iter(app.inputs)).name
        kernels = [
            pipe.plan(backend="compile").kernel,
            compile_batched_stmt(
                pipe.lowered.stmt, {data, pipe.output_name}
            ),
        ]
        for kernel in kernels:
            assert not re.search(r"_h\d+ is (not )?None", kernel.source)

    def test_a_buffer_the_body_writes_is_not_stacked(self, rng):
        base = make_mul(Variable("x"), IntImm(TILE))
        body = Block((
            Store(
                "A", ramp(base, TILE), Load(Float(16, TILE), "B", ramp(base, TILE))
            ),
            self.body(),
        ))
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        with np.errstate(all="ignore"):
            kernel, interpreted, compiled = run_both(
                block_loop("x", 3, body, ForKind.SERIAL), arrays
            )
        assert kernel.loops == (("x", 3, "serial, hoisted: B tile stack"),)
        assert kernel.source.count(".stack(") == 1
        for name in arrays:
            assert_same_bytes(compiled[name], interpreted[name])

    def test_a_stacked_input_is_stacked_under_the_batch_axis(self, rng):
        """The batch kernel's stack is ``[iterations, B, rows, cols]``
        over the widened ``[B, size]`` input; each request's rows are
        its per-request bytes."""
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        run_four_ways(self.body(), arrays)  # batched ≡ per-request
        batched = compile_batched_stmt(
            block_loop("x", 3, self.body(), ForKind.SERIAL), frozenset(arrays)
        )
        assert batched.loops == (
            ("x", 3, "serial, hoisted: A tile stack, B tile stack"),
        )

    def test_a_symbolic_extent_keeps_the_per_tile_loop(self, rng):
        """A nest over an env extent is not hoisted; its read-only f16
        inputs are still widened once per call, and every byte is the
        interpreter's."""
        stmt = For("x", IntImm(0), Variable("n"), ForKind.SERIAL, self.body())
        arrays = self.arrays(rng, A=self.F16, B=self.F16)
        with np.errstate(all="ignore"):
            kernel, interpreted, compiled = run_both(stmt, arrays, {"n": 3})
        assert kernel.loops == (("x", "n", "serial, symbolic loop bounds"),)
        assert kernel.source.count(".widen(") == 2
        for name in arrays:
            assert_same_bytes(compiled[name], interpreted[name])

    def test_a_nest_with_nothing_to_hoist_has_one_row_per_loop(self):
        """Each loop of a serial nest is reported once: the outer loop by
        the nest's analysis, the inner loop by its own."""
        fill = intrinsic(
            Float(32, TILE), "wmma.fill.sync", IntImm(M), IntImm(N),
            const(0.5, Float(32)),
        )
        tile = make_add(make_mul(Variable("y"), IntImm(3)), Variable("x"))
        store = wmma_store("out", make_mul(tile, IntImm(TILE)), fill)
        stmt = block_loop(
            "y", 2, block_loop("x", 3, store, ForKind.SERIAL), ForKind.SERIAL
        )
        kernel, interpreted, compiled = run_both(
            stmt, {"out": f32_out(6 * TILE)}
        )
        assert kernel.loops == (
            ("y", 2, "serial, nothing to hoist"),
            ("x", 3, "serial, nothing to hoist"),
        )
        assert_same_bytes(compiled["out"], interpreted["out"])

    def test_weights_changed_between_calls_miss_the_shuffle_stack(self):
        """The Toeplitz stack is memoised on the weights' bytes: weights
        written in place between two calls of one plan are read anew."""
        app = conv1d.build("tensor", taps=32, rows=1)
        pipe = app.compile()
        plan = pipe.plan(backend="compile")
        assert any("K shuffle stack" in row[2] for row in plan.kernel.loops)
        inputs = dict(app.inputs)
        [weights] = [p for p in inputs if p.name == "K"]
        first = plan.run(inputs)
        inputs[weights][::3] *= -2
        second = plan.run(inputs)
        assert not np.array_equal(first, second)
        assert_same_bytes(second, pipe.run(inputs, backend="interpret"))

    def test_literal_broadcasts_are_read_only_constants(self):
        stmt = Store(
            "out", ramp(IntImm(0), 8),
            make_add(
                Load(Float(32, 8), "in", ramp(IntImm(0), 8)),
                make_broadcast(const(0.125, Float(32)), 8),
            ),
        )
        arrays = {
            "in": (np.arange(8, dtype=np.float32), Float(32)),
            "out": f32_out(8),
        }
        kernel, interpreted, compiled = run_both(stmt, arrays)
        assert "_bcast" not in kernel.source
        [constant] = [
            v for v in kernel.globals_map.values()
            if isinstance(v, np.ndarray) and v.dtype == np.float32
        ]
        assert_same_bytes(constant, np.full(8, 0.125, np.float32))
        with pytest.raises(ValueError, match="read-only"):
            constant[0] = 1.0
        assert_same_bytes(compiled["out"], interpreted["out"])
        # a restored kernel's constants are read-only too
        restored = deserialize_kernel(serialize_kernel(kernel))
        [constant] = [
            v for v in restored.globals_map.values()
            if isinstance(v, np.ndarray) and v.dtype == np.float32
        ]
        assert not constant.flags.writeable


# -- serial loops as array passes -----------------------------------------------
#
# A serial loop with no tensor intrinsic runs as one lane pass over its
# variable when it is a map, or a max / min / + reduce folded row by row
# in loop order; anything else stays a loop and its row says why.  A
# serial MAC nest that would gather or pack per iteration runs as
# stacked products.  The interpreter is the serial oracle, in raw bytes.

#: accumulator lanes (not a multiple of the SIMD width: NaN payloads in
#: the tail go through numpy's other loop) and iterations of a fold
LANES, DEPTH = 20, 37


def serial(name, extent, body, lo=0):
    return For(name, IntImm(lo), IntImm(extent), ForKind.SERIAL, body)


def f32_vector(name, index, lanes=LANES):
    return Load(Float(32, lanes), name, index)


def fold_nest(update, width=LANES):
    """``acc = init``; ``for x: acc = update(acc, inp[x + DEPTH * j])``;
    ``out = acc``, ``width`` lanes (one: scalars)."""
    x = Variable("x")
    lanes = ramp(IntImm(0), width) if width > 1 else IntImm(0)
    acc = f32_vector("acc", lanes, width)
    row = f32_vector("inp", ramp(x, width, DEPTH) if width > 1 else x, width)
    return Allocate(
        "acc", Float(32), (IntImm(width),), MemoryType.STACK,
        Block((
            Store("acc", lanes, f32_vector("init", lanes, width)),
            serial("x", DEPTH, Store("acc", lanes, update(acc, row))),
            Store("out", lanes, acc),
        )),
    )


def specials_f32(rng, size, payloads=True):
    """float32 data, a third of it the special patterns: NaNs of every
    payload and sign meet in every fold (without ``payloads``, every
    NaN is the one quiet NaN)."""
    pool = F32_SPECIALS.view(np.float32)
    if not payloads:
        pool = np.append(pool[~np.isnan(pool)], np.float32("nan"))
    data = rng.standard_normal(size).astype(np.float32)
    pick = rng.random(size) < 0.3
    data[pick] = rng.choice(pool, size=pick.sum())
    return data


class TestSerialFolds:
    def arrays(self, rng):
        return {
            "inp": (specials_f32(rng, LANES * DEPTH), Float(32)),
            "init": (specials_f32(rng, LANES), Float(32)),
            "out": f32_out(LANES),
        }

    @pytest.mark.parametrize("width", [LANES, 1], ids=["vector", "scalar"])
    @pytest.mark.parametrize(
        "update,op", [(make_max, "max"), (make_min, "min"), (make_add, "+")]
    )
    def test_a_reduce_folds_in_loop_order(self, update, op, width, rng):
        with np.errstate(all="ignore"):
            kernel, interpreted, compiled = run_both(
                fold_nest(update, width), self.arrays(rng)
            )
        assert kernel.loops == (("x", DEPTH, f"serial, reduce {op}"),)
        assert "_LANES):" in kernel.source
        for name in interpreted:
            assert_same_bytes(compiled[name], interpreted[name])

    @staticmethod
    def scaled_rows(kind, rng, payloads):
        x = Variable("x")
        rows = ramp(make_mul(x, IntImm(LANES)), LANES)
        scale = make_broadcast(Load(Float(32), "init", x), LANES)
        stmt = For("x", IntImm(0), IntImm(DEPTH), kind, Store(
            "out", rows, make_mul(f32_vector("inp", rows), scale)
        ))
        arrays = {
            "inp": (specials_f32(rng, LANES * DEPTH, payloads), Float(32)),
            "init": (specials_f32(rng, DEPTH, payloads), Float(32)),
            "out": f32_out(LANES * DEPTH),
        }
        with np.errstate(all="ignore"):
            kernel, interpreted, compiled = run_both(stmt, arrays)
        return kernel, compiled["out"], interpreted["out"]

    def test_a_map_is_one_pass(self, rng):
        kernel, got, want = self.scaled_rows(ForKind.SERIAL, rng, False)
        assert kernel.loops == (("x", DEPTH, "serial, map"),)
        assert "lanes-disjoint" in kernel.source
        assert_same_bytes(got, want)

    @pytest.mark.xfail(
        reason="numpy picks between two NaN operands by SIMD position: an"
        " element in the tail of a row's op can sit in the body of a lane"
        " pass's, so its NaN payload may differ — block loops alike"
    )
    @pytest.mark.parametrize("kind", [ForKind.SERIAL, ForKind.GPU_BLOCK])
    def test_a_pass_may_pick_another_nan_payload(self, kind, rng):
        kernel, got, want = self.scaled_rows(kind, rng, True)
        assert "_LANES):" in kernel.source
        assert_same_bytes(got, want)

    def stays_a_loop(self, stmt, arrays, reason):
        kernel, interpreted, compiled = run_both(stmt, arrays)
        assert [s for v, _, s in kernel.loops if v == "x"] == [f"serial, {reason}"]
        assert "_LANES" not in kernel.source
        for name in interpreted:
            assert_same_bytes(compiled[name], interpreted[name])

    def test_a_scan_stays_a_loop(self, rng):
        """recursive_filter's recurrence: each iteration reads what the
        one before wrote."""
        x = Variable("x")
        before = Load(Float(32), "out", make_sub(x, IntImm(1)))
        stmt = serial("x", DEPTH - 1, Store(
            "out", x,
            make_add(make_mul(before, const(0.5, Float(32))), Load(Float(32), "inp", x)),
        ), lo=1)
        arrays = {
            "inp": (rng.standard_normal(DEPTH).astype(np.float32), Float(32)),
            "out": f32_out(DEPTH),
        }
        self.stays_a_loop(stmt, arrays, "body loads 'out', which another lane stores")

    def test_an_accumulator_that_follows_the_loop_stays_a_loop(self, rng):
        x = Variable("x")
        at = make_mod(x, IntImm(4))
        update = make_add(Load(Float(32), "acc", at), Load(Float(32), "inp", x))
        stmt = Allocate(
            "acc", Float(32), (IntImm(4),), MemoryType.STACK,
            Block((
                Store("acc", ramp(IntImm(0), 4), f32_vector("init", ramp(IntImm(0), 4), 4)),
                serial("x", DEPTH, Store("acc", at, update)),
                Store("out", ramp(IntImm(0), 4), f32_vector("acc", ramp(IntImm(0), 4), 4)),
            )),
        )
        arrays = {
            "inp": (rng.standard_normal(DEPTH).astype(np.float32), Float(32)),
            "init": (rng.standard_normal(4).astype(np.float32), Float(32)),
            "out": f32_out(4),
        }
        self.stays_a_loop(stmt, arrays, "accumulator address follows the loop")

    def test_a_subtracting_update_stays_a_loop(self, rng):
        with np.errstate(all="ignore"):
            self.stays_a_loop(
                fold_nest(make_sub), self.arrays(rng), "an update by Sub is not a fold"
            )


def out_of_range(app, data):
    """``app``'s tensorized statement and its buffers with input ``data``
    two outer rows short: the last tiles its MAC nest reads run off."""
    from repro.hardboiled import select_instructions
    from repro.runtime.plan import bind_inputs, stride_env

    lowered = select_instructions(lower(app.output), strict=True)[0]
    inputs = {k: (v[:-2] if k.name == data else v) for k, v in app.inputs.items()}
    buffers, _ = bind_inputs(inputs)
    extents = lowered.realizations[app.output.name].extents
    buffers[app.output.name] = Buffer(
        app.output.name, app.output.dtype.element_of(),
        tuple(e.value for e in extents), is_external=True,
    )
    return lowered.stmt, buffers, stride_env(buffers)


class TestStackedProducts:
    """An out-of-range last tile: the stacked nest raises the
    interpreter's error type before the fold, and leaves every external
    buffer as the per-tile loop does when it raises (the gather's
    IndexError) at that tile."""

    @pytest.mark.parametrize(
        "label,data,batch",
        [("int8_conv_layer", "Iq", 1), ("int8_conv_layer", "Iq", 3),
         ("int8_conv_layer", "Iq", 32), ("conv2d", "I2", 1)],
    )
    def test_an_out_of_range_last_tile(self, label, data, batch, monkeypatch):
        from benchmarks.perf.catalog import WORKLOADS
        from repro.runtime.codegen import _Emitter

        [program] = [p for p in WORKLOADS["apps"].programs if p.name == label]
        stmt, buffers, env = out_of_range(program.job.build_app(), data)
        error = DP4AError if label.startswith("int8") else wmma.WMMAError
        with pytest.raises(error, match="out of bounds"):
            Interpreter(dict(buffers)).run(stmt, dict(env))
        out = list(buffers)[-1]  # the output, bound last

        def run(kernel):
            fresh = {}
            for name, buf in buffers.items():
                array = buf.data
                if batch > 1 and name in (data, out):
                    fresh[name] = StackedBuffer(
                        name, buf.dtype, buf.extents, is_external=True,
                        batch=batch, data=np.stack([array] * batch),
                    )
                else:
                    fresh[name] = Buffer(
                        name, buf.dtype, buf.extents, is_external=True,
                        data=array.copy(),
                    )
            with pytest.raises(Exception) as raised:
                kernel(fresh, {**env, "batch.size": batch})
            return raised.type, {n: b.data for n, b in fresh.items()}

        def compile_():
            if batch == 1:
                return compile_stmt(stmt)
            return compile_batched_stmt(stmt, {data, out})

        kernel = compile_()
        assert any(s == "serial, stacked product" for *_, s in kernel.loops)
        got, after = run(kernel)
        monkeypatch.setattr(_Emitter, "_STRATEGIES", tuple(
            s for s in _Emitter._STRATEGIES if s != "_try_stacked"
        ))
        loop = compile_()
        assert not any(s == "serial, stacked product" for *_, s in loop.loops)
        raised, left = run(loop)
        assert (got, raised) == (error, IndexError)
        for name in buffers:  # the kernels' own allocations left aside
            assert_same_bytes(after[name], left[name])


class TestTwoLevelRamps:
    """A load or store at ``ramp(ramp(base, 1, cols), x cols(stride),
    rows)`` goes through a strided tile view where it is in range (and,
    for a store, its rows are apart), else the index gather / scatter:
    either way every byte is the interpreter's."""

    ROWS, COLS = 4, 8

    def index(self, base, stride):
        inner = Ramp(base, IntImm(1), self.COLS)
        return Ramp(inner, make_broadcast(stride, self.COLS), self.ROWS)

    def stmt(self, stride):
        lanes = Float(32, self.ROWS * self.COLS)
        at = self.index(Variable("b"), IntImm(stride))
        return Store("out", at, Load(lanes, "in", at))

    @pytest.mark.parametrize(
        "stride", [8, 12, 5, 0], ids=["dense", "gaps", "overlap", "repeat"]
    )
    def test_in_range(self, stride):
        arrays = {
            "in": (np.arange(64, dtype=np.float32), Float(32)),
            "out": f32_out(64),
        }
        kernel, interpreted, compiled = run_both(
            self.stmt(stride), arrays, {"b": 3}
        )
        assert "_gather(" in kernel.source and "_scatter(" in kernel.source
        assert "_idx(" not in kernel.source
        assert_same_bytes(compiled["out"], interpreted["out"])

    def test_out_of_range_falls_back_to_the_gather(self):
        """The last rows run off ``in``: no view, and the index gather
        raises numpy's IndexError (the interpreter its EvalError) before
        anything is stored."""
        data = np.arange(64, dtype=np.float32)

        def buffers():
            return {
                "in": Buffer.from_numpy("in", data.copy(), Float(32)),
                "out": Buffer.from_numpy("out", np.zeros(64, np.float32)),
            }

        compiled, interpreted = buffers(), buffers()
        with pytest.raises(IndexError, match="out of bounds"):
            compile_stmt(self.stmt(12))(compiled, {"b": 40})
        with pytest.raises(EvalError, match="out of bounds"):
            Interpreter(interpreted).run(self.stmt(12), {"b": 40})
        assert not compiled["out"].data.any()
        assert not interpreted["out"].data.any()


def test_bfloat16_cast_of_a_loaded_view_is_a_snapshot():
    """``round_to_bfloat16`` hands exact input back without a copy; the
    kernel's cast must not, or a ``let`` over a slice of ``buf`` would
    see what a later store puts there."""
    lanes = ramp(IntImm(0), 4)
    stmt = LetStmt(
        "v",
        Cast(BFloat(16, 4), Load(BFloat(16, 4), "buf", lanes)),
        Block((
            Store("buf", lanes, make_broadcast(const(9.0, BFloat(16)), 4)),
            Store("out", lanes, Variable("v", BFloat(16, 4))),
        )),
    )
    exact = np.arange(4, dtype=np.float32)
    _, interpreted, compiled = run_both(
        stmt,
        {
            "buf": (exact, BFloat(16)),
            "out": (np.zeros(4, np.float32), BFloat(16)),
        },
    )
    np.testing.assert_array_equal(interpreted["out"], exact)
    np.testing.assert_array_equal(compiled["out"], exact)


def test_let_over_an_uncast_loaded_view_is_rejected_by_verify_ir():
    """The same program without the cast: the compiled ``let`` would
    hold a view and read the 9s the body stores, so the emitter
    snapshots a let's view whenever the body writes its buffer — the
    interpreter's value.  No lowering emits the shape, and ``verify_ir``
    still rejects it."""
    from repro.analysis import verify_ir

    lanes = ramp(IntImm(0), 4)
    stmt = LetStmt(
        "v",
        Load(BFloat(16, 4), "buf", lanes),
        Block((
            Store("buf", lanes, make_broadcast(const(9.0, BFloat(16)), 4)),
            Store("out", lanes, Variable("v", BFloat(16, 4))),
        )),
    )
    exact = np.arange(4, dtype=np.float32)
    _, interpreted, compiled = run_both(
        stmt,
        {
            "buf": (exact, BFloat(16)),
            "out": (np.zeros(4, np.float32), BFloat(16)),
        },
    )
    np.testing.assert_array_equal(interpreted["out"], exact)
    np.testing.assert_array_equal(compiled["out"], exact)
    # a let whose body leaves the buffer alone keeps the zero-copy view
    reader = LetStmt(
        "v", stmt.value, Store("out", lanes, Variable("v", BFloat(16, 4)))
    )
    assert "np.array(" not in compile_stmt(reader).source
    (finding,) = [
        f for f in verify_ir(stmt) if f.check == "ir.let-aliases-store"
    ]
    assert finding.severity == "error"
    # a let over the cast load (a snapshot) or a scalar load is fine
    for value in (
        Cast(BFloat(16, 4), stmt.value),
        Load(BFloat(16), "buf", IntImm(0)),
    ):
        clean = LetStmt("v", value, stmt.body)
        assert "ir.let-aliases-store" not in {
            f.check for f in verify_ir(clean)
        }
