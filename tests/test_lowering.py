"""End-to-end lowering tests: loop building, bounds, vectorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import frontend as hl
from repro.ir import (
    Allocate,
    Broadcast,
    IntImm,
    Ramp,
    Variable,
    VectorReduce,
    collect_stores,
    contains,
    print_stmt,
)
from repro.lowering import lower
from repro.lowering.bounds import Interval, interval_of, simplify_affine
from repro.lowering.vectorize import block_repeat
from repro.runtime import Counters, Interpreter
from repro.runtime.executor import realize
from repro.targets.bfloat16 import round_to_bfloat16


class TestBounds:
    def scope(self):
        return {"i": Interval(IntImm(0), IntImm(7))}

    def test_var_in_scope(self):
        iv = interval_of(Variable("i"), self.scope())
        assert iv.lo == IntImm(0)
        assert iv.hi == IntImm(7)

    def test_affine(self):
        e = Variable("i") * 4 + 3
        iv = interval_of(e, self.scope())
        assert iv.lo == IntImm(3)
        assert iv.hi == IntImm(31)

    def test_negative_scale_flips(self):
        e = Variable("i") * -2
        iv = interval_of(e, self.scope())
        assert iv.lo == IntImm(-14)
        assert iv.hi == IntImm(0)

    def test_symbolic_outer_var_is_point(self):
        e = Variable("outer") * 256 + Variable("i")
        iv = interval_of(e, self.scope())
        assert simplify_affine(iv.extent()) == IntImm(8)

    def test_simplify_affine_cancels(self):
        x = Variable("x")
        e = (x * 256 + 255) - (x * 256) + 1
        assert simplify_affine(e) == IntImm(256)

    def test_mod_interval(self):
        e = Variable("i") % 4
        iv = interval_of(e, self.scope())
        assert iv.lo == IntImm(0)
        assert iv.hi == IntImm(3)


class TestBlockRepeat:
    def eval(self, e):
        return Interpreter({}).eval_vector(e, {})

    def check_semantics(self, e, block, times):
        before = self.eval(e)
        after = self.eval(block_repeat(e, block, times))
        expected = np.concatenate(
            [
                np.tile(before[g * block : (g + 1) * block], times)
                for g in range(len(before) // block)
            ]
        )
        np.testing.assert_array_equal(after, expected)

    def test_scalar(self):
        out = block_repeat(IntImm(7), 1, 4)
        np.testing.assert_array_equal(self.eval(out), [7, 7, 7, 7])

    def test_whole_vector(self):
        e = Ramp(IntImm(0), IntImm(1), 4)
        self.check_semantics(e, 4, 3)

    def test_ramp_stretch(self):
        e = Ramp(IntImm(0), IntImm(10), 4)
        self.check_semantics(e, 1, 3)

    def test_nested(self):
        e = Ramp(Broadcast(IntImm(5), 2), Broadcast(IntImm(1), 2), 3)
        self.check_semantics(e, 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(-5, 5),
        stride=st.integers(-3, 3),
        count=st.sampled_from([2, 4, 8]),
        times=st.sampled_from([2, 3, 4]),
        block_choice=st.sampled_from(["one", "all"]),
    )
    def test_property_ramp_block_repeat(
        self, base, stride, count, times, block_choice
    ):
        e = Ramp(IntImm(base), IntImm(stride), count)
        block = 1 if block_choice == "one" else count
        self.check_semantics(e, block, times)


class TestLowerSimple:
    def test_pointwise(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inA")
        x = hl.Var("x")
        f = hl.Func("f_pw")
        f[x] = inp[x] * 2.0 + 1.0
        f.bound(x, 0, 16)
        arr = np.arange(16, dtype=np.float32)
        out = realize(f, {inp: arr})
        np.testing.assert_allclose(out, arr * 2 + 1)

    def test_2d_transpose_like(self):
        inp = hl.ImageParam(hl.Float(32), 2, name="inB")
        x, y = hl.Var("x"), hl.Var("y")
        f = hl.Func("f_tr")
        f[x, y] = inp[y, x]
        f.bound(x, 0, 4).bound(y, 0, 3)
        arr = np.arange(12, dtype=np.float32).reshape(4, 3)  # [x, y] numpy
        out = realize(f, {inp: arr})
        np.testing.assert_array_equal(out, arr.T)

    def test_inline_producer(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inC")
        x = hl.Var("x")
        g = hl.Func("g_in")
        f = hl.Func("f_in")
        g[x] = inp[x] + 1.0
        f[x] = g[x] * g[x]
        f.bound(x, 0, 8)
        arr = np.arange(8, dtype=np.float32)
        out = realize(f, {inp: arr})
        np.testing.assert_allclose(out, (arr + 1) ** 2)
        # g is inlined: no allocation appears
        lo = lower(f)
        assert not contains(lo.stmt, lambda n: isinstance(n, Allocate))

    def test_compute_root_producer(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inD")
        x = hl.Var("x")
        g = hl.Func("g_cr")
        f = hl.Func("f_cr")
        g[x] = inp[x] + 1.0
        g.compute_root()
        f[x] = g[x] + g[x + 1]
        f.bound(x, 0, 8)
        lo = lower(f)
        # g materialized over [0, 9) — 9 elements
        info = lo.realizations["g_cr"]
        from repro.ir import as_int

        assert as_int(info.extents[0]) == 9
        arr = np.arange(16, dtype=np.float32)
        out = realize(f, {inp: arr})
        np.testing.assert_allclose(out, (arr[:8] + 1) + (arr[1:9] + 1))

    def test_compute_at_tile(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inE")
        x, xi = hl.Var("x"), hl.Var("xi")
        g = hl.Func("g_ca")
        f = hl.Func("f_ca")
        g[x] = inp[x] * 3.0
        f[x] = g[x]
        f.bound(x, 0, 32).split(x, x, xi, 8)
        g.compute_at(f, x)
        lo = lower(f)
        info = lo.realizations["g_ca"]
        from repro.ir import as_int

        assert as_int(info.extents[0]) == 8  # one tile
        arr = np.arange(32, dtype=np.float32)
        out = realize(f, {inp: arr})
        np.testing.assert_allclose(out, arr * 3)

    def test_reduction(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inF")
        x = hl.Var("x")
        r = hl.RDom(0, 8, name="r_red")
        g = hl.Func("g_red")
        g[x] = 0.0
        g[x] += inp[x + r]
        g.bound(x, 0, 8)
        arr = np.arange(16, dtype=np.float32)
        out = realize(g, {inp: arr})
        ref = np.array([arr[i : i + 8].sum() for i in range(8)])
        np.testing.assert_allclose(out, ref)

    def test_split_non_divisible_rejected(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inG")
        x, xi = hl.Var("x"), hl.Var("xi")
        f = hl.Func("f_nd")
        f[x] = inp[x]
        f.bound(x, 0, 10).split(x, x, xi, 4)
        with pytest.raises(Exception, match="divisible"):
            lower(f)

    def test_missing_bound_rejected(self):
        x = hl.Var("x")
        f = hl.Func("f_nb")
        f[x] = 1.0
        with pytest.raises(Exception, match="bound"):
            lower(f)


class TestVectorizedLowering:
    def test_vectorized_equals_serial(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inH")
        x = hl.Var("x")
        arr = np.arange(64, dtype=np.float32)

        def build(vectorized):
            f = hl.Func(f"f_vs{vectorized}")
            f[x] = inp[x] * 2.0 + inp[x + 1]
            f.bound(x, 0, 32)
            if vectorized:
                f.vectorize(x, 8)
            return realize(f, {inp: arr})

        np.testing.assert_allclose(build(True), build(False))

    def test_nested_vectorization_equals_serial(self):
        inp = hl.ImageParam(hl.Float(32), 2, name="inI")
        x, y = hl.Var("x"), hl.Var("y")
        arr = np.arange(64, dtype=np.float32).reshape(8, 8)

        def build(vectorized):
            f = hl.Func(f"f_nv{vectorized}")
            f[x, y] = inp[x, y] * 2.0 + inp[y, x]
            f.bound(x, 0, 8).bound(y, 0, 8)
            if vectorized:
                f.vectorize(x, 8).vectorize(y, 8)
            return realize(f, {inp: arr})

        np.testing.assert_allclose(build(True), build(False))

    def test_atomic_required_for_reduction_vectorize(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inJ")
        x = hl.Var("x")
        r = hl.RDom(0, 8, name="r_na")
        f = hl.Func("f_na")
        f[x] = 0.0
        f[x] += inp[x + r]
        f.bound(x, 0, 8)
        f.update().vectorize(r, 8)
        with pytest.raises(Exception, match="atomic"):
            lower(f)

    def test_atomic_reduction_produces_vector_reduce(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inK")
        x = hl.Var("x")
        r = hl.RDom(0, 8, name="r_vr")
        f = hl.Func("f_vr")
        f[x] = 0.0
        f[x] += inp[x + r]
        f.bound(x, 0, 8)
        f.update().atomic().vectorize(r, 8)
        lo = lower(f)
        assert contains(lo.stmt, lambda n: isinstance(n, VectorReduce))
        arr = np.arange(16, dtype=np.float32)
        out = realize(f, {inp: arr})
        ref = np.array([arr[i : i + 8].sum() for i in range(8)])
        np.testing.assert_allclose(out, ref)


class TestMatmulLowering:
    """The paper's §III MatMul: shapes must match Fig. 3's structure."""

    def build(self):
        A = hl.ImageParam(hl.BFloat(16), 2, name="A_mm")
        B = hl.ImageParam(hl.BFloat(16), 2, name="B_mm")
        x, y = hl.Var("x"), hl.Var("y")
        r = hl.RDom(0, 32, name="r_mm")
        mm = hl.Func("mm_t")
        mm[y, x] = 0.0
        mm[y, x] += hl.f32(A[r, x]) * hl.f32(B[y, r])
        mm.bound(x, 0, 16).bound(y, 0, 16)
        mm.vectorize(y, 16).vectorize(x, 16)
        mm.update().atomic().vectorize(r, 32).vectorize(y, 16).vectorize(
            x, 16
        )
        return mm, A, B

    def test_correctness(self):
        mm, A, B = self.build()
        rng = np.random.default_rng(0)
        a = round_to_bfloat16(rng.standard_normal((16, 32)).astype(np.float32))
        b = round_to_bfloat16(rng.standard_normal((32, 16)).astype(np.float32))
        out = realize(mm, {A: a, B: b})
        ref = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-2, atol=1e-2)

    def test_ir_structure(self):
        mm, A, B = self.build()
        lo = lower(mm)
        text = print_stmt(lo.stmt)
        # dense store over the 16x16 tile
        assert "mm_t[ramp(0, 1, 256)]" in text
        # the reduction collapses 8192 lanes to 256
        assert "vector_reduce_add" in text
        # B's load is obscured into a broadcast-of-load (paper §III-B)
        assert "x16(cast<float32x512>(B_mm[" in text
        stores = collect_stores(lo.stmt)
        assert len(stores) == 2  # init + update

    def test_counters_flops(self):
        mm, A, B = self.build()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 32)).astype(np.float32)
        b = rng.standard_normal((32, 16)).astype(np.float32)
        counters = Counters()
        realize(mm, {A: a, B: b}, counters=counters)
        # 16*16*32 MACs = 8192 mults + 8192-ish adds on general lanes
        assert counters.scalar_flops >= 2 * 16 * 16 * 32 - 256
        assert counters.tensor_macs == 0
