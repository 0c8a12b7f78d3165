"""Tests for the IR interpreter, buffers, and counters."""

import re

import numpy as np
import pytest

from repro.ir import (
    Allocate,
    Block,
    Broadcast,
    Cast,
    FloatImm,
    Float,
    For,
    ForKind,
    IfThenElse,
    IntImm,
    Int,
    BFloat,
    LetStmt,
    Load,
    MemoryType,
    Ramp,
    Store,
    Variable,
    VectorReduce,
    make_mul,
)
from repro.runtime import Buffer, Counters, Interpreter
from repro.runtime.interpreter import EvalError


def make_interp(**buffers):
    return Interpreter(buffers)


class TestBuffer:
    def test_from_numpy_innermost_first(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = Buffer.from_numpy("A", arr)
        # numpy's last axis (len 4) becomes dimension 0
        assert buf.extents == (4, 3)
        assert buf.strides == (1, 4)
        np.testing.assert_array_equal(buf.to_numpy(), arr)

    def test_flatten_index(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = Buffer.from_numpy("A", arr)
        # A(x, y) with x innermost == arr[y, x]
        assert buf.data[buf.flatten_index((2, 1))] == arr[1, 2]

    def test_bfloat_rounding_on_store(self):
        buf = Buffer("b", BFloat(16), (4,))
        buf.scatter(np.array([0]), np.array([1.00001], dtype=np.float32))
        # 1.00001 is not representable in bf16; the stored value is rounded
        assert buf.data[0] == np.float32(1.0)

    def test_footprint_tracking(self):
        buf = Buffer("b", Float(32), (8,))
        buf.gather(np.array([0, 1, 1, 2]))
        assert buf.load_footprint_bytes() == 3 * 4


class TestExprEval:
    def test_ramp_scalar(self):
        interp = make_interp()
        e = Ramp(IntImm(3), IntImm(2), 4)
        np.testing.assert_array_equal(
            interp.eval_expr(e, {}), [3, 5, 7, 9]
        )

    def test_nested_ramp_concatenates(self):
        interp = make_interp()
        inner = Ramp(IntImm(0), IntImm(1), 3)
        outer = Ramp(inner, Broadcast(IntImm(10), 3), 2)
        np.testing.assert_array_equal(
            interp.eval_expr(outer, {}), [0, 1, 2, 10, 11, 12]
        )

    def test_broadcast_of_vector_concatenates(self):
        interp = make_interp()
        e = Broadcast(Ramp(IntImm(0), IntImm(1), 3), 2)
        np.testing.assert_array_equal(
            interp.eval_expr(e, {}), [0, 1, 2, 0, 1, 2]
        )

    def test_vector_reduce_adjacent_groups(self):
        interp = make_interp()
        v = Cast(Float(32, 6), Ramp(IntImm(1), IntImm(1), 6))
        vr = VectorReduce("add", v, 2)
        np.testing.assert_array_equal(interp.eval_expr(vr, {}), [6.0, 15.0])

    def test_variable_env(self):
        interp = make_interp()
        assert interp.eval_expr(Variable("i", Int(32)), {"i": 7}) == 7

    def test_unbound_variable_raises(self):
        interp = make_interp()
        with pytest.raises(Exception, match="unbound"):
            interp.eval_expr(Variable("i", Int(32)), {})

    def test_load_gather(self):
        buf = Buffer.from_numpy("A", np.array([10, 20, 30, 40], np.float32))
        interp = make_interp(A=buf)
        e = Load(Float(32, 2), "A", Ramp(IntImm(1), IntImm(2), 2))
        np.testing.assert_array_equal(interp.eval_expr(e, {}), [20, 40])

    def test_load_out_of_bounds(self):
        buf = Buffer.from_numpy("A", np.zeros(4, np.float32))
        interp = make_interp(A=buf)
        e = Load(Float(32, 2), "A", Ramp(IntImm(3), IntImm(2), 2))
        with pytest.raises(Exception, match="out of bounds"):
            interp.eval_expr(e, {})

    def test_int_div_floor(self):
        interp = make_interp()
        e = Variable("a", Int(32)) / Variable("b", Int(32))
        assert interp.eval_expr(e, {"a": -7, "b": 2}) == -4

    def test_cast_to_bfloat_rounds(self):
        interp = make_interp()
        e = Cast(BFloat(16), Variable("v", Float(32)))
        out = interp.eval_expr(e, {"v": np.float32(1.00001)})
        assert out == np.float32(1.0)


class TestBoundsParity:
    """A plain load or store is checked by its lowest and highest index:
    the same error type and ``[lo, hi]`` text as a check of every lane
    (scalar and vector index, below and past the buffer)."""

    @staticmethod
    def interp():
        return make_interp(A=Buffer.from_numpy("A", np.zeros(8, np.float32)))

    @pytest.mark.parametrize(
        "index,span",
        [
            (Ramp(IntImm(6), IntImm(1), 4), "[6, 9]"),
            (Ramp(IntImm(-1), IntImm(2), 4), "[-1, 5]"),
            (Ramp(IntImm(9), IntImm(-3), 4), "[0, 9]"),
            (IntImm(8), "[8, 8]"),
            (IntImm(-1), "[-1, -1]"),
        ],
    )
    def test_out_of_range(self, index, span):
        lanes = index.type.lanes
        text = f"out of bounds on 'A': index range {span}, size 8"
        load = Load(Float(32, lanes), "A", index)
        with pytest.raises(EvalError, match=re.escape(f"load {text}")):
            self.interp().eval_expr(load, {})
        store = Store("A", index, Broadcast(FloatImm(1.0), lanes)
                      if lanes > 1 else FloatImm(1.0))
        interp = self.interp()
        with pytest.raises(EvalError, match=re.escape(f"store {text}")):
            interp.run(store)
        assert not interp.buffers["A"].data.any()

    @pytest.mark.parametrize(
        "index",
        [Ramp(IntImm(4), IntImm(1), 4), Ramp(IntImm(7), IntImm(-1), 8)],
    )
    def test_last_in_range(self, index):
        interp = self.interp()
        lanes = index.type.lanes
        interp.run(Store("A", index, Broadcast(FloatImm(2.0), lanes)))
        load = Load(Float(32, lanes), "A", index)
        np.testing.assert_array_equal(interp.eval_expr(load, {}), 2.0)


class TestStmtExec:
    def test_store_and_loop(self):
        out = Buffer("out", Float(32), (8,))
        interp = make_interp(out=out)
        i = Variable("i", Int(32))
        body = Store("out", i, Cast(Float(32), i * 2))
        loop = For("i", IntImm(0), IntImm(8), ForKind.SERIAL, body)
        interp.run(loop)
        np.testing.assert_array_equal(
            out.data, np.arange(8, dtype=np.float32) * 2
        )

    def test_vector_store(self):
        out = Buffer("out", Float(32), (8,))
        interp = make_interp(out=out)
        st = Store(
            "out",
            Ramp(IntImm(0), IntImm(1), 8),
            Broadcast(FloatImm(3.0), 8),
        )
        interp.run(st)
        np.testing.assert_array_equal(out.data, np.full(8, 3.0, np.float32))

    def test_allocate_scoping(self):
        out = Buffer("out", Float(32), (1,))
        interp = make_interp(out=out)
        body = Block.make(
            [
                Store("tmp", IntImm(0), FloatImm(5.0)),
                Store("out", IntImm(0), Load(Float(32), "tmp", IntImm(0))),
            ]
        )
        alloc = Allocate("tmp", Float(32), (IntImm(4),), MemoryType.STACK, body)
        interp.run(alloc)
        assert out.data[0] == 5.0
        assert "tmp" not in interp.buffers

    def test_let_stmt(self):
        out = Buffer("out", Int(32), (1,))
        interp = make_interp(out=out)
        s = LetStmt("t", IntImm(3) + IntImm(4), Store("out", IntImm(0), Variable("t", Int(32))))
        interp.run(s)
        assert out.data[0] == 7

    def test_if_then_else(self):
        out = Buffer("out", Int(32), (2,))
        interp = make_interp(out=out)
        i = Variable("i", Int(32))
        body = IfThenElse(
            i < 1,
            Store("out", i, IntImm(100)),
            Store("out", i, IntImm(200)),
        )
        interp.run(For("i", IntImm(0), IntImm(2), ForKind.SERIAL, body))
        np.testing.assert_array_equal(out.data, [100, 200])

    def test_gpu_lane_loop_runs_once(self):
        out = Buffer("out", Int(32), (1,))
        interp = make_interp(out=out)
        acc = Store(
            "out",
            IntImm(0),
            Load(Int(32), "out", IntImm(0)) + IntImm(1),
        )
        interp.run(For("lane", IntImm(0), IntImm(32), ForKind.GPU_LANE, acc))
        assert out.data[0] == 1  # warp-collective: body executes once


class TestCounters:
    def test_flop_counting(self):
        interp = make_interp()
        a = Broadcast(Variable("v", Float(32)), 16)
        env = {"v": 2.0}
        interp.eval_expr(make_mul(a, a), env)
        assert interp.counters.scalar_flops == 16

    def test_vector_reduce_counts_adds(self):
        interp = make_interp()
        v = Broadcast(FloatImm(1.0), 64)
        interp.eval_expr(VectorReduce("add", v, 8), {})
        assert interp.counters.scalar_flops == 64 - 8

    def test_load_bytes_by_level(self):
        from repro.ir import MemoryType

        dram = Buffer.from_numpy("A", np.zeros(16, np.float32))
        local = Buffer(
            "tmp", Float(32), (16,), memory_type=MemoryType.STACK
        )
        interp = make_interp(A=dram, tmp=local)
        idx = Ramp(IntImm(0), IntImm(1), 8)
        interp.eval_expr(Load(Float(32, 8), "A", idx), {})
        interp.eval_expr(Load(Float(32, 8), "tmp", idx), {})
        assert interp.counters.load_bytes["dram"] == 32
        assert interp.counters.load_bytes["l1"] == 32

    def test_int_ops_not_counted_as_flops(self):
        interp = make_interp()
        e = Variable("i", Int(32)) + IntImm(1)
        interp.eval_expr(e, {"i": 3})
        assert interp.counters.scalar_flops == 0
        assert interp.counters.int_ops == 1

    def test_counters_scaled(self):
        c = Counters(scalar_flops=10, tensor_macs=4)
        c.add_load("dram", 100)
        s = c.scaled(2.5)
        assert s.scalar_flops == 25
        assert s.tensor_macs == 10
        assert s.load_bytes["dram"] == 250


class TestCountersScaledRounding:
    """Regression: ``Counters.scaled`` truncated every entry with
    ``int(v * factor)``, systematically under-reporting extrapolated
    work whenever the scale factor is fractional."""

    def test_fractional_factor_rounds_to_nearest(self):
        c = Counters(scalar_flops=333, tensor_macs=1, int8_macs=3)
        c.add_load("dram", 333)
        c.add_store("l1", 1)
        c.intrinsic_calls["dp4a_matmul"] = 3
        s = c.scaled(1.2)
        assert s.scalar_flops == 400  # int() would truncate to 399
        assert s.tensor_macs == 1
        assert s.int8_macs == 4  # 3.6 rounds up; int() gave 3
        assert s.load_bytes["dram"] == 400
        assert s.store_bytes["l1"] == 1
        assert s.intrinsic_calls["dp4a_matmul"] == 4

    def test_no_systematic_downward_bias(self):
        c = Counters(scalar_flops=5)
        # truncation loses a whole unit at factor 2.7 (13.5 -> 13);
        # rounding keeps the extrapolation within half a unit
        assert abs(c.scaled(2.7).scalar_flops - 13.5) <= 0.5


class TestOutputStridePublication:
    """Regression: ``CompiledPipeline.run`` published ``{name}.stride.{d}``
    env entries only for *input* buffers, so a kernel addressing the
    output through its strides hit an unbound variable / KeyError."""

    def _stride_pipeline(self):
        from repro import frontend as hl
        from repro.ir import Broadcast, Cast, Float, Mul, Ramp
        from repro.ir.stmt import For, ForKind, MemoryType
        from repro.lowering.build import RealizationInfo
        from repro.lowering.pipeline import Lowered

        f = hl.Func("strout")
        x, y = hl.Var("x"), hl.Var("y")
        f[x, y] = 0.0
        info = RealizationInfo(
            func=f,
            mins=[IntImm(0), IntImm(0)],
            extents=[IntImm(4), IntImm(3)],
            storage_perm=[0, 1],
            memory_type=MemoryType.HEAP,
            is_output=True,
        )
        # store row y of the output through its published stride
        stmt = For(
            "y",
            IntImm(0),
            IntImm(3),
            ForKind.SERIAL,
            Store(
                "strout",
                Ramp(
                    Mul(Variable("y"), Variable("strout.stride.1")),
                    IntImm(1),
                    4,
                ),
                Broadcast(Cast(Float(32), Variable("y")), 4),
            ),
        )
        return Lowered(
            stmt=stmt,
            realizations={"strout": info},
            output=f,
            atomic_vars=set(),
        )

    @pytest.mark.parametrize("backend", ["interpret", "compile"])
    def test_kernel_may_address_output_via_stride(self, backend):
        from repro.runtime.executor import CompiledPipeline

        pipe = CompiledPipeline(self._stride_pipeline(), backend=backend)
        out = pipe.run({})
        expected = np.repeat(
            np.arange(3, dtype=np.float32), 4
        ).reshape(3, 4)
        np.testing.assert_array_equal(out, expected)
