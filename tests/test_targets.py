"""Tests for the AMX/WMMA simulators and shuffle intrinsics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Call, Float, IntImm, Load, Ramp, StringImm
from repro.runtime import Buffer, Interpreter
from repro.targets.amx import (
    AMXError,
    check_tile_shape,
    tdpbf16ps,
    vnni_pack,
    vnni_unpack,
)
from repro.targets.bfloat16 import is_bfloat16_exact, round_to_bfloat16
from repro.targets.device import A100, DEVICES, RTX4070S
from repro.targets.wmma import WMMAError, check_shape, mma_sync
from repro.hardboiled.intrinsics import (
    ShuffleError,
    kway_interleave,
    toeplitz_from_kernel,
)

# intrinsic registration happens on executor import
import repro.runtime.executor  # noqa: F401


def call(name, *args):
    return Call(Float(32), name, tuple(args))


class TestBFloat16:
    def test_round_exact_values(self):
        exact = np.array([0.0, 1.0, -2.5, 256.0], dtype=np.float32)
        np.testing.assert_array_equal(round_to_bfloat16(exact), exact)
        assert is_bfloat16_exact(exact).all()

    def test_round_to_nearest_even(self):
        # 1 + 2^-9 is exactly halfway between 1.0 and the next bf16;
        # round-to-even goes down to 1.0
        halfway = np.float32(1.0 + 2.0**-9)
        assert round_to_bfloat16(np.array([halfway]))[0] == np.float32(1.0)

    def test_rounding_error_bounded(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(1000).astype(np.float32)
        rounded = round_to_bfloat16(values)
        # bf16 has 8 mantissa bits: relative error < 2^-8
        rel = np.abs(rounded - values) / np.maximum(np.abs(values), 1e-30)
        assert rel.max() < 2.0**-8

    def test_nan_stays_nan(self):
        out = round_to_bfloat16(np.array([np.nan], dtype=np.float32))
        assert np.isnan(out[0])


class TestVNNI:
    def test_pack_layout(self):
        b = np.arange(8, dtype=np.float32).reshape(4, 2)  # K=4, N=2
        packed = vnni_pack(b)
        assert packed.shape == (2, 4)
        # vnni[p, 2j+t] == b[2p+t, j]
        assert packed[0, 0] == b[0, 0]
        assert packed[0, 1] == b[1, 0]
        assert packed[0, 2] == b[0, 1]
        assert packed[1, 1] == b[3, 0]

    def test_odd_k_rejected(self):
        with pytest.raises(AMXError):
            vnni_pack(np.zeros((3, 2), dtype=np.float32))

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.sampled_from([2, 4, 8, 32]), n=st.sampled_from([1, 3, 16])
    )
    def test_property_roundtrip(self, k, n):
        rng = np.random.default_rng(k * 100 + n)
        b = rng.standard_normal((k, n)).astype(np.float32)
        np.testing.assert_array_equal(vnni_unpack(vnni_pack(b)), b)


class TestTDPBF16PS:
    def test_matches_reference_matmul(self):
        rng = np.random.default_rng(7)
        a = round_to_bfloat16(rng.standard_normal((16, 32)).astype(np.float32))
        b = round_to_bfloat16(rng.standard_normal((32, 16)).astype(np.float32))
        c = rng.standard_normal((16, 16)).astype(np.float32)
        out = tdpbf16ps(c, a, vnni_pack(b))
        np.testing.assert_allclose(out, c + a @ b, rtol=1e-5)

    def test_rounds_inputs_to_bf16(self):
        a = np.full((16, 32), 1.00001, dtype=np.float32)  # not bf16-exact
        b = vnni_pack(np.eye(32, 16, dtype=np.float32))
        out = tdpbf16ps(np.zeros((16, 16), np.float32), a, b)
        np.testing.assert_array_equal(out[:, 0], np.full(16, 1.0))

    def test_tile_shape_limits(self):
        check_tile_shape(16, 32, 2)  # 16 rows x 64B: ok
        with pytest.raises(AMXError):
            check_tile_shape(17, 32, 2)
        with pytest.raises(AMXError):
            check_tile_shape(16, 33, 2)


class TestAMXIntrinsics:
    def test_tile_zero(self):
        interp = Interpreter({})
        out = interp.eval_expr(call("tile_zero", IntImm(16), IntImm(16)), {})
        assert out.shape == (256,)
        assert (out == 0).all()

    def test_load_matmul_store_roundtrip(self):
        rng = np.random.default_rng(11)
        a = round_to_bfloat16(rng.standard_normal((16, 32)).astype(np.float32))
        b = round_to_bfloat16(rng.standard_normal((32, 16)).astype(np.float32))
        from repro.ir import BFloat

        bufs = {
            "A": Buffer.from_numpy("A", a, dtype=BFloat(16)),
            "Bv": Buffer.from_numpy("Bv", vnni_pack(b), dtype=BFloat(16)),
            "C": Buffer("C", Float(32), (256,)),
        }
        interp = Interpreter(bufs)
        load_a = call(
            "tile_load", StringImm("A"), IntImm(0), IntImm(32),
            IntImm(16), IntImm(32),
        )
        load_b = call(
            "tile_load", StringImm("Bv"), IntImm(0), IntImm(32),
            IntImm(16), IntImm(32),
        )
        zero = call("tile_zero", IntImm(16), IntImm(16))
        mm = call(
            "tile_matmul", zero, load_a, load_b,
            IntImm(16), IntImm(16), IntImm(32),
        )
        store = call(
            "tile_store", StringImm("C"), IntImm(0), IntImm(16),
            IntImm(16), IntImm(16), mm,
        )
        interp.eval_expr(store, {})
        np.testing.assert_allclose(
            bufs["C"].data.reshape(16, 16), a @ b, rtol=1e-5, atol=1e-4
        )
        assert interp.counters.tensor_macs == 16 * 16 * 32

    def test_wrong_shape_rejected(self):
        interp = Interpreter({})
        zero = call("tile_zero", IntImm(16), IntImm(16))
        bad = call(
            "tile_matmul", zero, zero, zero,
            IntImm(8), IntImm(8), IntImm(8),
        )
        with pytest.raises(AMXError):
            interp.eval_expr(bad, {})

    def test_out_of_bounds_load(self):
        bufs = {"A": Buffer("A", Float(32), (16,))}
        interp = Interpreter(bufs)
        bad = call(
            "tile_load", StringImm("A"), IntImm(0), IntImm(32),
            IntImm(16), IntImm(16),
        )
        with pytest.raises(AMXError, match="bounds"):
            interp.eval_expr(bad, {})


class TestWMMA:
    def test_supported_shapes(self):
        check_shape(16, 16, 16)
        check_shape(32, 8, 16)
        check_shape(8, 32, 16)
        with pytest.raises(WMMAError):
            check_shape(32, 32, 16)

    def test_mma_sync_fp16_inputs(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((32, 16)).astype(np.float16)
        b = rng.standard_normal((16, 8)).astype(np.float16)
        c = np.zeros((32, 8), dtype=np.float32)
        out = mma_sync(c, a, b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_intrinsic_pipeline(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((32, 16)).astype(np.float16)
        b = rng.standard_normal((16, 8)).astype(np.float16)
        bufs = {
            "A": Buffer.from_numpy("A", a),
            "B": Buffer.from_numpy("B", b),
            "D": Buffer("D", Float(32), (256,)),
        }
        interp = Interpreter(bufs)
        frag_a = call(
            "wmma.load.a.sync", StringImm("A"), IntImm(0), IntImm(16),
            IntImm(32), IntImm(16),
        )
        frag_b = call(
            "wmma.load.b.sync", StringImm("B"), IntImm(0), IntImm(8),
            IntImm(16), IntImm(8),
        )
        acc = call("wmma.fill.sync", IntImm(32), IntImm(8), IntImm(0))
        mma = call(
            "wmma.mma.sync", acc, frag_a, frag_b,
            IntImm(32), IntImm(8), IntImm(16),
        )
        store = call(
            "wmma.store.d.sync", StringImm("D"), IntImm(0), IntImm(8),
            IntImm(32), IntImm(8), mma,
        )
        interp.eval_expr(store, {})
        ref = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(
            bufs["D"].data.reshape(32, 8), ref, rtol=1e-5, atol=1e-4
        )
        assert interp.counters.tensor_macs == 32 * 8 * 16


class TestTileBounds:
    """A tile load or store is checked by its corners — ``[base +
    min(0, reach), base + max(0, reach) + cols - 1]``, ``reach = stride *
    (rows - 1)`` — with the accelerator's error and the same ``[lo,
    hi]`` text as a check of every element; an empty tile is never
    checked.  The buffer holds 64 elements: a 4 x 8 tile at row stride
    16 spans 56 of them, so base 8 is the last in range."""

    ISAS = [
        ("tile_load", "tile_store", AMXError),
        ("wmma.load.a.sync", "wmma.store.d.sync", WMMAError),
    ]

    @staticmethod
    def run(name, base, stride, rows=4, cols=8):
        interp = Interpreter({"A": Buffer("A", Float(32), (64,))})
        address = (
            StringImm("A"), IntImm(base), IntImm(stride), IntImm(rows),
            IntImm(cols),
        )
        if "load" in name:
            return interp.eval_expr(call(name, *address), {}), interp
        size = rows * cols
        if size:
            interp.buffers["T"] = Buffer.from_numpy("T", np.ones(size, "f4"))
            index = Ramp(IntImm(0), IntImm(1), size)
            value = Load(Float(32, size), "T", index)
        else:
            value = call("tile_zero", IntImm(rows), IntImm(cols))
        interp.eval_expr(call(name, *address, value), {})
        return interp.buffers["A"].data, interp

    @pytest.mark.parametrize("load,store,error", ISAS)
    @pytest.mark.parametrize(
        "base,stride,span",
        [
            (9, 16, "[9, 64]"),
            (-1, 16, "[-1, 54]"),
            (47, -16, "[-1, 54]"),
            (57, -16, "[9, 64]"),
        ],
    )
    def test_out_of_range(self, load, store, error, base, stride, span):
        for name in (load, store):
            with pytest.raises(error) as raised:
                self.run(name, base, stride)
            assert type(raised.value) is error
            assert str(raised.value) == (
                f"{name} out of bounds on 'A': {span} vs size 64"
            )

    @pytest.mark.parametrize("load,store,error", ISAS)
    @pytest.mark.parametrize("base,stride", [(8, 16), (0, 16), (48, -16)])
    def test_last_in_range(self, load, store, error, base, stride):
        data, interp = self.run(store, base, stride)
        assert data.sum() == 32
        tile, interp = self.run(load, base, stride)
        assert tile.shape == (32,)
        assert interp.counters.load_bytes["dram"] == 32 * 4

    @pytest.mark.parametrize("load,store,error", ISAS)
    @pytest.mark.parametrize("rows,cols", [(0, 8), (4, 0)])
    def test_an_empty_tile_is_not_checked(self, load, store, error, rows,
                                          cols):
        tile, _ = self.run(load, 1000, 16, rows, cols)
        assert tile.size == 0
        data, _ = self.run(store, -1000, 16, rows, cols)
        assert not data.any()


class TestShuffles:
    def test_kway_interleave_is_vnni_for_k2(self):
        b = np.arange(32, dtype=np.float32).reshape(8, 4)
        np.testing.assert_array_equal(kway_interleave(b, 2), vnni_pack(b))

    def test_toeplitz_conv(self):
        # windows @ A_K == convolution
        rng = np.random.default_rng(19)
        kernel = rng.standard_normal(8).astype(np.float32)
        signal = rng.standard_normal(64).astype(np.float32)
        rows, cols = 16, 8
        a_k = toeplitz_from_kernel(kernel, rows, cols)
        windows = np.stack([signal[m : m + rows] for m in range(0, 32, 8)])
        out = windows @ a_k
        for w in range(windows.shape[0]):
            for j in range(cols):
                ref = (signal[w * 8 + j : w * 8 + j + 8] * kernel).sum()
                np.testing.assert_allclose(out[w, j], ref, rtol=1e-4)

    def test_toeplitz_strided_downsample(self):
        rng = np.random.default_rng(23)
        kernel = rng.standard_normal(4).astype(np.float32)
        signal = rng.standard_normal(32).astype(np.float32)
        a_down = toeplitz_from_kernel(kernel, rows=16, cols=6, stride=2)
        window = signal[:16]
        out = window @ a_down
        for j in range(6):
            ref = (signal[2 * j : 2 * j + 4] * kernel).sum()
            np.testing.assert_allclose(out[j], ref, rtol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        taps=st.sampled_from([2, 4, 8]),
        stride=st.sampled_from([1, 2]),
        seed=st.integers(0, 100),
    )
    def test_property_toeplitz_matches_direct_convolution(
        self, taps, stride, seed
    ):
        rng = np.random.default_rng(seed)
        kernel = rng.standard_normal(taps).astype(np.float32)
        cols = 8
        rows = stride * (cols - 1) + taps
        signal = rng.standard_normal(rows).astype(np.float32)
        a = toeplitz_from_kernel(kernel, rows, cols, stride)
        out = signal @ a
        for j in range(cols):
            ref = (signal[stride * j : stride * j + taps] * kernel).sum()
            np.testing.assert_allclose(out[j], ref, rtol=1e-3, atol=1e-4)


    @pytest.mark.parametrize(
        "shuffle", ["ConvolutionShuffle", "MultiphaseShuffle"]
    )
    def test_coefficient_window_is_bounds_checked(self, shuffle):
        """Both shuffles read their ``taps`` coefficients through one
        checked reader: a window hanging off either end of the buffer is
        a ShuffleError, not wrapped-around elements or a bare numpy
        IndexError."""
        taps = np.arange(8, dtype=np.float32)

        def run(base):
            interp = Interpreter({"K": Buffer.from_numpy("K", taps)})
            out = interp.eval_expr(
                call(
                    shuffle, StringImm("K"), IntImm(base), IntImm(8),
                    IntImm(4), IntImm(4), IntImm(2),
                ),
                {},
            )
            return out, interp.counters

        out, counters = run(4)
        assert out.shape == (32,) and set(out) <= {0.0, 4.0, 5.0, 6.0, 7.0}
        assert counters.load_bytes["dram"] == 4 * 4
        for base in (-2, 6):
            with pytest.raises(ShuffleError, match="out of bounds on 'K'"):
                run(base)

    @pytest.mark.parametrize(
        "base,taps,span",
        [(-2, 4, "[-2, 1]"), (5, 4, "[5, 8]"), (-1, 10, "[-1, 8]")],
    )
    def test_a_window_is_checked_by_its_ends(self, base, taps, span):
        """A window's bounds are ``[base, base + taps - 1]``, in the
        same text as a check of every coefficient; an empty one is
        never checked."""
        def run(base, taps):
            interp = Interpreter(
                {"K": Buffer.from_numpy("K", np.ones(8, np.float32))}
            )
            return interp.eval_expr(
                call(
                    "ConvolutionShuffle", StringImm("K"), IntImm(base),
                    IntImm(8), IntImm(4), IntImm(taps), IntImm(1),
                ),
                {},
            )

        with pytest.raises(ShuffleError) as raised:
            run(base, taps)
        assert str(raised.value) == (
            f"ConvolutionShuffle out of bounds on 'K': {span} vs size 8"
        )
        assert run(4, 4).reshape(8, 4)[:4].trace() == 4
        assert not run(100, 0).any()


class TestDevices:
    def test_registry(self):
        assert "A100-SXM-80GB" in DEVICES
        assert DEVICES["RTX-4070-SUPER"] is RTX4070S

    def test_paper_cited_rates(self):
        assert A100.tensor_macs_per_s == 156e12
        assert A100.dram_bytes_per_s == 2.0e12
        assert RTX4070S.tensor_macs_per_s == 36e12
        assert abs(RTX4070S.dram_bytes_per_s - 504.2e9) < 1e6
