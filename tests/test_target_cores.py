"""The three MAC cores take their operands narrow or widened — same bytes.

The compiled backend hands ``mma_sync`` / ``dp4a_mac`` the buffer's own
float16 / int8 tile and ``tdpbf16ps`` float32 storage that is usually
bf16 already; the interpreter hands all three the widened float32 /
int32 value its load intrinsics produce.  The end-to-end parity suites
show the two backends agree; this file shows *why*, at the cores: for
every operand value, special or not, crossing narrow -> wide once gives
the bytes that widening first and letting the core re-round gives.

The references the cores are checked against — the parent's eight-pass
bf16 rounding, an int64 ``einsum`` — live here, not in ``src``.

The second half does the same for the *role* cores every intrinsic is
defined by (:mod:`repro.targets.isa`): under each leading axis the
emitter can produce, a core's rows are the bytes of the call without
the axis, row by row; a tile stack addressed as a strided view is the
bytes of the index-grid gather / scatter; and tiles cut from an input
widened once per call, handed to the MAC as exact, are the bytes of
the per-tile route.
"""

import numpy as np
import pytest
from conftest import F16_SPECIALS, F32_SPECIALS, assert_same_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardboiled.intrinsics import tile_compact, tile_expand
from repro.ir import BFloat, Float, Int
from repro.runtime import INTRINSICS, Buffer
from repro.runtime.buffer import StackedBuffer
from repro.targets import amx, dp4a, wmma
from repro.targets.amx import tdpbf16ps, vnni_pack, vnni_unpack
from repro.targets.bfloat16 import is_bfloat16_exact, round_to_bfloat16
from repro.targets.dp4a import (
    MAX_EXACT_K,
    DP4AError,
    dp4a_mac,
    vnni4_pack,
    vnni4_unpack,
)
from repro.targets.isa import (
    REGISTRY,
    tile_gather,
    tile_grid,
    tile_scatter,
    tile_view,
    wrapping_sum,
)
from repro.targets.wmma import mma_sync

#: leading batch axes an operand may carry (the lane / batch axis)
LEADS = [(), (3,), (2, 2)]


def patterned(rng, shape, specials, uint):
    """Random bit patterns of ``uint``'s width with the specials mixed
    in (about one element in four)."""
    raw = rng.integers(0, np.iinfo(uint).max, size=shape, dtype=uint,
                       endpoint=True)
    pick = rng.random(shape) < 0.25
    raw[pick] = rng.choice(specials, size=int(pick.sum()))
    return raw


def f16_operand(rng, shape):
    return patterned(rng, shape, F16_SPECIALS, np.uint16).view(np.float16)


def f32_values(rng, shape):
    return patterned(rng, shape, F32_SPECIALS, np.uint32).view(np.float32)


def bf16_exact(rng, shape):
    """float32 storage of bf16 values: the low half-word cleared (NaNs
    with a payload in the upper half included)."""
    raw = patterned(rng, shape, F32_SPECIALS, np.uint32)
    return (raw & np.uint32(0xFFFF0000)).view(np.float32)


def reference_round_to_bfloat16(values: np.ndarray) -> np.ndarray:
    """The parent commit's ``round_to_bfloat16``, pass for pass."""
    f32 = np.asarray(values, dtype=np.float32)
    raw = f32.view(np.uint32)
    lsb = (raw >> 16) & 1
    rounded = raw + 0x7FFF + lsb
    truncated = rounded & np.uint32(0xFFFF0000)
    out = truncated.view(np.float32).copy()
    nan_mask = np.isnan(f32)
    if np.any(nan_mask):
        out[nan_mask] = np.float32(np.nan)
    return out.reshape(f32.shape)


shapes = st.tuples(
    st.sampled_from(LEADS),  # leading axes of C and A
    st.booleans(),  # does B carry them too, or is it shared?
    st.integers(0, 2**32 - 1),  # numpy seed
)


class TestMmaSync:
    @settings(max_examples=60, deadline=None)
    @given(shapes, st.sampled_from([(16, 16, 16), (32, 8, 16), (8, 32, 16),
                                    (3, 5, 7)]))
    def test_f16_operands_equal_their_widened_selves(self, drawn, mnk):
        lead, b_batched, seed = drawn
        m, n, k = mnk
        rng = np.random.default_rng(seed)
        a = f16_operand(rng, lead + (m, k))
        b = f16_operand(rng, (lead if b_batched else ()) + (k, n))
        c = f32_values(rng, lead + (m, n))
        with np.errstate(all="ignore"):
            narrow = mma_sync(c, a, b)
            wide = mma_sync(c, a.astype(np.float32), b.astype(np.float32))
            mixed = mma_sync(c, a, b.astype(np.float32))
        assert_same_bytes(narrow, wide)
        assert_same_bytes(mixed, wide)

    def test_f32_operands_are_still_rounded_to_f16(self):
        a = np.full((16, 16), 1.0 + 2.0**-12, np.float32)  # not f16
        b = np.eye(16, dtype=np.float32)
        out = mma_sync(np.zeros((16, 16), np.float32), a, b)
        np.testing.assert_array_equal(out, np.ones((16, 16), np.float32))
        with np.errstate(over="ignore"):
            big = mma_sync(
                np.zeros((16, 16), np.float32), a * 70000.0, np.ones_like(b)
            )
        assert np.isinf(big).all()  # past 65504: overflows the fragment

    def test_wider_operands_go_through_float32_first(self):
        """float64 reaches the fragment the way every intrinsic handler
        passes it, via float32 — one rounding rule, whoever calls."""
        # rounds up to the next f32, which is the f16 tie 1 + 2**-11
        value = 1.0 + 2.0**-11 - 2.0**-40
        a = np.full((16, 16), value, np.float64)
        b = np.eye(16)
        c = np.zeros((16, 16), np.float32)
        assert_same_bytes(
            mma_sync(c, a, b),
            mma_sync(c, a.astype(np.float32), b.astype(np.float32)),
        )


class TestTdpbf16ps:
    @settings(max_examples=60, deadline=None)
    @given(shapes, st.booleans())
    def test_matches_the_always_rounding_reference(self, drawn, exact):
        """bf16 tiles skip the rounding, others take it: either way the
        bytes are what rounding every operand unconditionally gives."""
        lead, b_batched, seed = drawn
        rng = np.random.default_rng(seed)
        make = bf16_exact if exact else f32_values
        a = make(rng, lead + (16, 32))
        b = make(rng, (lead if b_batched else ()) + (16, 32))
        c = f32_values(rng, lead + (16, 16))
        with np.errstate(all="ignore"):
            got = tdpbf16ps(c, a, b)
            want = c + reference_round_to_bfloat16(a) @ vnni_unpack(
                reference_round_to_bfloat16(b)
            )
        assert_same_bytes(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([(1,), (7,), (3, 5), (2, 3, 4)]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([f32_values, bf16_exact]),
    )
    def test_round_equals_the_eight_pass_body_and_is_idempotent(
        self, shape, seed, make
    ):
        values = make(np.random.default_rng(seed), shape)
        before = values.copy()
        once = round_to_bfloat16(values)
        assert_same_bytes(once, reference_round_to_bfloat16(values))
        assert_same_bytes(round_to_bfloat16(once), once)
        assert_same_bytes(values, before)  # the input is never written
        assert is_bfloat16_exact(once[~np.isnan(once)]).all()

    def test_every_special_pattern_rounds_like_the_reference(self):
        for values in (
            F32_SPECIALS.view(np.float32),
            (F32_SPECIALS & np.uint32(0xFFFF0000)).view(np.float32),
        ):
            for one in values:  # alone: each decides the early return
                assert_same_bytes(
                    round_to_bfloat16(np.array([one])),
                    reference_round_to_bfloat16(np.array([one])),
                )

    def test_exact_input_is_returned_without_a_copy_inexact_is_not(self):
        exact = np.array([1.0, -0.0, 0.5, np.inf], np.float32)
        assert round_to_bfloat16(exact) is exact
        inexact = np.array([1.0, 1.00001], np.float32)
        assert not np.shares_memory(round_to_bfloat16(inexact), inexact)
        # a NaN is canonicalised, so it is never "nothing to round"
        nan = np.array([0x7F810000], np.uint32).view(np.float32)
        assert not np.shares_memory(round_to_bfloat16(nan), nan)

    def test_buffer_ingest_still_isolates_exact_bf16_input(self):
        from repro.ir import BFloat
        from repro.runtime import Buffer

        source = np.array([1.0, 2.0, -0.0, 0.5], np.float32)
        buf = Buffer.from_numpy("w", source, dtype=BFloat(16))
        buf.data[0] = 9.0
        assert source[0] == 1.0


def int64_reference(c, a, b_vnni4):
    """C + A . unpack(B) in int64, wrapped to int32 at the very end."""
    wide = c.astype(np.int64) + np.einsum(
        "...mk,...kn->...mn",
        a.astype(np.int64),
        vnni4_unpack(b_vnni4).astype(np.int64),
    )
    return wide.astype(np.int32)  # int64 -> int32 keeps the low 32 bits


def int8_operand(rng, shape):
    raw = rng.integers(-128, 128, size=shape, dtype=np.int8)
    pick = rng.random(shape) < 0.25
    raw[pick] = rng.choice(np.array([-128, 127, 0, -1], np.int8),
                           size=int(pick.sum()))
    return raw


class TestDp4aMac:
    @settings(max_examples=60, deadline=None)
    @given(shapes, st.sampled_from([(16, 16, 64), (5, 3, 8), (1, 1, 4)]))
    def test_int8_operands_equal_widened_and_the_int64_reference(
        self, drawn, mnk
    ):
        lead, b_batched, seed = drawn
        m, n, k = mnk
        rng = np.random.default_rng(seed)
        a = int8_operand(rng, lead + (m, k))
        b = int8_operand(rng, (lead if b_batched else ()) + (k // 4, 4 * n))
        # accumulators near both ends of int32: the add must wrap
        edge = rng.choice(
            np.array([2**31 - 1, -(2**31), 0], np.int64), size=lead + (m, n)
        )
        c = (edge + rng.integers(-(2**20), 2**20, lead + (m, n))).astype(
            np.int32
        )
        narrow = dp4a_mac(c, a, b)
        wide = dp4a_mac(c, a.astype(np.int32), b.astype(np.int32))
        assert_same_bytes(narrow, wide)
        assert_same_bytes(narrow, int64_reference(c, a, b))

    @pytest.mark.parametrize("b_value", [-128, 127])
    def test_worst_case_sums_are_exact_and_wrap(self, b_value):
        """Every product at its extreme (+2**14, or -128 * 127), at the
        instruction's depth and at the deepest one the core accepts."""
        for k in (64, MAX_EXACT_K // 4 * 4):
            a = np.full((16, k), -128, np.int8)
            b = vnni4_pack(np.full((k, 16), b_value, np.int8))
            for start in (2**31 - 1, -(2**31), 12345):
                c = np.full((16, 16), start, np.int32)
                got = dp4a_mac(c, a, b)
                assert_same_bytes(got, int64_reference(c, a, b))
            assert int(got[0, 0]) - 12345 == k * -128 * b_value

    def test_deeper_than_exact_is_refused(self):
        k = (MAX_EXACT_K // 4 + 1) * 4
        assert k * 2**14 >= 2**24
        with pytest.raises(DP4AError, match="exact"):
            dp4a_mac(
                np.zeros((2, 2), np.int32),
                np.zeros((2, k), np.int8),
                np.zeros((k // 4, 8), np.int8),
            )

    def test_shape_mismatch_is_still_a_dp4a_error(self):
        with pytest.raises(DP4AError, match="shape mismatch"):
            dp4a_mac(
                np.zeros((16, 16), np.int32),
                np.zeros((16, 60), np.int8),
                np.zeros((16, 64), np.int8),
            )

    def test_out_of_range_operands_still_truncate_to_int8(self):
        a = np.full((16, 64), 300, np.int32)  # wraps to 44
        b = vnni4_pack(np.full((64, 16), -129, np.int32))  # wraps to 127
        got = dp4a_mac(np.zeros((16, 16), np.int32), a, b)
        np.testing.assert_array_equal(got, np.full((16, 16), 44 * 127 * 64))


def test_vnni_round_trip_is_dtype_preserving():
    """The narrow operands are unpacked narrow (half / quarter the
    bytes of the widened tile), so unpack must not widen them."""
    b8 = np.arange(64 * 16, dtype=np.int8).reshape(64, 16)
    assert vnni4_unpack(vnni4_pack(b8)).dtype == np.int8
    b32 = np.arange(32 * 16, dtype=np.float32).reshape(32, 16)
    assert vnni_unpack(vnni_pack(b32)).dtype == np.float32


# -- the role cores, with and without a leading axis ---------------------------

ISAS = [amx.ISA, wmma.ISA, dp4a.ISA]
ISA_IDS = [isa.name for isa in ISAS]

#: per accelerator: the narrow buffer a MAC operand is loaded from, a
#: wide one, and the (m, n, k) its MAC accepts
def bf16_stored(rng, shape):
    """What a bfloat16 buffer holds: ingest canonicalises NaNs."""
    return round_to_bfloat16(bf16_exact(rng, shape))


OPERAND_BUFFERS = {
    "amx": [(BFloat(16), bf16_stored), (Float(32), f32_values)],
    "wmma": [(Float(16), f16_operand), (Float(32), f32_values)],
    "dp4a": [(Int(8), None), (Int(32), None)],
}
MAC_SHAPES = {"amx": (16, 16, 32), "wmma": (32, 8, 16), "dp4a": (16, 16, 64)}

SIZE, ROWS, COLS, STRIDE = 96, 3, 5, 7
BASES = np.array([0, 11, 40, 11])  # two lanes may read the same tile


def operand_data(rng, dtype, make, shape):
    if make is not None:
        return make(rng, shape)
    return int8_operand(rng, shape).astype(dtype.to_numpy())


def flat_buffer(dtype, data):
    return Buffer("buf", dtype, (data.size,), data=data.copy())


def stacked_buffer(dtype, data):
    return StackedBuffer(
        "buf", dtype, (data.shape[1],), batch=data.shape[0], data=data.copy()
    )


@pytest.mark.parametrize("isa", ISAS, ids=ISA_IDS)
class TestRoleCores:
    @pytest.mark.parametrize("mac_operand", [False, True])
    def test_load(self, isa, mac_operand, rng):
        for dtype, make in OPERAND_BUFFERS[isa.name]:
            data = operand_data(rng, dtype, make, (len(BASES), SIZE))
            rows = [flat_buffer(dtype, row) for row in data]

            def one(buf, base):
                return isa.load(
                    None, buf, base, STRIDE, ROWS, COLS, mac_operand
                )

            flat = one(rows[0], 11)
            narrow = mac_operand and flat.dtype == isa.narrow
            assert flat.dtype == (isa.narrow if narrow else isa.acc)
            assert narrow == (
                mac_operand and data.dtype == isa.narrow is not None
            )
            # per-lane bases gather one shared buffer
            assert_same_bytes(
                one(rows[0], BASES),
                np.stack([one(rows[0], int(base)) for base in BASES]),
            )
            # a stacked buffer: row b is request b's own buffer
            assert_same_bytes(
                one(stacked_buffer(dtype, data), 11),
                np.stack([one(row, 11) for row in rows]),
            )
            # both, as one B·N axis: row b·N + lane is request b's tile
            # at that lane's base (index gather, and strided view)
            for bases in (BASES, AFFINE):
                assert_same_bytes(
                    one(stacked_buffer(dtype, data), bases),
                    np.concatenate([one(row, bases) for row in rows]),
                )

    def test_store(self, isa, rng):
        """Into the accumulator's own type and, for the float ISAs, a
        bfloat16 buffer: the stored values are rounded on the way."""
        dtypes = [Int(32)] if isa.name == "dp4a" else [Float(32), BFloat(16)]
        lanes = np.array([0, 20, 60, 40])  # disjoint 3 x 5 footprints
        for dtype in dtypes:
            tiles = operand_data(
                rng, Float(32) if dtype.is_float() else Int(32),
                f32_values if dtype.is_float() else None,
                (len(lanes), ROWS * COLS),
            )
            blank = np.zeros(SIZE, dtype.to_numpy())

            def one(buf, base, tile):
                done = isa.store(None, buf, base, STRIDE, ROWS, COLS, tile)
                assert_same_bytes(np.asarray(done), np.asarray(isa.acc(0)))
                return buf.data

            want = flat_buffer(dtype, blank)
            for base, tile in zip(lanes, tiles):
                one(want, int(base), tile)
            assert_same_bytes(
                one(flat_buffer(dtype, blank), lanes, tiles), want.data
            )
            if dtype == BFloat(16):
                finite = ~np.isnan(want.data)
                assert is_bfloat16_exact(want.data[finite]).all()
                assert not is_bfloat16_exact(tiles[~np.isnan(tiles)]).all()
            for batch_tiles in (tiles, tiles[0]):  # per-request, or shared
                got = one(
                    stacked_buffer(dtype, np.tile(blank, (len(lanes), 1))),
                    11, batch_tiles,
                )
                rows = np.broadcast_to(batch_tiles, tiles.shape)
                assert_same_bytes(
                    got,
                    np.stack(
                        [one(flat_buffer(dtype, blank), 11, t) for t in rows]
                    ),
                )
            # at per-lane bases, B·N rows of tiles (row b·N + lane lands
            # in request b), N rows, or one tile every request shares
            # (index scatter, and strided view)
            for bases in (lanes, (np.arange(4) * 20, 20)):
                for requests, values in (
                    ((tiles, tiles[::-1]), np.concatenate((tiles, tiles[::-1]))),
                    ((tiles, tiles), tiles),
                    ((tiles[:1],) * 2, tiles[0]),
                ):
                    got = one(
                        stacked_buffer(dtype, np.tile(blank, (2, 1))),
                        bases, values,
                    )
                    assert_same_bytes(
                        got,
                        np.stack([
                            one(flat_buffer(dtype, blank), bases, t)
                            for t in requests
                        ]),
                    )

    def test_fill(self, isa):
        values = np.array([0, -3, 7, 7])
        flat = isa.fill(None, ROWS, COLS, 7)
        assert flat.dtype == isa.acc and flat.shape == (ROWS * COLS,)
        assert_same_bytes(isa.fill(None, ROWS, COLS), flat * isa.acc(0))
        assert_same_bytes(
            isa.fill(None, ROWS, COLS, values),
            np.stack([isa.fill(None, ROWS, COLS, v) for v in values]),
        )

    @pytest.mark.parametrize("shared", ["none", "b", "c"])
    def test_mac(self, isa, shared, rng):
        m, n, k = MAC_SHAPES[isa.name]
        dtype, make = OPERAND_BUFFERS[isa.name][0]
        lead = 3
        a = operand_data(rng, dtype, make, (lead, m * k))
        b = operand_data(rng, dtype, make, (lead, k * n))
        c = operand_data(
            rng, Int(32) if isa.name == "dp4a" else Float(32),
            None if isa.name == "dp4a" else f32_values, (lead, m * n),
        )
        if shared == "b":
            b = b[0]
        if shared == "c":
            c = c[0]
        row = lambda x, i: x if x.ndim == 1 else x[i]
        with np.errstate(all="ignore"):
            flat = isa.mac(None, c[-1] if c.ndim > 1 else c, a[0], row(b, 0),
                           m, n, k)
            assert flat.dtype == isa.acc and flat.shape == (m * n,)
            got = isa.mac(None, c, a, b, m, n, k)
            want = np.stack(
                [
                    isa.mac(None, row(c, i), a[i], row(b, i), m, n, k)
                    for i in range(lead)
                ]
            )
        assert_same_bytes(got, want)

    def test_widened_once_mac_equals_the_narrow_mac(self, isa, rng):
        """Tiles cut from a buffer :meth:`TileISA.widen` made exact,
        handed to the MAC as exact, against the per-tile route — on
        f16 +-0, subnormals, 65504, +-inf and NaN payloads, bf16 NaNs,
        int8 -128 and 127 (a quarter of every operand), flat and
        stacked."""
        m, n, k = MAC_SHAPES[isa.name]
        dtype, make = OPERAND_BUFFERS[isa.name][0]
        data = operand_data(rng, dtype, make, (3, 2 * m * k + k * n))
        c = operand_data(
            rng, Int(32) if isa.name == "dp4a" else Float(32),
            None if isa.name == "dp4a" else f32_values, (3, m * n),
        )
        for buf in (flat_buffer(dtype, data[0]), stacked_buffer(dtype, data)):
            source, exact = isa.widen(buf)
            assert exact and source.shape == buf.data.shape
            assert source.dtype == np.float32
            bases = (m * k, 2 * m * k)  # A rows overlap: stride k / 2
            with np.errstate(all="ignore"):
                narrow = isa.mac(
                    None, c if buf.data.ndim == 2 else c[0],
                    isa.load(None, buf, bases[0], k // 2, m, k, True),
                    isa.load(None, buf, bases[1], n * isa.group, k // isa.group,
                             n * isa.group, True),
                    m, n, k,
                )
                widened = isa.mac(
                    None, c if buf.data.ndim == 2 else c[0],
                    isa.load(None, source, bases[0], k // 2, m, k, True),
                    isa.load(None, source, bases[1], n * isa.group,
                             k // isa.group, n * isa.group, True),
                    m, n, k, True, True,
                )
            assert_same_bytes(widened, narrow)

    def test_a_wide_buffer_is_not_widened_once(self, isa, rng):
        """float32 / int32 storage is handed back: its tiles keep the
        per-tile rounding (truncation) in the MAC."""
        dtype, make = OPERAND_BUFFERS[isa.name][1]
        if isa.name == "amx":
            dtype = Float(32)  # not bfloat16 storage, though float32 too
        buf = flat_buffer(dtype, operand_data(rng, dtype, make, (1, SIZE))[0])
        assert isa.widen(buf) == (buf, False)

    def test_an_unsupported_mac_shape_is_the_isas_own_error(self, isa):
        m, n, k = MAC_SHAPES[isa.name]
        tile = np.zeros(m * n * k, isa.acc)
        with pytest.raises(isa.error, match="m16n16k8"):
            isa.mac(None, tile, tile, tile, 16, 16, 8)


#: iterations of a serial MAC nest the emitter stacks: matmul's and
#: attention's 4, conv_layer's 9,
#: conv2d's and downsample's 32, int8_conv_layer's 36
DEPTHS = [4, 9, 32, 36]


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("isa", ISAS, ids=ISA_IDS)
def test_a_stacked_product_is_its_macs_in_loop_order(isa, depth, rng):
    """``TileISA.product`` over an R-deep leading axis, folded as a
    stacked nest folds it — ``np.add(c, p, out=p)`` per iteration for a
    float32 core (``isa.accumulate``'s operand order), one
    :func:`wrapping_sum` for DP4A — is R MAC calls in loop order, byte
    for byte, on the special-value operands; at R = 32 the products
    take 256 KiB and more."""
    m, n, k = MAC_SHAPES[isa.name]
    g, lanes = isa.group, 64 if depth == 32 else 3
    dtype, make = OPERAND_BUFFERS[isa.name][0]
    a = operand_data(rng, dtype, make, (depth, lanes, m * k))
    b = operand_data(rng, dtype, make, (depth, k * n))
    c = operand_data(
        rng, Int(32) if isa.name == "dp4a" else Float(32),
        None if isa.name == "dp4a" else f32_values, (lanes, m * n),
    )
    with np.errstate(all="ignore"):
        want = c
        for r in range(depth):
            want = isa.mac(None, want, a[r], b[r], m, n, k)
        products = isa.product(
            isa.operand(a.reshape(depth, lanes, m, k)),
            isa.operand(b.reshape(depth, 1, k // g, g * n)),
        )
        assert depth != 32 or products.nbytes >= 256 * 1024
        if isa.acc is np.int32:
            got = c.reshape(lanes, m, n) + wrapping_sum(products)
        else:
            got = np.array(c.reshape(lanes, m, n))
            for p in products:
                got = np.add(got, p, out=p)
    assert_same_bytes(got.reshape(lanes, m * n), want)


def test_a_wrapping_sum_is_the_adds_in_any_order(rng):
    """int32 addition wraps, so it is associative: DP4A's one sum over
    the leading axis is the R adds in loop order — at the extremes."""
    extremes = np.array([2**31 - 1, -(2**31), -1, 1], np.int32)
    products = rng.choice(extremes, size=(36, 16, 16))
    with np.errstate(all="ignore"):
        want = np.zeros((16, 16), np.int32)
        for p in products:
            want = want + p
    assert_same_bytes(wrapping_sum(products), want)


def test_which_folds_keep_the_loops_order(rng):
    """What a reduce loop ``acc = op(acc, row)`` over vector rows may be
    folded with, on rows with ``+-0``, ``+-inf``, subnormals, ``float32``
    extremes and the negative quiet NaN (the one ``inf - inf`` makes):
    over axis 0, ``np.add.accumulate`` and ``np.maximum`` /
    ``np.minimum.reduce`` are the sequential calls, signs of zero and of
    that NaN alike; ``np.add.reduce`` may sum pairwise.  Not checked,
    because it does not hold: where NaNs of two payloads or signs meet,
    numpy's choice between them depends on the call's SIMD position,
    and a scalar accumulator's ``maximum.reduce`` returns a positive NaN
    — so the emitter folds a reduce loop row by row with its own op."""
    shape = (37, 20)
    pool = F32_SPECIALS.view(np.float32)
    nan = np.array([0xFFC00000], np.uint32).view(np.float32)
    pool = np.append(pool[~np.isnan(pool)], nan)
    for trial in range(20):
        rows = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 30)).astype(np.float32)
        pick = rng.random(shape) < 0.2
        rows[pick] = rng.choice(pool, size=pick.sum())
        with np.errstate(all="ignore"):
            for op in (np.add, np.maximum, np.minimum):
                want = rows[0]
                for row in rows[1:]:
                    want = op(want, row)
                fold = np.add.accumulate(rows, axis=0)[-1] if op is np.add \
                    else op.reduce(rows, axis=0)
                assert_same_bytes(np.asarray(fold), np.asarray(want))


#: per-lane bases ``bases[0] + step * lane``, as the emitter passes them
AFFINE = (3 + 9 * np.arange(4), 9)
AFFINE_DOWN = (60 - 20 * np.arange(4), -20)


@pytest.mark.parametrize("isa", ISAS, ids=ISA_IDS)
class TestTileViews:
    """``TileISA.load`` / ``store`` address an affine tile stack as one
    strided view (:func:`tile_gather` / :func:`tile_scatter`, which a
    kernel's two-level ramp loads and stores call too); the index-grid
    gather / scatter is the reference."""

    @pytest.mark.parametrize("stride", [STRIDE, 3], ids=["apart", "overlap"])
    def test_load_view_equals_gather(self, isa, stride, rng):
        for dtype, make in OPERAND_BUFFERS[isa.name]:
            data = operand_data(rng, dtype, make, (len(BASES), SIZE))
            flat, stacked = flat_buffer(dtype, data[0]), stacked_buffer(dtype, data)
            for buf, base in (
                (flat, 11), (stacked, 11), (flat, AFFINE), (flat, AFFINE_DOWN)
            ):
                assert tile_view(buf.data, base, stride, ROWS, COLS) is not None
                idx = tile_grid(None, base, stride, ROWS, COLS)
                gathered = buf.data[idx] if flat is buf else buf.data[:, idx]
                for mac_operand in (False, True):
                    got = isa.load(None, buf, base, stride, ROWS, COLS, mac_operand)
                    assert got.flags.c_contiguous
                    assert_same_bytes(got, isa.loaded(gathered, mac_operand))

    @pytest.mark.parametrize("stride", [STRIDE, 3], ids=["apart", "overlap"])
    def test_store_view_equals_scatter(self, isa, stride, rng):
        """Flat, per-lane affine and stacked (a per-request tile, or a
        shared one broadcast along the batch); rows that overlap
        (stride < cols) take the scatter, last write wins as before."""
        for dtype in [Int(32)] if isa.name == "dp4a" else [Float(32), BFloat(16)]:
            tiles = operand_data(
                rng, Float(32) if dtype.is_float() else Int(32),
                f32_values if dtype.is_float() else None,
                (len(BASES), ROWS * COLS),
            )
            blank = np.zeros(SIZE, dtype.to_numpy())

            def scattered(base, values):
                want = flat_buffer(dtype, blank)
                idx = tile_grid(None, base, stride, ROWS, COLS)
                want.scatter(idx, np.asarray(values, dtype=want.data.dtype))
                return want.data

            cases = [(11, tiles[0])]
            if stride >= COLS:  # lanes disjoint: what the emitter certifies
                cases += [(AFFINE, tiles), (AFFINE_DOWN, tiles)]
            for base, values in cases:
                got = flat_buffer(dtype, blank)
                isa.store(None, got, base, stride, ROWS, COLS, values)
                assert_same_bytes(got.data, scattered(base, values))
            for values in (tiles, tiles[0]):
                got = stacked_buffer(dtype, np.tile(blank, (len(BASES), 1)))
                isa.store(None, got, 11, stride, ROWS, COLS, values)
                rows = np.broadcast_to(values, tiles.shape)
                assert_same_bytes(
                    got.data, np.stack([scattered(11, row) for row in rows])
                )

    def test_out_of_range_raises_what_the_gather_raises(self, isa, rng):
        """Off the view, the bare gather and scatter raise numpy's
        IndexError (a two-level IR load's); the ISA's load and store
        raise its error, as the interpreter does, and write nothing."""
        data = rng.standard_normal(SIZE).astype(np.float32)
        buf = flat_buffer(Float(32), data.copy())
        # highest address one past the end: a scalar base, a lane stack;
        # a negative base, which the bare gather wraps round
        for base in (
            SIZE - 2 * STRIDE - COLS + 1, (np.array([0, 40, 80]), 40), -3,
        ):
            assert tile_view(data, base, STRIDE, ROWS, COLS) is None
            idx = tile_grid(None, base, STRIDE, ROWS, COLS)
            if base == -3:
                assert_same_bytes(
                    tile_gather(None, data, base, STRIDE, ROWS, COLS),
                    data[idx],
                )
            else:
                with pytest.raises(IndexError) as want:
                    data[idx]
                with pytest.raises(IndexError) as got:
                    tile_gather(None, data, base, STRIDE, ROWS, COLS)
                assert str(got.value) == str(want.value)
                with pytest.raises(IndexError):
                    tile_scatter(
                        None, data.copy(), base, STRIDE, ROWS, COLS,
                        np.zeros(idx.shape, np.float32),
                    )
            with pytest.raises(isa.error, match="out of bounds"):
                isa.load(None, buf, base, STRIDE, ROWS, COLS)
            with pytest.raises(isa.error, match="out of bounds"):
                isa.store(None, buf, base, STRIDE, ROWS, COLS, np.zeros(15))
            assert_same_bytes(buf.data, data)

    def test_a_loop_stack_is_its_iterations_views(self, isa, rng):
        """``outer`` axes stack a serial nest's iterations in one view:
        row ``[i, j]`` is the view at that iteration's base — flat,
        stacked or lane-affine — and a stack whose last iteration
        leaves the buffer is refused whole."""
        outer = ((3, 7), (2, -2))
        for dtype, make in OPERAND_BUFFERS[isa.name]:
            data = operand_data(rng, dtype, make, (len(BASES), SIZE))
            for array, base in ((data[0], 11), (data, 11), (data[0], AFFINE)):
                stack = tile_view(array, base, STRIDE, ROWS, COLS, outer)
                for i in range(3):
                    for j in range(2):
                        at = 7 * i - 2 * j
                        at = (base[0] + at, base[1]) if type(base) is tuple \
                            else base + at
                        assert_same_bytes(
                            stack[i, j],
                            tile_view(array, at, STRIDE, ROWS, COLS),
                        )
            reach = 2 * STRIDE + COLS
            assert 11 + 3 * 20 + reach <= SIZE < 11 + 4 * 20 + reach
            assert tile_view(
                data[0], 11, STRIDE, ROWS, COLS, ((4, 20),)
            ) is not None  # the fifth tile would run off
            assert tile_view(data[0], 11, STRIDE, ROWS, COLS, ((5, 20),)) is None

    def test_a_loaded_tile_is_a_snapshot(self, isa, rng):
        """Rows back to back (stride == cols): the view is contiguous,
        the tile is still a copy — writing the buffer (or the widened
        source) afterwards leaves it alone."""
        dtype, make = OPERAND_BUFFERS[isa.name][0]
        for mac_operand in (False, True):
            buf = flat_buffer(dtype, operand_data(rng, dtype, make, (1, SIZE))[0])
            source, _ = isa.widen(buf)
            for tile_of in (buf, source):
                tile = isa.load(None, tile_of, 11, COLS, ROWS, COLS, mac_operand)
                before = tile.copy()
                for array in (buf.data, source):
                    assert not np.shares_memory(tile, array)
                    array[...] = 0
                assert_same_bytes(tile, before)


@pytest.mark.parametrize(
    "isa, dtype",
    [(wmma.ISA, Float(16)), (wmma.ISA, Float(32)), (amx.ISA, BFloat(16))],
    ids=["wmma-f16", "wmma-f32", "amx-bf16"],
)
def test_a_window_stack_is_its_per_iteration_operands(isa, dtype, rng):
    """A coefficient-window shuffle over every iteration at once is, row
    by row, what each iteration's shuffle stored into a ``dtype``
    scratch, loaded back and handed to the MAC makes of it; it is
    memoised on the weights' bytes, so weights written in place miss;
    with a window off the end, each iteration shuffles its own window,
    and the one off the end raises the interpreter's error type."""
    from repro.hardboiled.intrinsics import (
        ShuffleError, toeplitz_from_kernel, window_shuffle, window_stack,
    )
    from repro.runtime.plan import BufferArena

    weights = Buffer(
        "K", Float(16), (40,),
        data=with_f16(rng, 40),
    )
    outer, geometry = ((4, 8),), (16, 8, 8, 1)

    def operand(base):
        scratch = np.empty(128, dtype.to_numpy())
        values = window_shuffle(
            toeplitz_from_kernel, None, weights, base, *geometry
        )
        if dtype == BFloat(16):
            values = round_to_bfloat16(values)
        scratch[...] = values
        return isa.shaped(isa.loaded(scratch, True), 16, 8)

    arena = BufferArena()
    got = window_stack(
        toeplitz_from_kernel, arena, isa, dtype, weights, 2, outer, *geometry
    )
    assert got.shape == (4, 16, 8) and not got.flags.writeable
    for i in range(4):
        assert_same_bytes(got[i], operand(2 + 8 * i))
    again = window_stack(
        toeplitz_from_kernel, arena, isa, dtype, weights, 2, outer, *geometry
    )
    assert again is got  # one memo entry, hit
    weights.data[9] += 1
    changed = window_stack(
        toeplitz_from_kernel, arena, isa, dtype, weights, 2, outer, *geometry
    )
    assert changed is not got and arena.memo_misses == 2
    # the last window, 33..41, runs off a 40-tap buffer
    per_iteration = window_stack(
        toeplitz_from_kernel, arena, isa, dtype, weights, 9, outer, *geometry
    )
    for i in range(3):
        assert_same_bytes(per_iteration[i], operand(9 + 8 * i))
    with pytest.raises(ShuffleError, match="leaves 'K'"):
        per_iteration[3]


def with_f16(rng, size):
    return rng.integers(-8, 8, size).astype(np.float16)


@pytest.mark.parametrize("lead", LEADS[:2], ids=["flat", "lead"])
def test_expand_and_compact_row_by_row(lead, rng):
    rows, valid, cols = 4, 3, 8
    tiles = f32_values(rng, lead + (rows * valid,))
    expanded = tile_expand(None, tiles, valid, cols)
    assert expanded.shape == lead + (rows * cols,)
    matrix = expanded.reshape(lead + (rows, cols))
    assert_same_bytes(
        np.ascontiguousarray(matrix[..., :valid]).reshape(tiles.shape), tiles
    )
    assert not matrix[..., valid:].view(np.uint32).any()  # +0.0 padding
    assert_same_bytes(tile_compact(None, expanded, cols, valid), tiles)
    if lead:
        for core, arg, a, b in (
            (tile_expand, tiles, valid, cols),
            (tile_compact, expanded, cols, valid),
        ):
            assert_same_bytes(
                core(None, arg, a, b),
                np.stack([core(None, one, a, b) for one in arg]),
            )


def test_registry_is_complete():
    """Every tensor intrinsic has both drivers, a role and a purity
    flag, and the two backends name the same set."""
    roles = {"fill", "load", "mac", "store", "to_mem", "shuffle", "elementwise"}
    math = {"exp", "log", "sqrt", "abs", "floor", "sin", "cos"}
    assert set(INTRINSICS) - math == set(REGISTRY)
    assert len(REGISTRY) == 20
    for name, entry in REGISTRY.items():
        assert entry.name == name and entry.role in roles
        assert callable(entry.core) and INTRINSICS[name] is entry.interp
        assert entry.pure is (entry.role != "store")
    for isa in ISAS:
        names = (isa.fill_name, *isa.load_names, isa.mac_name, isa.store_name)
        assert [REGISTRY[n].role for n in names] == (
            ["fill"] + ["load"] * len(isa.load_names) + ["mac", "store"]
        )
        assert all(REGISTRY[n].isa is isa for n in names)
