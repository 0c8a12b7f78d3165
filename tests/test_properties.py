"""Cross-cutting property tests on the compiler's semantic invariants."""

import numpy as np
import pytest
from conftest import SIMPLE_APP_IDS, SIMPLE_APPS, VARIANTS
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eqsat import EGraph, extract_best, run_phased
from repro.hardboiled import (
    axiomatic_rules,
    decode_expr,
    encode_expr,
    hardboiled_cost_model,
    supporting_rules,
)
from repro.hardboiled.encode import Encoder
from repro.apps import dct_denoise, matmul, recursive_filter, resample
from repro.ir import (
    Add,
    Broadcast,
    Expr,
    Float,
    IntImm,
    IRMutator,
    Load,
    Mul,
    Ramp,
    Variable,
)
from repro.ir.types import BFloat, Int
from repro.lowering import lower
from repro.lowering.simplify import _rewrite_once, simplify_expr, simplify_stmt
from repro.runtime import Buffer, Interpreter


# -- strategies ---------------------------------------------------------------


@st.composite
def index_vectors(draw, max_lanes=64, variables=()):
    """Random nested Ramp/Broadcast/arith integer index expressions.

    Leaves are small constants, plus scalar ``variables`` when given
    (such expressions cannot be evaluated without an environment)."""

    def go(depth, lanes_budget):
        choices = ["imm", "ramp", "broadcast"]
        if depth > 0:
            choices += ["add", "mul_const"]
        kind = draw(st.sampled_from(choices))
        if kind == "imm" or depth > 3:
            if variables and draw(st.booleans()):
                return Variable(draw(st.sampled_from(variables)))
            return IntImm(draw(st.integers(0, 7)))
        if kind == "ramp":
            base = go(depth + 1, lanes_budget // 2)
            count = draw(st.sampled_from([2, 4]))
            if base.type.lanes * count > lanes_budget:
                return IntImm(draw(st.integers(0, 7)))
            stride_value = draw(st.integers(0, 3))
            from repro.ir.builders import const

            return Ramp(base, const(stride_value, base.type), count)
        if kind == "broadcast":
            value = go(depth + 1, lanes_budget // 2)
            count = draw(st.sampled_from([2, 4]))
            if value.type.lanes * count > lanes_budget:
                return IntImm(draw(st.integers(0, 7)))
            return Broadcast(value, count)
        if kind == "add":
            a = go(depth + 1, lanes_budget)
            b = go(depth + 1, lanes_budget)
            if a.type.lanes != b.type.lanes:
                if a.type.lanes == 1:
                    a = Broadcast(a, b.type.lanes)
                elif b.type.lanes == 1:
                    b = Broadcast(b, a.type.lanes)
                else:
                    return a
            return Add(a, b)
        # mul by constant
        a = go(depth + 1, lanes_budget)
        from repro.ir.builders import const

        return Mul(a, const(draw(st.integers(1, 3)), a.type))

    return go(0, max_lanes)


def evaluate(expr):
    return np.atleast_1d(
        np.asarray(Interpreter({}).eval_expr(expr, {}))
    )


class TestSimplifierSoundness:
    @settings(max_examples=80, deadline=None)
    @given(index_vectors())
    def test_simplify_preserves_semantics(self, expr):
        before = evaluate(expr)
        after = evaluate(simplify_expr(expr))
        np.testing.assert_array_equal(before, after)


def naive_simplify(node, max_rounds=10):
    """The reference fixpoint: a fresh whole-tree walk every round, no
    memory of what earlier rounds settled (what ``src/`` used to do)."""

    class Walk(IRMutator):
        def generic_mutate(self, node):
            node = super().generic_mutate(node)
            if isinstance(node, Expr):
                for _ in range(8):
                    rewritten = _rewrite_once(node)
                    if rewritten is None:
                        break
                    node = rewritten
            return node

    for _ in range(max_rounds):
        new = Walk().mutate(node)
        if new == node:
            return new
        node = new
    return node


def _app_outputs():
    """``(id, thunk -> output Func)`` for every app of tests/test_apps.py."""
    for (module, params), name in zip(SIMPLE_APPS, SIMPLE_APP_IDS):
        for v in VARIANTS:
            yield f"{name}-{v}", lambda m=module, p=params, v=v: m.build(
                v, **p
            ).output
    for v in VARIANTS:
        yield f"resample-{v}", lambda v=v: resample.build_pass(
            v, in_size=256, out_size=57, columns=32
        ).output
        yield f"recursive_filter-{v}", lambda v=v: recursive_filter.build(
            v, samples=4096
        ).fir_pipeline.lowered.output
        yield f"dct_denoise-{v}", lambda v=v: dct_denoise.build(
            v, num_tiles=8
        ).pipeline.lowered.output
    for layout in ("standard", "vnni"):
        for preload in (False, True):
            yield f"amx-{layout}-preload{int(preload)}", (
                lambda la=layout, pre=preload: matmul.build_amx(
                    layout=la, preload_b=pre
                ).output
            )


class TestSimplifierEquivalence:
    """The settled-node memo must not change what the simplifier returns."""

    @settings(max_examples=80, deadline=None)
    @given(index_vectors(variables=("x", "y")))
    def test_generated_expressions(self, expr):
        assert simplify_expr(expr) == naive_simplify(expr)

    @pytest.mark.parametrize(
        "build_output",
        [thunk for _, thunk in _app_outputs()],
        ids=[name for name, _ in _app_outputs()],
    )
    def test_every_app(self, build_output):
        stmt = lower(build_output(), simplify=False).stmt
        assert simplify_stmt(stmt) == naive_simplify(stmt)


class TestAxiomSoundness:
    """EqSat axioms + extraction must preserve evaluation semantics."""

    @settings(max_examples=40, deadline=None)
    @given(index_vectors(max_lanes=32))
    def test_axioms_preserve_semantics(self, expr):
        egraph = EGraph()
        root = Encoder(egraph).expr(expr)
        ax, _ = axiomatic_rules()
        sup, _ = supporting_rules()
        run_phased(egraph, list(ax), list(sup), iterations=4)
        best = extract_best(egraph, root, hardboiled_cost_model())
        decoded = decode_expr(best)
        np.testing.assert_array_equal(evaluate(expr), evaluate(decoded))

    @settings(max_examples=40, deadline=None)
    @given(index_vectors(max_lanes=32))
    def test_encode_decode_roundtrip(self, expr):
        assert decode_expr(encode_expr(expr)) == expr


class TestLoadSemantics:
    @settings(max_examples=30, deadline=None)
    @given(index_vectors(max_lanes=32), st.integers(0, 99))
    def test_axioms_preserve_load_semantics(self, idx, seed):
        """Broadcast-push-into-load etc. must not change gathered data."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(512).astype(np.float32)
        buf = Buffer.from_numpy("A", data)
        lanes = idx.type.lanes
        load = Load(Float(32, lanes), "A", idx)
        wrapped = Broadcast(load, 2)

        egraph = EGraph()
        root = Encoder(egraph).expr(wrapped)
        ax, _ = axiomatic_rules()
        sup, _ = supporting_rules()
        run_phased(egraph, list(ax), list(sup), iterations=4)
        best = decode_expr(
            extract_best(egraph, root, hardboiled_cost_model())
        )
        a = Interpreter({"A": buf}).eval_vector(wrapped, {})
        b = Interpreter({"A": buf}).eval_vector(best, {})
        np.testing.assert_array_equal(a, b)


# -- runtime invariants --------------------------------------------------------


_PROPERTY_PIPELINES = {}


def _conv1d_pipeline():
    """One compiled conv1d/tensor app shared across property examples
    (equality saturation is too slow to re-run per example)."""
    if "conv1d" not in _PROPERTY_PIPELINES:
        from repro.apps import conv1d

        app = conv1d.build("tensor", taps=16, rows=1)
        app.backend = "compile"
        _PROPERTY_PIPELINES["conv1d"] = (app, app.compile())
    return _PROPERTY_PIPELINES["conv1d"]


class TestArenaReuseSoundness:
    """Recycled arena buffers and memoized operands must be invisible:
    any sequence of requests through one plan produces the exact bytes
    a fresh arena-less run produces."""

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 2**16), min_size=1, max_size=5))
    def test_plan_sequence_matches_fresh_runs(self, seeds):
        app, pipe = _conv1d_pipeline()
        plan = pipe.plan()
        params = list(app.inputs.items())
        for seed in seeds:
            rng = np.random.default_rng(seed)
            request = {
                params[0][0].name: rng.standard_normal(
                    params[0][1].shape
                ).astype(np.float32),
                params[1][0].name: params[1][1],
            }
            np.testing.assert_array_equal(
                plan.run(request), pipe.run(request)
            )


class TestFromNumpyZeroCopyPredicate:
    """``Buffer.from_numpy`` wraps zero-copy exactly when no copy is
    forced: C-contiguous source, matching storage dtype, not bf16."""

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["f4", "f8", "i4"]),
        target=st.sampled_from(["f32", "bf16", "i32", None]),
        contiguous=st.booleans(),
        seed=st.integers(0, 99),
    )
    def test_sharing_matches_reference_predicate(
        self, source, target, contiguous, seed
    ):
        rng = np.random.default_rng(seed)
        array = (rng.standard_normal(32) * 10).astype(source)
        if not contiguous:
            array = array[::2]
        dtype = {
            "f32": Float(32), "bf16": BFloat(16), "i32": Int(32), None: None
        }[target]
        if dtype is None and source == "f8":
            storage = np.float64
        elif dtype is None:
            storage = array.dtype.type
        else:
            storage = dtype.to_numpy()
        buf = Buffer.from_numpy("A", array, dtype=dtype)
        expect_share = (
            contiguous
            and array.dtype == np.dtype(storage)
            and target != "bf16"
        )
        assert np.shares_memory(buf.data, array) == expect_share
        # and regardless of sharing, the contents agree (bf16 rounds)
        if target != "bf16":
            np.testing.assert_array_equal(
                buf.data, array.astype(storage).ravel()
            )


class TestShmRingProtocol:
    """Seqlock slot handoff on the shared-memory ring: any writer/
    reader interleaving delivers exact bytes in FIFO order, slot
    exhaustion is backpressure (never an overwrite), wraparound is
    invisible, and a torn or corrupted frame is rejected — never
    silently served."""

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(["write", "read"]), max_size=60),
        slots=st.integers(1, 4),
        seed=st.integers(0, 999),
    )
    def test_random_interleavings_deliver_exact_fifo_bytes(
        self, ops, slots, seed
    ):
        from repro.service.shm import ShmRing

        rng = np.random.default_rng(seed)
        ring = ShmRing.create(slots=slots, slot_bytes=256)
        try:
            published = []  # (slot, payload) in publish order
            writes = 0
            for op in ops:
                if op == "write":
                    slot = ring.try_claim()
                    if slot is None:
                        # backpressure exactly when every slot is held
                        assert len(published) >= 0
                        assert ring.stats()["full_events"] >= 1
                        continue
                    length = int(rng.integers(1, ring.slot_bytes + 1))
                    payload = rng.integers(
                        0, 256, length, dtype=np.uint8
                    )
                    ring.payload(slot)[:length] = payload
                    ring.publish(slot, length)
                    published.append((slot, payload))
                    writes += 1
                elif published:
                    slot, payload = published.pop(0)
                    view = ring.read(slot)
                    np.testing.assert_array_equal(view, payload)
                    del view  # zero-copy: release only after last use
                    ring.release(slot)
            # drain: everything still published reads back intact
            for slot, payload in published:
                np.testing.assert_array_equal(ring.read(slot), payload)
                ring.release(slot)
            assert ring.stats()["writes"] == writes
            assert ring.stats()["corruptions"] == 0
        finally:
            ring.destroy()

    @settings(max_examples=15, deadline=None)
    @given(slots=st.integers(1, 3))
    def test_slot_exhaustion_backpressures_until_release(self, slots):
        from repro.service.shm import ShmRing

        ring = ShmRing.create(slots=slots, slot_bytes=64)
        try:
            claimed = [ring.try_claim() for _ in range(slots)]
            assert None not in claimed
            assert ring.try_claim() is None  # full: backpressure
            for slot in claimed:
                ring.publish(slot, 8)
            assert ring.try_claim() is None  # READY still occupies
            ring.read(claimed[0])
            assert ring.try_claim() is None  # READING still occupies
            ring.release(claimed[0])
            assert ring.try_claim() == claimed[0]  # freed slot reusable
        finally:
            ring.destroy()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 999), offset=st.integers(0, 63))
    def test_checksummed_frames_reject_corruption(self, seed, offset):
        from repro.service.shm import ShmCorruption, ShmRing

        rng = np.random.default_rng(seed)
        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            slot = ring.try_claim()
            payload = rng.integers(0, 256, 64, dtype=np.uint8)
            ring.payload(slot)[:] = payload
            ring.publish(slot, 64)
            # scribble over the published frame behind the seqlock
            ring.payload(slot)[offset] ^= 0xFF
            with np.testing.assert_raises(ShmCorruption):
                ring.read(slot)
            assert ring.stats()["corruptions"] == 1
        finally:
            ring.destroy()

    def test_reader_crash_mid_slot_is_reclaimed(self):
        """A reader that dies between ``read`` and ``release`` (here:
        an injected fault at the ``shm.read`` seam) strands its slot;
        the writer's ``reclaim`` frees every stranded slot so the ring
        survives the reader's replacement."""
        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultSpec
        from repro.service.shm import ShmRing

        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            for slot in (0, 1):
                claimed = ring.try_claim()
                ring.payload(claimed)[:8] = np.arange(8, dtype=np.uint8)
                ring.publish(claimed, 8)
            plan = FaultPlan(
                specs=[
                    FaultSpec(
                        "raise-in-kernel", site="shm.read", visits=(0,)
                    )
                ]
            )
            with faults.active(plan):
                with np.testing.assert_raises(Exception):
                    ring.read(0)  # the reader "crashes" mid-slot
            ring.read(1)  # second slot held in READING, never released
            assert ring.try_claim() is None  # both slots stranded
            assert ring.reclaim() == 2
            assert ring.try_claim() is not None
            assert ring.stats()["reclaims"] == 2
        finally:
            ring.destroy()

    def test_corrupt_shm_slot_fault_kind_is_rejected_by_checksum(self):
        """The ``corrupt-shm-slot`` FaultPlan kind flips bytes of the
        mapped frame between the seqlock check and the CRC check —
        checksummed rings must reject it, and a checksum-free ring
        documents why the CRC is on by default (garbage is served)."""
        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultSpec
        from repro.service.shm import ShmCorruption, ShmRing

        payload = np.arange(64, dtype=np.uint8)
        plan = FaultPlan(
            seed=9, specs=[FaultSpec("corrupt-shm-slot", visits=(0,))]
        )
        ring = ShmRing.create(slots=2, slot_bytes=64, checksum=True)
        try:
            slot = ring.try_claim()
            ring.payload(slot)[:] = payload
            ring.publish(slot, 64)
            with faults.active(plan):
                with np.testing.assert_raises(ShmCorruption):
                    ring.read(slot)
            ring.release(slot)
            # a fresh frame (the retry) reads back exactly
            slot = ring.try_claim()
            ring.payload(slot)[:] = payload
            ring.publish(slot, 64)
            np.testing.assert_array_equal(ring.read(slot), payload)
            ring.release(slot)
        finally:
            ring.destroy()
        unchecked = ShmRing.create(slots=2, slot_bytes=64, checksum=False)
        try:
            slot = unchecked.try_claim()
            unchecked.payload(slot)[:] = payload
            unchecked.publish(slot, 64)
            with faults.active(
                FaultPlan(
                    seed=9,
                    specs=[FaultSpec("corrupt-shm-slot", visits=(0,))],
                )
            ):
                served = unchecked.read(slot).copy()
            assert not np.array_equal(served, payload)  # garbage served
        finally:
            unchecked.destroy()


class TestFrameCodecRoundtrip:
    """The tensor frame codec: any batch of name->array dicts survives
    plan/write/read bit for bit, shared arrays stay *one* tensor in
    the frame and come back as one shared view object, and traffic the
    codec cannot carry is declined (pipe fallback), never mangled."""

    _DTYPES = ["<f4", "<f8", "<i4", "<i8", "<u1"]

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 5),
        names=st.integers(1, 3),
        dtype=st.sampled_from(_DTYPES),
        share=st.booleans(),
        seed=st.integers(0, 999),
    )
    def test_plan_write_read_roundtrip(
        self, batch, names, dtype, share, seed
    ):
        from repro.service.shm import (
            ShmRing,
            plan_frame,
            read_frame,
            write_frame,
        )

        rng = np.random.default_rng(seed)
        shared = (rng.standard_normal(6) * 10).astype(dtype)
        requests = []
        for _ in range(batch):
            request = {}
            for position in range(names):
                if share and position == names - 1:
                    request[f"t{position}"] = shared  # same object
                else:
                    request[f"t{position}"] = (
                        rng.standard_normal((2, 3)) * 10
                    ).astype(dtype)
            requests.append(request)
        plan = plan_frame(requests)
        assert plan is not None
        if share and batch > 1:
            # the shared array is stored once, not ``batch`` times
            assert len(plan.sources) < batch * names + 1
        ring = ShmRing.create(slots=2, slot_bytes=max(plan.length, 64))
        try:
            slot = write_frame(ring, plan)
            assert slot is not None
            unpacked = read_frame(ring, slot, plan.meta)
            assert len(unpacked) == batch
            for original, roundtrip in zip(requests, unpacked):
                for name, array in original.items():
                    np.testing.assert_array_equal(
                        roundtrip[name], array
                    )
                    assert not roundtrip[name].flags.writeable
            if share and batch > 1:
                first = unpacked[0][f"t{names - 1}"]
                assert all(
                    request[f"t{names - 1}"] is first
                    for request in unpacked
                )
                del first
            del unpacked  # zero-copy views must die before destroy()
        finally:
            ring.destroy()

    def test_unfit_traffic_is_declined_not_mangled(self):
        from repro.service.shm import ShmRing, plan_frame, write_frame

        assert plan_frame([None]) is None  # not a dict
        assert plan_frame([{1: np.zeros(2)}]) is None  # non-str key
        assert plan_frame([{"x": "nope"}]) is None  # not an array
        assert (
            plan_frame([{"x": np.array([object()])}]) is None
        )  # object dtype
        oversized = plan_frame([{"x": np.zeros(1024, dtype=np.uint8)}])
        assert oversized is not None
        ring = ShmRing.create(slots=1, slot_bytes=64)
        try:
            assert write_frame(ring, oversized) is None  # too big
            small = plan_frame([{"x": np.zeros(8, dtype=np.uint8)}])
            assert write_frame(ring, small) is not None
            assert write_frame(ring, small) is None  # ring full
        finally:
            ring.destroy()


class TestShuffleMemoIsolation:
    """The arena's shuffle-operand memo keys on weight *values*: two
    requests with different weights must never share a memo entry, and
    each must match its own fresh arena-less run bit for bit."""

    @settings(max_examples=8, deadline=None)
    @given(seed_a=st.integers(0, 2**16), seed_b=st.integers(0, 2**16))
    def test_distinct_weights_never_alias(self, seed_a, seed_b):
        app, pipe = _conv1d_pipeline()
        plan = pipe.plan()
        params = list(app.inputs.items())
        image = params[0][1]
        weights_shape = params[1][1].shape
        request_a = {
            params[0][0].name: image,
            params[1][0].name: np.random.default_rng(seed_a)
            .standard_normal(weights_shape)
            .astype(np.float32),
        }
        request_b = {
            params[0][0].name: image,
            params[1][0].name: np.random.default_rng(seed_b)
            .standard_normal(weights_shape)
            .astype(np.float32),
        }
        out_a = plan.run(request_a).copy()
        out_b = plan.run(request_b)
        # each sequenced run matches its own fresh, memo-less run
        np.testing.assert_array_equal(out_a, pipe.run(request_a))
        np.testing.assert_array_equal(out_b, pipe.run(request_b))
        if not np.array_equal(
            request_a[params[1][0].name], request_b[params[1][0].name]
        ):
            assert not np.array_equal(out_a, out_b)
