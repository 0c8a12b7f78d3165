"""Tests for HARDBOILED: encoding, axioms, and end-to-end selection."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import frontend as hl
from repro.eqsat import (
    EGraph,
    I,
    Sym,
    T,
    extract_best,
    run_phased,
)
from repro.hardboiled import (
    SelectionError,
    axiomatic_rules,
    compile_tensorized,
    contains_movement,
    decode_expr,
    decode_stmt,
    encode_expr,
    encode_stmt,
    hardboiled_cost_model,
    select_instructions,
    supporting_rules,
)
from repro.hardboiled.encode import Encoder, movement_wrapper
from repro.ir import (
    Add,
    BFloat,
    Broadcast,
    Call,
    Cast,
    Float,
    ForKind,
    IntImm,
    Load,
    Ramp,
    Store,
    Variable,
    VectorReduce,
    contains,
    print_stmt,
)
from repro.lowering import lower
from repro.runtime import Counters
from repro.runtime.executor import CompiledPipeline
from repro.targets.bfloat16 import round_to_bfloat16


class TestEncodeDecode:
    def roundtrip(self, e):
        assert decode_expr(encode_expr(e)) == e

    def test_literals_and_vars(self):
        self.roundtrip(IntImm(5))
        self.roundtrip(Variable("x"))

    def test_vector_nodes(self):
        self.roundtrip(Ramp(IntImm(0), IntImm(1), 8))
        self.roundtrip(Broadcast(Variable("v"), 16))
        self.roundtrip(
            VectorReduce("add", Broadcast(Cast(Float(32), IntImm(0)), 64), 8)
        )

    def test_load_with_type(self):
        e = Load(BFloat(16, 512), "A", Ramp(IntImm(0), IntImm(1), 512))
        self.roundtrip(e)

    def test_nested_arith(self):
        e = Add(Variable("a"), Cast(Float(32), Variable("b")))
        self.roundtrip(e)

    def test_call_roundtrip(self):
        e = Call(
            Float(32, 256),
            "tile_matmul",
            (Variable("c"), IntImm(16)),
        )
        self.roundtrip(e)

    def test_movement_markers(self):
        inner = Load(Float(32, 256), "mm", Ramp(IntImm(0), IntImm(1), 256))
        e = movement_wrapper("AMX2Mem", inner)
        term = encode_expr(e)
        assert term.head == "AMX2Mem"
        assert contains_movement(term)
        assert decode_expr(term) == e

    def test_store_stmt_roundtrip(self):
        s = Store(
            "out",
            Ramp(IntImm(0), IntImm(1), 4),
            Broadcast(Cast(Float(32), IntImm(1)), 4),
        )
        assert decode_stmt(encode_stmt(s)) == s

    def test_encoder_seeds_lanes(self):
        eg = EGraph()
        e = Broadcast(Variable("v"), 16)
        root = Encoder(eg).expr(e)
        lanes_16 = eg.add_literal("i64", 16)
        assert (eg.find(root), eg.find(lanes_16)) in eg.facts("has-lanes")


class TestAxioms:
    def run_axioms(self, expr):
        eg = EGraph()
        root = Encoder(eg).expr(expr)
        ax, _ = axiomatic_rules()
        sup, _ = supporting_rules()
        run_phased(eg, list(ax), list(sup), iterations=8)
        return eg, root

    def test_a_matrix_renesting(self):
        """The paper's §III-B mismatch: un-nested A index re-nests."""
        a_idx = Add(
            Broadcast(Ramp(IntImm(0), IntImm(1), 32), 256),
            Ramp(
                Broadcast(IntImm(0), 512),
                Broadcast(Variable("A.stride.1"), 512),
                16,
            ),
        )
        eg, root = self.run_axioms(a_idx)
        canon = T(
            "Ramp",
            T("Broadcast", T("Ramp", I(0), I(1), I(32)), I(16)),
            T("Broadcast", T("Var", Sym("A.stride.1")), I(512)),
            I(16),
        )
        found = eg.lookup_term(canon)
        assert found is not None and eg.equivalent(found, root)

    def test_broadcast_pushes_into_load(self):
        e = Broadcast(
            Load(BFloat(16, 512), "B", Ramp(IntImm(0), IntImm(1), 512)), 16
        )
        eg, root = self.run_axioms(e)
        pushed = T(
            "Load",
            T("BFloat16", I(8192)),
            Sym("B"),
            T("Broadcast", T("Ramp", I(0), I(1), I(512)), I(16)),
        )
        found = eg.lookup_term(pushed)
        assert found is not None and eg.equivalent(found, root)

    def test_flat_ramp_renests_to_tile(self):
        e = Ramp(Variable("base"), IntImm(1), 256)
        eg, root = self.run_axioms(e)
        nested = T(
            "Ramp",
            T("Ramp", T("Var", Sym("base")), I(1), I(16)),
            T("Broadcast", I(16), I(16)),
            I(16),
        )
        found = eg.lookup_term(nested)
        assert found is not None and eg.equivalent(found, root)

    def test_movement_cancellation(self):
        inner = Load(Float(32, 256), "mm", Ramp(IntImm(0), IntImm(1), 256))
        e = movement_wrapper("Mem2AMX", movement_wrapper("AMX2Mem", inner))
        eg, root = self.run_axioms(e)
        best = extract_best(eg, root, hardboiled_cost_model())
        assert not contains_movement(best)


def build_amx_matmul():
    A = hl.ImageParam(hl.BFloat(16), 2, name="A")
    B = hl.ImageParam(hl.BFloat(16), 2, name="B")
    x, y = hl.Var("x"), hl.Var("y")
    r = hl.RDom(0, 32, name="r")
    mm = hl.Func("mm")
    mm[y, x] = 0.0
    mm[y, x] += hl.f32(A[r, x]) * hl.f32(B[y, r])
    out_f = mm.in_()
    out_f.bound(x, 0, 16).bound(y, 0, 16).vectorize(y, 16).vectorize(x, 16)
    mm.store_in(hl.MemoryType.AMX_TILE).compute_at(out_f, "x")
    mm.vectorize(y, 16).vectorize(x, 16)
    mm.update().atomic().vectorize(r, 32).vectorize(y, 16).vectorize(x, 16)
    return out_f, A, B


def build_wmma_conv(n=1024, taps=16):
    K = hl.ImageParam(hl.Float(16), 1, name="K")
    I_img = hl.ImageParam(hl.Float(16), 1, name="I")
    x, xi, rxi = hl.Var("x"), hl.Var("xi"), hl.Var("rxi")
    conv = hl.Func("conv")
    output = hl.Func("output")
    rx = hl.RDom(0, taps, name="rx")
    conv[x] = 0.0
    conv[x] += hl.f32(K[rx]) * hl.f32(I_img[x + rx])
    output[x] = conv[x]
    output.bound(x, 0, n)
    output.split(x, x, xi, 256).vectorize(xi).gpu_blocks(x)
    conv.compute_at(output, x).store_in(
        hl.MemoryType.WMMA_ACCUMULATOR
    ).split(x, x, xi, 256).vectorize(xi)
    conv.update().split(x, x, xi, 256).split(rx, rx, rxi, 8).reorder(
        rxi, xi, rx, x
    ).atomic().vectorize(xi).vectorize(rxi)
    return output, I_img, K


class TestAMXSelection:
    def test_all_stores_map(self):
        out_f, A, B = build_amx_matmul()
        lo = lower(out_f)
        tz, report = select_instructions(lo)
        assert report.all_mapped
        assert len(report.selections) == 3  # zero, matmul, store
        text = print_stmt(tz.stmt)
        assert "tile_zero" in text
        assert "tile_matmul" in text
        assert "tile_store" in text
        assert "KWayInterleave" in text  # standard layout got swizzled

    def test_swizzle_hoisted_to_top(self):
        out_f, A, B = build_amx_matmul()
        lo = lower(out_f)
        tz, report = select_instructions(lo)
        # the KWayInterleave allocation must be outside the produce nest
        text = print_stmt(tz.stmt)
        assert text.index("KWayInterleave") < text.index("produce")

    def test_tensorized_result_matches_reference(self):
        out_f, A, B = build_amx_matmul()
        lo = lower(out_f)
        tz, report = select_instructions(lo)
        rng = np.random.default_rng(0)
        a = round_to_bfloat16(
            rng.standard_normal((16, 32)).astype(np.float32)
        )
        b = round_to_bfloat16(
            rng.standard_normal((32, 16)).astype(np.float32)
        )
        counters = Counters()
        out = CompiledPipeline(tz).run({A: a, B: b}, counters=counters)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-2, atol=1e-2)
        # every MAC ran on the (simulated) AMX unit
        assert counters.tensor_macs == 16 * 16 * 32
        assert counters.scalar_flops == 0

    def test_unmappable_accel_store_reported(self):
        # a non-MatMul computation scheduled into AMX cannot be selected
        inp = hl.ImageParam(hl.Float(32), 1, name="inp_um")
        x = hl.Var("x")
        f = hl.Func("f_um")
        g = f  # alias for clarity
        f[x] = inp[x] * 2.0
        out_f = f.in_()
        out_f.bound(x, 0, 256).vectorize(x, 256)
        f.store_in(hl.MemoryType.AMX_TILE).compute_at(out_f, "x")
        f.vectorize(x, 256)
        lo = lower(out_f)
        tz, report = select_instructions(lo, strict=False)
        assert not report.all_mapped
        with pytest.raises(SelectionError):
            select_instructions(lo, strict=True)


class TestWMMASelection:
    def test_conv_maps_to_m32n8k16(self):
        output, I_img, K = build_wmma_conv()
        lo = lower(output)
        tz, report = select_instructions(lo)
        assert report.all_mapped
        text = print_stmt(tz.stmt)
        assert "ConvolutionShuffle" in text
        assert "wmma.mma.sync" in text
        assert "32, 8, 16" in text  # the m32n8k16 geometry

    def test_warp_lane_loops_inserted(self):
        output, I_img, K = build_wmma_conv()
        lo = lower(output)
        tz, report = select_instructions(lo)
        from repro.ir import For

        lane_loops = []

        def find(node):
            if isinstance(node, For) and node.kind == ForKind.GPU_LANE:
                lane_loops.append(node)
            return False

        contains(tz.stmt, find)
        assert len(lane_loops) >= 2

    def test_conv_correct_and_all_tensor(self):
        output, I_img, K = build_wmma_conv()
        lo = lower(output)
        tz, report = select_instructions(lo)
        rng = np.random.default_rng(1)
        sig = rng.standard_normal(1024 + 24).astype(np.float16)
        ker = rng.standard_normal(16).astype(np.float16)
        counters = Counters()
        out = CompiledPipeline(tz).run({I_img: sig, K: ker}, counters=counters)
        ref = np.array(
            [
                (sig[i : i + 16].astype(np.float32) * ker.astype(np.float32)).sum()
                for i in range(1024)
            ]
        )
        np.testing.assert_allclose(out, ref, rtol=1e-2, atol=1e-2)
        assert counters.scalar_flops == 0
        # 4 segments x 2 tap-blocks x m32n8k16
        assert counters.tensor_macs == 4 * 2 * 32 * 8 * 16

    def test_toeplitz_rebuilt_per_tap_block(self):
        output, I_img, K = build_wmma_conv()
        lo = lower(output)
        tz, report = select_instructions(lo)
        text = print_stmt(tz.stmt)
        # the shuffle depends on rx, so it lives inside the rx loop
        assert text.index("for conv.s1.rx") < text.index("ConvolutionShuffle")

    def test_compile_tensorized_helper(self):
        output, I_img, K = build_wmma_conv()
        pipeline, report = compile_tensorized(output)
        assert report.all_mapped
        rng = np.random.default_rng(2)
        sig = rng.standard_normal(1024 + 24).astype(np.float16)
        ker = rng.standard_normal(16).astype(np.float16)
        out = pipeline.run({I_img: sig, K: ker})
        assert out.shape == (1024,)


class TestCUDAOnlyUntouched:
    def test_non_accel_stores_not_processed(self):
        inp = hl.ImageParam(hl.Float(32), 1, name="inp_cu")
        x = hl.Var("x")
        f = hl.Func("f_cu")
        f[x] = inp[x] * 2.0
        f.bound(x, 0, 64).vectorize(x, 64)
        lo = lower(f)
        tz, report = select_instructions(lo)
        assert len(report.selections) == 0
        assert tz.stmt == lo.stmt


SELECTION_GOLDEN = Path(__file__).with_name("selection_digest.json")

#: compile the 18-program benchmark catalog and print, per program, what
#: selection decided: run in a child so the hash seed can be chosen
_CATALOG_DIGEST = """
import hashlib, json
from benchmarks.perf.catalog import WORKLOADS
from repro.hardboiled import select_instructions
from repro.lowering import lower
from repro.runtime.kernel_cache import KernelCache, fingerprint_stmt

cache, out = KernelCache(), {}
for workload in WORKLOADS.values():
    for program in workload.programs:
        lowered = lower(program.job.build_app().output)
        tensorized, report = select_instructions(lowered, strict=True)
        key = fingerprint_stmt(tensorized.stmt)
        source = cache.get(tensorized, key=key).source or ""
        out[program.name] = {
            "stmt": key,
            "kernel": hashlib.sha1(source.encode()).hexdigest(),
            "counts": {
                k: v for k, v in report.eqsat_profile.items()
                if not k.endswith("_s")
            },
            "stores": [
                [s.original.name, s.kind, s.mapped, s.egraph_classes,
                 s.egraph_nodes, s.matches]
                for s in report.selections
            ],
        }
print(json.dumps(out, sort_keys=True))
"""


@functools.lru_cache(maxsize=None)
def _catalog_digests(seeds):
    """``_CATALOG_DIGEST``'s output, one child process per hash seed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    children = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        children.append(
            subprocess.Popen(
                [sys.executable, "-c", _CATALOG_DIGEST],
                env=env,
                cwd=root,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    digests = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        digests.append(json.loads(out))
    return digests


def _selection_rows(digest):
    """A digest without its kernel-source hashes: what selection decided,
    and nothing codegen decides."""
    return {
        name: {k: v for k, v in program.items() if k != "kernel"}
        for name, program in digest.items()
    }


def test_selection_does_not_depend_on_the_hash_seed():
    """Two processes with different ``PYTHONHASHSEED`` must select the
    same code for every catalog program: same statement fingerprint,
    same kernel source, same e-graph sizes and match counts.  (Set
    iteration order used to reach the extractor's tie-breaks.)"""
    first, second = _catalog_digests(("0", "1"))
    assert len(first) == 18
    assert all(
        row[2] for program in first.values() for row in program["stores"]
    )
    for name in first:
        assert first[name] == second[name], name


def test_selection_matches_the_golden():
    """Every catalog program's selected statement, eqsat counts and
    per-store rows equal ``selection_digest.json``.  Regenerate it (only
    for an intended change of selection) with ``PYTHONPATH=src:. python
    tests/test_hardboiled.py``."""
    first, _ = _catalog_digests(("0", "1"))
    rows = _selection_rows(first)
    golden = json.loads(SELECTION_GOLDEN.read_text())
    assert sorted(rows) == sorted(golden)
    for name in golden:
        assert rows[name] == golden[name], name


if __name__ == "__main__":
    (digest,) = _catalog_digests(("0",))
    SELECTION_GOLDEN.write_text(
        json.dumps(_selection_rows(digest), indent=1, sort_keys=True) + "\n"
    )
