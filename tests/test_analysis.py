"""Mutation self-test of the static verification subsystem.

Each analyzer must *detect the defect class it exists for*: every test
here seeds one specific defect — an unbound IR variable, an
out-of-bounds index, an illegal accumulator access, an unsound rewrite
rule, an unpaired arena take, a nondeterministic kernel, a lane store
without its disjointness proof, an unguarded field — and asserts the corresponding check fires with the right id.
A verifier that silently passes broken input is worse than none, so
this suite is the analyzers' own regression gate (``pytest -m
analysis``).

The flip side is the clean run: every fig-6 app at both schedule
variants must produce **zero** findings end-to-end (lowered IR,
tensorized IR, scalar kernel, batch-axis kernel), and the verifier must
stay cheap enough (< ~5% of compile time) that ``warm_compile`` can
afford to gate every restore through it by default.
"""

import dataclasses
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import SIMPLE_APP_IDS, SIMPLE_APPS, VARIANTS

from repro.analysis import (
    AnalysisError,
    apply_waivers,
    errors,
    lint_concurrency,
    lint_kernel_source,
    lint_order,
    lint_rule,
    lint_rules,
    lint_source,
    parse_waivers,
    verify_ir,
)
from repro.analysis.lint_rules import lint_family
from repro.analysis.sweep import FIG6_APPS, PINNED_KERNELS, _analyze
from repro.eqsat.ematch import CompiledQuery
from repro.eqsat.pattern import PApp, PLit, PVar
from repro.eqsat.rules import GuardAtom, rewrite
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.types import Float, Int

pytestmark = pytest.mark.analysis

f32 = Float(32)
i32 = Int(32)


def checks(findings):
    return {finding.check for finding in findings}


def alloc(body, name="buf", extent=8, memory_type=S.MemoryType.HEAP):
    return S.Allocate(name, f32, (E.IntImm(extent),), memory_type, body)


def store(name="buf", index=0, value=1.0):
    return S.Store(name, E.IntImm(index), E.FloatImm(value))


def acc_realizations(name="acc"):
    """A realization map declaring one WMMA accumulator buffer."""
    return {
        name: SimpleNamespace(
            func=None,
            extents=(E.IntImm(256),),
            memory_type=S.MemoryType.WMMA_ACCUMULATOR,
        )
    }


# -- IR verifier: one seeded defect per well-formedness class ------------------


class TestVerifyIRMutations:
    def test_use_before_def(self):
        bad = alloc(
            S.Store("buf", E.Variable("phantom"), E.FloatImm(0.0))
        )
        assert "ir.use-before-def" in checks(verify_ir(bad))

    def test_bound_loop_var_is_fine(self):
        ok = alloc(
            S.For(
                "i",
                E.IntImm(0),
                E.IntImm(8),
                S.ForKind.SERIAL,
                S.Store("buf", E.Variable("i"), E.FloatImm(0.0)),
            )
        )
        assert verify_ir(ok) == []

    def test_out_of_bounds_store(self):
        bad = alloc(store(index=16), extent=8)
        assert "ir.out-of-bounds" in checks(verify_ir(bad))

    def test_out_of_bounds_through_loop_range(self):
        # i in [0, 12) stores into an 8-element buffer
        bad = alloc(
            S.For(
                "i",
                E.IntImm(0),
                E.IntImm(12),
                S.ForKind.SERIAL,
                S.Store("buf", E.Variable("i"), E.FloatImm(0.0)),
            ),
            extent=8,
        )
        assert "ir.out-of-bounds" in checks(verify_ir(bad))

    def test_undeclared_buffer_store(self):
        bad = store(name="ghost")
        assert "ir.undeclared-buffer" in checks(verify_ir(bad))

    def test_allocate_shadowing_warns(self):
        bad = alloc(alloc(store()))
        findings = verify_ir(bad)
        assert "ir.allocate-shadow" in checks(findings)
        assert errors(findings) == []  # a warning, not a gate failure

    def test_plain_accumulator_store_rejected_post_selection(self):
        bad = S.Store("acc", E.IntImm(0), E.FloatImm(0.0))
        findings = verify_ir(
            bad, acc_realizations(), phase="tensorized"
        )
        assert "ir.accumulator-access" in checks(findings)

    def test_plain_accumulator_load_rejected_post_selection(self):
        bad = S.Evaluate(E.Load(f32, "acc", E.IntImm(0)))
        findings = verify_ir(
            bad, acc_realizations(), phase="tensorized"
        )
        assert "ir.accumulator-access" in checks(findings)

    def test_intrinsic_accumulator_traffic_is_legal(self):
        # the post-selection idiom: fill/mma values stored whole-tile,
        # accumulator state read only as an intrinsic operand
        fill = S.Store(
            "acc",
            E.IntImm(0),
            E.Call(f32, "wmma.fill.sync", (), E.CallType.INTRINSIC),
        )
        movement = S.Evaluate(
            E.Call(
                f32,
                "wmma.store.d.sync",
                (E.Load(f32, "acc", E.IntImm(0)),),
                E.CallType.INTRINSIC,
            )
        )
        ok = S.Block((fill, movement))
        assert verify_ir(ok, acc_realizations(), phase="tensorized") == []

    def test_unmapped_stores_are_exempt_from_accumulator_rule(self):
        # strict=False selection can leave a store in plain form; the
        # interpreter fallback executes it, so it must not be an error
        bad = S.Store("acc", E.IntImm(0), E.FloatImm(0.0))
        findings = verify_ir(
            bad, acc_realizations(), phase="tensorized", unmapped={"acc"}
        )
        assert "ir.accumulator-access" not in checks(findings)

    def test_lowered_phase_has_no_accumulator_rule(self):
        bad = S.Store("acc", E.IntImm(0), E.FloatImm(0.0))
        assert verify_ir(bad, acc_realizations(), phase="lowered") == []

    def test_type_kind_mismatch(self):
        realizations = {
            "q": SimpleNamespace(
                func=SimpleNamespace(dtype=i32),
                extents=(E.IntImm(8),),
                memory_type=S.MemoryType.HEAP,
            )
        }
        bad = S.Store("q", E.IntImm(0), E.FloatImm(1.5))
        findings = verify_ir(bad, realizations)
        assert "ir.type-mismatch" in checks(findings)
        assert errors(findings) != []

    def test_stride_zero_env_read(self):
        bad = alloc(
            S.Store(
                "buf", E.Variable("data.stride.0"), E.FloatImm(0.0)
            )
        )
        assert "ir.env-stride-zero" in checks(verify_ir(bad))


# -- rule-soundness lint -------------------------------------------------------


def _commute():
    x, y = PVar("x"), PVar("y")
    return rewrite(
        "commute-add", PApp("Add", (x, y)), PApp("Add", (y, x))
    )


class TestLintRulesMutations:
    def test_unbound_rhs_variable(self):
        bad = rewrite(
            "bad-rhs",
            PApp("Add", (PVar("x"), PVar("y"))),
            PVar("nowhere"),
        )
        assert "rules.unbound-rhs" in checks(lint_rule(bad))

    def test_impure_guard(self):
        bad = rewrite(
            "bad-guard",
            PApp("Add", (PVar("x"), PVar("y"))),
            PVar("x"),
            when=[GuardAtom("spawn_subprocess", (PVar("x"),))],
        )
        assert "rules.impure-guard" in checks(lint_rule(bad))

    def test_delta_safety_tamper_detected(self):
        rule = _commute()
        good = rule.compiled()
        tampered = CompiledQuery(
            good.instructions,
            good.n_regs,
            good.var_slots,
            not good.delta_safe,
        )
        findings = lint_rule(rule, compiled=tampered)
        assert "rules.delta-safety" in checks(findings)

    def test_missing_anchor_detected(self):
        """A delta-safe program must be startable from every table it
        reads; one anchored program short, a change there is missed."""
        rule = rewrite(
            "nested",
            PApp("Add", (PApp("Mul", (PVar("x"), PVar("y"))), PVar("z"))),
            PVar("x"),
        )
        good = rule.compiled()
        assert len(good.anchors) == 2
        tampered = CompiledQuery(
            good.instructions, good.n_regs, good.var_slots, good.delta_safe
        )
        tampered.anchors = tampered.anchors[:1]
        findings = lint_rule(rule, compiled=tampered)
        assert "rules.delta-safety" in checks(findings)
        assert lint_rule(rule) == []

    def test_untampered_rule_is_clean(self):
        assert lint_rule(_commute()) == []

    def test_shadowed_lhs_across_family(self):
        first = rewrite(
            "first", PApp("Add", (PVar("x"), PVar("y"))), PVar("x")
        )
        # alpha-renamed copy of the same query: can never contribute
        shadow = rewrite(
            "shadow", PApp("Add", (PVar("a"), PVar("b"))), PVar("a")
        )
        findings = lint_family("fam", [first, shadow])
        assert "rules.shadowed-lhs" in checks(findings)

    def test_trivial_rewrite(self):
        x, y = PVar("x"), PVar("y")
        noop = rewrite(
            "noop", PApp("Add", (x, y)), PApp("Add", (x, y))
        )
        assert "rules.trivial-rewrite" in checks(lint_rule(noop))

    def test_unknown_intrinsic_on_the_rhs(self):
        """A misspelt intrinsic name still selects and compiles — to an
        interpreter-fallback call nothing handles."""

        def emits(name):
            call = PApp(
                "Call",
                (
                    PApp("Float32", (PLit("i64", 4),)),
                    PLit("str", name),
                    PApp("Args", (PVar("x"), PVar("y"))),
                ),
            )
            return rewrite("emit", PApp("Add", (PVar("x"), PVar("y"))), call)

        assert "rules.unknown-intrinsic" in checks(lint_rule(emits("tile_lod")))
        for known in ("tile_load", "WMMA2Mem", "TileCompact", "exp"):
            assert lint_rule(emits(known)) == []

    def test_registered_families_are_sound(self):
        assert lint_rules() == []


# -- generated-kernel lint -----------------------------------------------------

KERNEL_HEADER = "def _kernel(buffers, env, _interp, _arena):\n"


class TestLintKernelsMutations:
    def test_dropped_give(self):
        src = (
            KERNEL_HEADER
            + "    t0 = _take(_arena, 'tmp', None, (8,), None)\n"
            + "    return None\n"
        )
        assert "kernels.arena-pairing" in checks(lint_kernel_source(src))

    def test_give_without_take(self):
        src = KERNEL_HEADER + "    _give(_arena, mystery)\n"
        assert "kernels.arena-pairing" in checks(lint_kernel_source(src))

    def test_paired_take_give_is_clean(self):
        src = (
            KERNEL_HEADER
            + "    t0 = _take(_arena, 'tmp', None, (8,), None)\n"
            + "    _give(_arena, t0)\n"
            + "    return None\n"
        )
        assert lint_kernel_source(src) == []

    def test_unordered_float_fold(self):
        """A fold whose order numpy picks (here seeded as a stacked
        nest's fold would be if written the short way) is flagged, each
        spelling; an integer-typed sum and the wrapping int32 helper are
        not."""
        src = (
            KERNEL_HEADER
            + "    a = np.add.reduce(p, axis=0)\n"
            + "    b = p.sum(axis=0)\n"
            + "    c = np.sum(p, axis=0, dtype=np.float32)\n"
        )
        findings = lint_kernel_source(src)
        assert checks(findings) == {"kernels.unordered-fold"}
        assert len(findings) == 3
        src = (
            KERNEL_HEADER
            + "    np.add(v, _wrapsum(p), out=v)\n"
            + "    w = np.add.reduce(p, axis=0, dtype=np.int32)\n"
        )
        assert lint_kernel_source(src) == []

    def test_injected_wall_clock(self):
        src = (
            KERNEL_HEADER
            + "    import time\n"
            + "    t = time.time()\n"
            + "    return t\n"
        )
        assert "kernels.nondeterminism" in checks(lint_kernel_source(src))

    def test_hash_seeded_iteration_order(self):
        src = (
            KERNEL_HEADER
            + "    for k in set(buffers):\n"
            + "        pass\n"
        )
        assert "kernels.order-dependence" in checks(
            lint_kernel_source(src)
        )

    def test_set_walked_in_engine_source(self, tmp_path):
        """The same check, pointed at hand-written source: it follows a
        set through a name, an attribute declared in another module and
        a function's return annotation; ``sorted`` and membership are
        fine, and a waiver must name the check."""
        (tmp_path / "graph.py").write_text(
            "from typing import Set\n"
            "class Graph:\n"
            "    def __init__(self):\n"
            "        self.nodes: Set[int] = set()\n"
            "def live(graph) -> set:\n"
            "    return {n for n in sorted(graph.nodes)}\n"
        )
        (tmp_path / "walk.py").write_text(
            "def walk(graph, extra):\n"
            "    seen = set(extra)\n"
            "    out = [n for n in graph.nodes]\n"         # line 3
            "    for n in seen | {0}:\n"                    # line 4
            "        out.append(n)\n"
            "    out.extend(list(live(graph)))\n"          # line 6
            "    for n in seen:  # analysis: ignore[order-dependence]\n"
            "        pass\n"
            "    return out if 3 in seen else sorted(seen)\n"
        )
        findings = lint_order(
            [str(tmp_path / "graph.py"), str(tmp_path / "walk.py")]
        )
        assert checks(findings) == {"kernels.order-dependence"}
        assert sorted(f.site for f in findings) == [
            "walk.py:3", "walk.py:4", "walk.py:6"
        ]

    def test_engine_source_walks_no_set(self):
        assert lint_order() == []

    def test_unpublished_env_key(self):
        src = KERNEL_HEADER + "    return env['mystery.knob']\n"
        findings = lint_kernel_source(
            src, published_env={"data.stride.1"}
        )
        assert "kernels.env-key" in checks(findings)

    def test_published_env_key_is_clean(self):
        src = KERNEL_HEADER + "    return env['data.stride.1']\n"
        assert lint_kernel_source(
            src, published_env={"data.stride.1"}
        ) == []

    def test_batch_size_requires_batched_plan(self):
        src = KERNEL_HEADER + "    return env['batch.size']\n"
        published = {"data.stride.1"}
        assert "kernels.env-key" in checks(
            lint_kernel_source(src, published_env=published)
        )
        assert (
            lint_kernel_source(
                src, published_env=published, batched=True
            )
            == []
        )

    LANE_REGION = (
        KERNEL_HEADER
        + "    d0 = buffers['out'].data\n"
        + "    for l0 in range(0, 16, _LANES):\n"
        + "        x0 = table[l0:l0 + _LANES]\n"
        + "        t0 = _take_b(_arena, 'acc', None, (8,), None, len(x0))\n"
        + "        d1 = t0.data\n"
        + "        d1[:, 0:8] = 1.0\n"
        + "{certificate}"
        + "        d0[_idx(_vec_b(x0 * 8) + steps)] = d1[:, 0:8]\n"
        + "        _give(_arena, t0)\n"
    )

    def test_lane_store_without_its_proof(self):
        src = self.LANE_REGION.format(certificate="")
        assert "kernels.lane-store" in checks(lint_kernel_source(src))

    def test_lane_store_with_a_proof_that_does_not_hold(self):
        # lanes 8 apart cannot each own a 16-wide ramp
        src = self.LANE_REGION.format(
            certificate="        ('lanes-disjoint', 'd0', ((1, 16), (8, 16)))\n"
        )
        assert "kernels.lane-store" in checks(lint_kernel_source(src))

    def test_certified_lane_store_is_clean(self):
        src = self.LANE_REGION.format(
            certificate="        ('lanes-disjoint', 'd0', ((1, 8), (8, 16)))\n"
        )
        assert lint_kernel_source(src) == []

    #: a lane loop under the batch: one ``B × N`` axis, a per-lane tile
    #: store into the stacked output (one request per row)
    MERGED_REGION = (
        KERNEL_HEADER
        + "    b0 = buffers['output']\n"
        + "    _B = env['batch.size']\n"
        + "    w0 = max(1, _ROWS // _B)\n"
        + "    for l0 in range(0, 16, w0):\n"
        + "        x0 = table[l0:l0 + w0]\n"
        + "        n0 = len(x0) * _B\n"
        + "        t0 = _take_b(_arena, 'acc', None, (256,), None, n0)\n"
        + "        d1 = t0.data\n"
        + "        d1[:, 0:256] = 1.0\n"
        + "{certificate}"
        + "        _C1(_arena, b0, ((256 * x0), 256), 16, 16, 16,"
        + " np.array(d1[:, 0:256]))\n"
        + "        _give(_arena, t0)\n"
    )

    def test_merged_axis_store_without_its_proof(self):
        src = self.MERGED_REGION.format(certificate="")
        findings = lint_kernel_source(src, batched=True)
        assert checks(findings) == {"kernels.lane-store"}
        assert "through b0" in findings[0].message

    def test_certified_merged_axis_store_is_clean(self):
        src = self.MERGED_REGION.format(
            certificate="        ('lanes-disjoint', 'b0',"
            " ((16, 16), (1, 16), (256, 16)))\n"
        )
        assert lint_kernel_source(src, batched=True) == []

    WIDENED = (
        KERNEL_HEADER
        + "    d0 = buffers['A'].data\n"
        + "    b0 = buffers['A']\n"
        + "    b1 = buffers['out']\n"
        + "    w0, e0 = isa.widen(b0)\n"
        + "{write}"
        + "    _C1(_arena, b1, 0, 16, 16, 16,"
        + " _C2(_arena, c, _C3(_arena, w0, 0, 16, 16, 16, True), b, e0))\n"
    )

    @pytest.mark.parametrize(
        "write",
        ["    d0[0:16] = 1.0\n", "    _C1(_arena, b0, 0, 16, 16, 16, t)\n"],
        ids=["subscript", "tile-store"],
    )
    def test_widening_a_buffer_the_kernel_writes(self, write):
        findings = lint_kernel_source(self.WIDENED.format(write=write))
        assert checks(findings) == {"kernels.stale-widen"}
        assert "'A'" in findings[0].message

    def test_widening_a_read_only_input_is_clean(self):
        assert lint_kernel_source(self.WIDENED.format(write="")) == []

    HOISTED = (
        KERNEL_HEADER
        + "    d0 = buffers['A'].data\n"
        + "    b0 = buffers['A']\n"
        + "    b1 = buffers['K']\n"
        + "    w0, e0 = isa.widen(b0)\n"
        + "    _h1 = isa.stack(_arena, w0, e0, 0, 8, 16, 16, ((4, 8), ))\n"
        + "    _h2 = _C4(_arena, isa, dtype, b1, 0, ((4, 8), ), 16, 8, 8, 1)\n"
        + "    for x0 in range(0, 4):\n"
        + "        _t3 = _h2[x0]\n"
        + "{write}"
        + "        acc = _C5(_tiles(acc, 16, 16), _h1[x0].copy(), _t3)\n"
    )

    @pytest.mark.parametrize(
        "write, culprit",
        [
            ("        d0[0:16] = 1.0\n", "_h1"),
            ("        _C6(_arena, b1, 0, 8, 8, 8, t)\n", "_h2"),
            ("        _C3[0:16] = 0.0\n", "_C3"),
        ],
        ids=["tile-stack", "shuffle-stack", "constant"],
    )
    def test_hoisting_over_a_buffer_the_kernel_writes(self, write, culprit):
        findings = lint_kernel_source(self.HOISTED.format(write=write))
        assert "kernels.stale-hoist" in checks(findings)
        assert any(
            f.check == "kernels.stale-hoist" and culprit in f.message
            for f in findings
        )

    def test_hoisting_over_read_only_inputs_is_clean(self):
        assert lint_kernel_source(self.HOISTED.format(write="")) == []

    def test_syntax_error(self):
        assert "kernels.syntax" in checks(
            lint_kernel_source("def _kernel(:\n")
        )


# -- concurrency lint ----------------------------------------------------------

_COUNTER_TEMPLATE = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: {lock}

    def bump(self):
        with self._lock:
            self.count += 1

    def peek(self):
        return self.count{waiver}
"""


class TestLintConcurrencyMutations:
    def test_unguarded_read(self):
        src = _COUNTER_TEMPLATE.format(lock="_lock", waiver="")
        findings = lint_source(src, "counter.py")
        assert "concurrency.guarded-by" in checks(findings)
        assert any("peek" in f.message for f in findings)

    def test_waiver_suppresses_the_finding(self):
        src = _COUNTER_TEMPLATE.format(
            lock="_lock", waiver="  # analysis: ignore[guarded-by]"
        )
        assert lint_source(src, "counter.py") == []

    def test_unknown_lock_warns(self):
        src = _COUNTER_TEMPLATE.format(
            lock="_mutex", waiver="  # analysis: ignore[guarded-by]"
        )
        findings = lint_source(src, "counter.py")
        assert "concurrency.unknown-lock" in checks(findings)

    def test_locked_suffix_convention(self):
        src = """
import threading

class Q:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []  # guarded-by: _lock

    def _drain_locked(self):
        return list(self.items)

    def drain(self):
        with self._lock:
            return self._drain_locked()
"""
        assert lint_source(src, "q.py") == []

    def test_inline_guard_comment_does_not_leak_to_next_line(self):
        src = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.a = 0  # guarded-by: _lock
        self.b = 0

    def read_b(self):
        return self.b
"""
        assert lint_source(src, "c.py") == []

    def test_repo_modules_are_clean(self):
        assert errors(lint_concurrency()) == []


# -- waiver plumbing -----------------------------------------------------------


def test_waiver_parse_and_apply():
    src = "x = 1\ny = 2  # analysis: ignore[out-of-bounds]\nz = 3\n"
    waivers = parse_waivers(src)
    # the short form waives the fully-qualified check id
    assert waivers.waived(2, "ir.out-of-bounds")
    assert not waivers.waived(1, "ir.out-of-bounds")
    assert not waivers.waived(2, "ir.use-before-def")

    from repro.analysis import ERROR, Finding

    hit = Finding("ir.out-of-bounds", ERROR, "m.py:2", "boom")
    miss = Finding("ir.out-of-bounds", ERROR, "m.py:3", "boom")
    kept = apply_waivers(
        [hit, miss], waivers, lambda f: int(f.site.rsplit(":", 1)[1])
    )
    assert kept == [miss]


# -- clean run: the fig-6 suite produces zero findings -------------------------


#: every fig-6 kernel's ``loops`` / ``macs`` rows, per-request and
#: batched (first input and output stacked, as served), as ``python -m
#: repro.analysis kernels --fig6`` prints them: a change to what the
#: emitter decides shows here, string for string
KERNEL_ROWS = Path(__file__).with_name("kernel_rows_fig6.txt")


def kernel_rows(label, kernel):
    return [f"loop {label}: {v} x{n}: {s}" for v, n, s in kernel.loops] + [
        f"mac {label}: {i}: A {a}, B {b}" for i, a, b in kernel.macs
    ]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "module,params",
    SIMPLE_APPS,
    ids=SIMPLE_APP_IDS,
)
def test_fig6_clean(module, params, variant):
    name = module.__name__.rsplit(".", 1)[-1]
    findings, label, kernel, batched = _analyze(name, params, variant)
    assert findings == [], "\n".join(str(f) for f in findings)
    golden = KERNEL_ROWS.read_text().splitlines()
    for label, kernel in ((label, kernel), (f"{label}/batched", batched)):
        rows = kernel_rows(label, kernel)
        assert rows == [
            r for r in golden if r.split(":")[0].endswith(f" {label}")
        ]


@pytest.mark.parametrize(
    "label,module,builder,variant,params",
    PINNED_KERNELS,
    ids=[pinned[0] for pinned in PINNED_KERNELS],
)
def test_pinned_kernels_clean(label, module, builder, variant, params):
    """The benchmark catalog's kernels outside the fig-6 suite — the
    resample pass, both AMX layouts and the two DP4A apps — lint clean,
    and their rows are golden too."""
    findings, label, kernel, batched = _analyze(
        module, params, variant, builder, label
    )
    assert findings == [], "\n".join(str(f) for f in findings)
    golden = KERNEL_ROWS.read_text().splitlines()
    for label, kernel in ((label, kernel), (f"{label}/batched", batched)):
        assert kernel_rows(label, kernel) == [
            r for r in golden if r.split(":")[0].endswith(f" {label}")
        ]


def test_fig6_table_matches_conftest():
    """The sweep's app table must track the tier-1 suite's sizes."""
    expected = {
        m.__name__.rsplit(".", 1)[-1]: p for m, p in SIMPLE_APPS
    }
    assert dict(FIG6_APPS) == expected


def test_kernels_section_says_why_a_mac_operand_is_widened(
    capsys, monkeypatch
):
    """``kernels`` prints one row per MAC call site.  Seeded: A is
    arithmetic on a load and B comes from a float32 scratch, so both
    stay wide and the row names each reason."""
    from repro.analysis import __main__ as cli
    from repro.ir.builders import intrinsic, make_add
    from repro.runtime.codegen import compile_stmt

    def tile(name, *args):
        return intrinsic(
            Float(16, 256), name, *args, E.IntImm(16), E.IntImm(16)
        )

    a = tile("wmma.load.a.sync", E.StringImm("A"), E.IntImm(0), E.IntImm(16))
    b = tile("wmma.load.b.sync", E.StringImm("tmp"), E.IntImm(0), E.IntImm(16))
    fill = intrinsic(
        Float(32, 256), "wmma.fill.sync", E.IntImm(16), E.IntImm(16),
        E.FloatImm(0.0, Float(32)),
    )
    mac = intrinsic(
        Float(32, 256), "wmma.mma.sync", fill, make_add(a, a), b,
        E.IntImm(16), E.IntImm(16), E.IntImm(16),
    )
    store = intrinsic(
        Float(32), "wmma.store.d.sync", E.StringImm("out"), E.IntImm(0),
        E.IntImm(16), E.IntImm(16), E.IntImm(16), mac,
    )
    seeded = compile_stmt(
        S.Allocate(
            "tmp", Float(32), (E.IntImm(256),), S.MemoryType.STACK,
            S.Evaluate(store),
        )
    )
    monkeypatch.setattr(cli, "QUICK_APPS", (("seeded", {}),))
    monkeypatch.setattr(
        cli, "_analyze", lambda name, params, variant: ([], name, seeded, None)
    )
    assert cli.main(["kernels"]) == 0
    assert (
        "mac seeded: wmma.mma.sync: A not a direct load,"
        " B buffer is float32" in capsys.readouterr().out
    )
    monkeypatch.undo()
    assert cli.main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert (
        "mac conv1d[tensor]: wmma.mma.sync: A widened once per call,"
        " B narrow" in out
    )
    assert "mac conv1d[cuda]" not in out
    # the registry comes first: every core a kernel may call, by role
    lines = out.splitlines()
    assert lines[0].startswith("intrinsic ")
    assert "intrinsic wmma.mma.sync: wmma mac, pure" in lines[:20]
    assert "intrinsic tile_store: amx store, mutates its buffer" in lines[:20]
    assert "intrinsic TileExpand: - elementwise, pure" in lines[:20]


# -- gates ---------------------------------------------------------------------


def test_lower_verify_gate_runs_and_times():
    from repro.apps import conv1d
    from repro.lowering import lower

    app = conv1d.build("tensor", taps=8, rows=1)
    lowered = lower(app.output, verify=True)
    assert "verify" in lowered.pass_seconds


def test_select_verify_gate(tmp_path):
    from repro.apps import conv1d
    from repro.hardboiled import select_instructions
    from repro.lowering import lower

    app = conv1d.build("tensor", taps=8, rows=1)
    tensorized, _ = select_instructions(
        lower(app.output), strict=True, verify=True
    )
    assert "verify" in tensorized.pass_seconds


def test_broken_ir_raises_analysis_error():
    from repro.analysis import check_ir

    bad = alloc(store(index=64), extent=8)
    with pytest.raises(AnalysisError) as excinfo:
        check_ir(bad)
    assert "ir.out-of-bounds" in str(excinfo.value)


def test_stale_artifact_demoted_to_miss(tmp_path):
    """A tampered artifact statement fails verification on restore and
    is recompiled cold instead of being executed."""
    from repro.apps import conv1d
    from repro.lowering import lower
    from repro.service.compile import warm_select
    from repro.service.store import ArtifactStore

    app = conv1d.build("tensor", taps=8, rows=1)
    store_ = ArtifactStore(tmp_path)
    cold = warm_select(lower(app.output), store_, backend="interpret")
    assert not cold.hit
    warm = warm_select(lower(app.output), store_, backend="interpret")
    assert warm.hit

    artifact = store_.get(cold.key)
    lowered = lower(app.output)
    out_name = lowered.output.name
    bad_stmt = S.Store(out_name, E.IntImm(10**9), E.FloatImm(0.0))
    store_.put(cold.key, dataclasses.replace(artifact, stmt=bad_stmt))

    demoted = warm_select(lower(app.output), store_, backend="interpret")
    assert not demoted.hit  # verification failed -> recompiled cold
    # the recompile overwrote the poisoned artifact; next call hits
    healed = warm_select(lower(app.output), store_, backend="interpret")
    assert healed.hit


def test_verify_cost_stays_under_five_percent():
    """The warm-path gate must be cheap relative to a cold compile, or
    it could not default on in ``warm_compile``."""
    from repro.apps import attention
    from repro.hardboiled import select_instructions
    from repro.lowering import lower

    app = attention.build("tensor", length=128)
    start = time.perf_counter()
    lowered = lower(app.output)
    tensorized, _ = select_instructions(lowered, strict=True)
    compile_seconds = time.perf_counter() - start

    verify_seconds = min(
        _timed_verify(tensorized) for _ in range(3)
    )
    assert verify_seconds < 0.05 * compile_seconds, (
        f"verify_ir took {verify_seconds * 1e3:.1f} ms against a"
        f" {compile_seconds * 1e3:.1f} ms compile"
    )


def _timed_verify(tensorized):
    start = time.perf_counter()
    findings = verify_ir(
        tensorized.stmt, tensorized.realizations, phase="tensorized"
    )
    assert findings == []
    return time.perf_counter() - start


def test_batched_kernel_lookup_is_thread_safe():
    """Regression for the unlocked batched-kernel memo: concurrent
    ``CompiledPipeline.kernel`` lookups must all observe the one cached
    kernel."""
    from repro.apps import conv1d

    app = conv1d.build("tensor", taps=16, rows=1)
    app.backend = "compile"
    pipe = app.compile()
    names = [p.name for p in app.inputs]
    split = frozenset([names[0], pipe.output_name])
    first = pipe.kernel(split)
    assert first is not None

    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        results.append(pipe.kernel(split))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(kernel is first for kernel in results)
    assert not pipe._unbatchable
