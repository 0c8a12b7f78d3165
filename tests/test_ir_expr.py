"""Tests for IR expression nodes, builders, printer, and analysis."""

import base64
import copy
import dataclasses
import pickle

import pytest

from repro import ir
from repro.frontend.func import FuncCall
from repro.ir import (
    Add,
    Broadcast,
    Cast,
    FloatImm,
    Float,
    IntImm,
    Int,
    Load,
    Mul,
    Ramp,
    Sub,
    Variable,
    VectorReduce,
    Store,
    cast,
    const,
    expr_size,
    free_variables,
    make_add,
    make_broadcast,
    make_div,
    make_mod,
    make_mul,
    make_ramp,
    print_expr,
    print_stmt,
    substitute,
    vector_reduce_add,
)


def var(name="x", dtype=Int(32)):
    return Variable(name, dtype)


class TestNodeTypes:
    def test_ramp_type_widen(self):
        r = Ramp(IntImm(0), IntImm(1), 8)
        assert r.type == Int(32, 8)

    def test_nested_ramp_type(self):
        inner = Ramp(IntImm(0), IntImm(1), 8)
        outer = Ramp(inner, Broadcast(IntImm(32), 8), 16)
        assert outer.type == Int(32, 128)

    def test_broadcast_type(self):
        b = Broadcast(Ramp(IntImm(0), IntImm(1), 4), 3)
        assert b.type == Int(32, 12)

    def test_vector_reduce_type(self):
        v = Broadcast(FloatImm(1.0), 64)
        vr = VectorReduce("add", v, 8)
        assert vr.type == Float(32, 8)

    def test_vector_reduce_divisibility(self):
        v = Broadcast(FloatImm(1.0), 10)
        with pytest.raises(ValueError):
            VectorReduce("add", v, 3)

    def test_load_lane_mismatch(self):
        with pytest.raises(ValueError):
            Load(Float(32, 8), "A", IntImm(0))

    def test_store_lane_mismatch(self):
        with pytest.raises(ValueError):
            Store("A", Ramp(IntImm(0), IntImm(1), 4), FloatImm(0.0))

    def test_structural_equality(self):
        a = Add(IntImm(1), IntImm(2))
        b = Add(IntImm(1), IntImm(2))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Sub(IntImm(1), IntImm(2))


class TestBuilders:
    def test_add_identity(self):
        x = var()
        assert make_add(x, IntImm(0)) is x
        assert make_add(IntImm(0), x) is x

    def test_mul_identity_and_zero(self):
        x = var()
        assert make_mul(x, IntImm(1)) is x
        assert make_mul(x, IntImm(0)) == IntImm(0)

    def test_constant_folding(self):
        assert make_add(IntImm(2), IntImm(3)) == IntImm(5)
        assert make_mul(FloatImm(2.0), FloatImm(4.0)) == FloatImm(8.0)

    def test_div_floor_semantics(self):
        assert make_div(IntImm(-7), IntImm(2)) == IntImm(-4)

    def test_mod_euclidean(self):
        assert make_mod(IntImm(-7), IntImm(2)) == IntImm(1)

    def test_operator_sugar(self):
        x = var()
        e = x + 1
        assert isinstance(e, Add)
        e = 2 * x
        assert isinstance(e, Mul)

    def test_promotion_inserts_cast(self):
        x = var("x", Int(32))
        f = var("f", Float(32))
        e = make_add(x, f)
        assert e.type == Float(32)
        assert isinstance(e.a, Cast)

    def test_lane_broadcasting(self):
        x = var("x", Float(32, 8))
        e = make_add(x, FloatImm(1.0))
        assert e.type == Float(32, 8)
        assert isinstance(e.b, Broadcast)

    def test_ramp_count_one_collapses(self):
        x = var()
        assert make_ramp(x, IntImm(1), 1) is x

    def test_broadcast_count_one_collapses(self):
        x = var()
        assert make_broadcast(x, 1) is x

    def test_vector_reduce_same_lanes_collapses(self):
        v = Broadcast(FloatImm(1.0), 8)
        assert vector_reduce_add(v, 8) is v

    def test_cast_fold(self):
        assert cast(Float(32), IntImm(3)) == FloatImm(3.0)
        assert cast(Int(32), FloatImm(3.7)) == IntImm(3)

    def test_cast_broadcast_scalar_to_vector(self):
        e = cast(Float(32, 4), FloatImm(1.0))
        assert isinstance(e, Broadcast)

    def test_const_vector(self):
        e = const(0.0, Float(32, 512))
        assert isinstance(e, Broadcast)
        assert e.type == Float(32, 512)


class TestPrinter:
    def test_broadcast_terse(self):
        assert print_expr(Broadcast(IntImm(1), 32)) == "x32(1)"

    def test_ramp(self):
        assert print_expr(Ramp(IntImm(0), IntImm(1), 8)) == "ramp(0, 1, 8)"

    def test_nested_like_paper_fig2(self):
        # A[ramp(ramp(0, 8, 4), x4(1), 8)] — the 4x8 transpose of Fig. 2
        idx = Ramp(Ramp(IntImm(0), IntImm(8), 4), Broadcast(IntImm(1), 4), 8)
        load = Load(Float(32, 32), "A", idx)
        assert print_expr(load) == "A[ramp(ramp(0, 8, 4), x4(1), 8)]"

    def test_store(self):
        s = Store("out", Ramp(IntImm(0), IntImm(1), 4), Broadcast(FloatImm(0.0), 4))
        assert print_stmt(s) == "out[ramp(0, 1, 4)] = x4(0.0f)"

    def test_cast(self):
        e = Cast(Float(32), var())
        assert print_expr(e) == "cast<float32>(x)"


class TestAnalysis:
    def test_expr_size(self):
        e = make_add(var("a"), make_mul(var("b"), var("c")))
        assert expr_size(e) == 5

    def test_free_variables(self):
        e = make_add(var("a"), make_mul(var("b"), IntImm(2)))
        assert free_variables(e) == {"a", "b"}

    def test_substitute(self):
        e = make_add(var("a"), var("b"))
        e2 = substitute(e, {"a": IntImm(1)})
        assert free_variables(e2) == {"b"}

    def test_substitute_is_noop_without_matches(self):
        e = make_add(var("a"), var("b"))
        assert substitute(e, {"z": IntImm(1)}) is e


def specimens():
    """One freshly built node of every concrete Expr/Stmt class."""
    x, y, t = var("x"), var("y"), var("t")
    lt, one, half = ir.LT(x, y), IntImm(1), FloatImm(0.5)
    lanes = Ramp(x, one, 4)
    load = Load(Float(32, 4), "A", lanes)
    call = ir.Call(Int(32), "tile_zero", (IntImm(16), ir.StringImm("buf")))
    store = Store("out", x, half)
    binary = [
        cls(x, y)
        for cls in (Add, Sub, Mul, ir.Div, ir.Mod, ir.Min, ir.Max)
    ]
    compare = [
        cls(x, y) for cls in (ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE)
    ]
    return binary + compare + [
        IntImm(3),
        half,
        ir.StringImm("buf"),
        x,
        Cast(Float(32), x),
        ir.And(lt, ir.GT(x, y)),
        ir.Or(lt, ir.GT(x, y)),
        ir.Not(lt),
        ir.Select(lt, x, y),
        load,
        lanes,
        Broadcast(y, 4),
        VectorReduce("add", load, 2),
        call,
        ir.Let("t", Add(x, one), Mul(t, y)),
        ir.Shuffle((lanes,), (3, 2, 1, 0)),
        FuncCall(Float(32), "f", (x, y), ir.CallType.HALIDE, None),
        Store("out", lanes, load),
        ir.Provide("f", (x, y), half),
        ir.For("x", IntImm(0), y, ir.ForKind.SERIAL, store),
        ir.Block((store, ir.Evaluate(call))),
        ir.Allocate(
            "tmp", Float(32), (y, IntImm(4)), ir.MemoryType.STACK, store
        ),
        ir.LetStmt("t", Add(x, one), Store("out", t, half)),
        ir.IfThenElse(lt, store, None),
        ir.IfThenElse(lt, store, Store("out", y, half)),
        ir.Evaluate(call),
        ir.ProducerConsumer("f", True, store),
    ]


def walk(node):
    yield node
    for child in node.children():
        yield from walk(child)


def facts(node):
    """Every cached fact of every node of the subtree, read (and so
    stored) in one go."""
    return [
        (n.free_vars, n.size, n.type if isinstance(n, ir.Expr) else None,
         n.buffers if isinstance(n, ir.Expr) else None)
        for n in walk(node)
    ]


def cached(node):
    """Names of the facts currently stored anywhere in the subtree."""
    return {
        k
        for n in walk(node)
        for k in vars(n).keys() - {f.name for f in dataclasses.fields(n)}
    }


class _ReferenceFreeVars(ir.IRVisitor):
    """The scoped walk the cached ``free_vars`` fact replaced."""

    def __init__(self):
        self.bound, self.free = [], set()

    def visit_Variable(self, node):
        if node.name not in self.bound:
            self.free.add(node.name)

    def _binder(self, node, *outer):
        for e in outer:
            self.visit(e)
        self.bound.append(node.name)
        self.visit(node.body)
        self.bound.pop()

    def visit_Let(self, node):
        self._binder(node, node.value)

    visit_LetStmt = visit_Let

    def visit_For(self, node):
        self._binder(node, node.min_expr, node.extent)


#: ``pickle.dumps(specimens(), protocol=4)`` as written by the commit
#: before node facts existed (PR 11, 93bcdc9)
PARENT_PICKLE = """
gASVPwgAAAAAAABdlCiMDXJlcHJvLmlyLmV4cHKUjANBZGSUk5QpgZR9lCiMAWGUaAGMCFZhcmlh
YmxllJOUKYGUfZQojARuYW1llIwBeJSMBWR0eXBllIwOcmVwcm8uaXIudHlwZXOUjAhEYXRhVHlw
ZZSTlCmBlH2UKIwEY29kZZRoDowIVHlwZUNvZGWUk5SMA2ludJSFlFKUjARiaXRzlEsgjAVsYW5l
c5RLAXVidWKMAWKUaAgpgZR9lChoC4wBeZRoDWgRdWJ1YmgBjANTdWKUk5QpgZR9lChoBmgJaBto
HHViaAGMA011bJSTlCmBlH2UKGgGaAloG2gcdWJoAYwDRGl2lJOUKYGUfZQoaAZoCWgbaBx1YmgB
jANNb2SUk5QpgZR9lChoBmgJaBtoHHViaAGMA01pbpSTlCmBlH2UKGgGaAloG2gcdWJoAYwDTWF4
lJOUKYGUfZQoaAZoCWgbaBx1YmgBjAJFUZSTlCmBlH2UKGgGaAloG2gcdWJoAYwCTkWUk5QpgZR9
lChoBmgJaBtoHHViaAGMAkxUlJOUKYGUfZQoaAZoCWgbaBx1YmgBjAJMRZSTlCmBlH2UKGgGaAlo
G2gcdWJoAYwCR1SUk5QpgZR9lChoBmgJaBtoHHViaAGMAkdFlJOUKYGUfZQoaAZoCWgbaBx1YmgB
jAZJbnRJbW2Uk5QpgZR9lCiMBXZhbHVllEsDaA1oECmBlH2UKGgTaBhoGUsgaBpLAXVidWJoAYwI
RmxvYXRJbW2Uk5QpgZR9lChoU0c/4AAAAAAAAGgNaBApgZR9lChoE2gVjAVmbG9hdJSFlFKUaBlL
IGgaSwF1YnViaAGMCVN0cmluZ0ltbZSTlCmBlH2UaFOMA2J1ZpRzYmgJaAGMBENhc3SUk5QpgZR9
lChoDWgQKYGUfZQoaBNoXmgZSyBoGksBdWJoU2gJdWJoAYwDQW5klJOUKYGUfZQoaAZoQCmBlH2U
KGgGaAloG2gcdWJoG2hIKYGUfZQoaAZoCWgbaBx1YnViaAGMAk9ylJOUKYGUfZQoaAZobmgbaEgp
gZR9lChoBmgJaBtoHHVidWJoAYwDTm90lJOUKYGUfZRoU2huc2JoAYwGU2VsZWN0lJOUKYGUfZQo
jAljb25kaXRpb26UaG6MCnRydWVfdmFsdWWUaAmMC2ZhbHNlX3ZhbHVllGgcdWJoAYwETG9hZJST
lCmBlH2UKGgNaBApgZR9lChoE2heaBlLIGgaSwR1YmgLjAFBlIwFaW5kZXiUaAGMBFJhbXCUk5Qp
gZR9lCiMBGJhc2WUaAmMBnN0cmlkZZRoUCmBlH2UKGhTSwFoDWhUdWKMBWNvdW50lEsEdWJ1YmiN
aAGMCUJyb2FkY2FzdJSTlCmBlH2UKGhTaBxok0sEdWJoAYwMVmVjdG9yUmVkdWNllJOUKYGUfZQo
jAJvcJSMA2FkZJRoU2iFjAxyZXN1bHRfbGFuZXOUSwJ1YmgBjARDYWxslJOUKYGUfZQoaA1oECmB
lH2UKGgTaBhoGUsgaBpLAXViaAuMCXRpbGVfemVyb5SMBGFyZ3OUaFApgZR9lChoU0sQaA1oVHVi
aGApgZR9lGhTaGNzYoaUjAljYWxsX3R5cGWUjAlpbnRyaW5zaWOUdWJoAYwDTGV0lJOUKYGUfZQo
aAuMAXSUaFNoAymBlH2UKGgGaAloG2iRdWKMBGJvZHmUaCQpgZR9lChoBmgIKYGUfZQoaAtosmgN
aBF1YmgbaBx1YnViaAGMB1NodWZmbGWUk5QpgZR9lCiMB3ZlY3RvcnOUaI2FlIwHaW5kaWNlc5Qo
SwNLAksBSwB0lHVijBNyZXByby5mcm9udGVuZC5mdW5jlIwIRnVuY0NhbGyUk5QpgZR9lChoDWgQ
KYGUfZQoaBNoXmgZSyBoGksBdWJoC4wBZpRopmgJaByGlGisjAZoYWxpZGWUjARmdW5jlE51YowN
cmVwcm8uaXIuc3RtdJSMBVN0b3JllJOUKYGUfZQoaAuMA291dJRoimiNaFNohXViaM2MB1Byb3Zp
ZGWUk5QpgZR9lChoC2jJaKZoCWgchpRoU2hYdWJozYwDRm9ylJOUKYGUfZQoaAtoDIwIbWluX2V4
cHKUaFApgZR9lChoU0sAaA1oVHVijAZleHRlbnSUaByMBGtpbmSUaM2MB0ZvcktpbmSUk5SMA2Zv
cpSFlFKUaLVozymBlH2UKGgLaNJoimgJaFNoWHVidWJozYwFQmxvY2uUk5QpgZR9lIwFc3RtdHOU
aOZozYwIRXZhbHVhdGWUk5QpgZR9lGhTaKFzYoaUc2JozYwIQWxsb2NhdGWUk5QpgZR9lChoC4wD
dG1wlGgNaBApgZR9lChoE2heaBlLIGgaSwF1YowHZXh0ZW50c5RoHGhQKYGUfZQoaFNLBGgNaFR1
YoaUjAttZW1vcnlfdHlwZZRozYwKTWVtb3J5VHlwZZSTlIwFc3RhY2uUhZRSlGi1aOZ1YmjNjAdM
ZXRTdG10lJOUKYGUfZQoaAtosmhTaAMpgZR9lChoBmgJaBtokXViaLVozymBlH2UKGgLaNJoimi4
aFNoWHVidWJozYwKSWZUaGVuRWxzZZSTlCmBlH2UKGiAaG6MCXRoZW5fY2FzZZRo5owJZWxzZV9j
YXNllE51YmoMAQAAKYGUfZQoaIBobmoPAQAAaOZqEAEAAGjPKYGUfZQoaAto0miKaBxoU2hYdWJ1
YmjuKYGUfZRoU2ihc2JozYwQUHJvZHVjZXJDb25zdW1lcpSTlCmBlH2UKGgLaMmMC2lzX3Byb2R1
Y2VylIhotWjmdWJlLg==
"""


class TestNodeFacts:
    """Cached facts (``type``, ``free_vars``, ``size``, ``buffers``) are
    right, and invisible to everything that looks at a node's *fields*."""

    def test_specimens_cover_every_concrete_class(self):
        def concrete(cls):
            for sub in cls.__subclasses__():
                if not sub.__name__.startswith("_"):
                    yield sub
                yield from concrete(sub)

        expected = set(concrete(ir.Expr)) | set(concrete(ir.Stmt))
        assert {type(s) for s in specimens()} == expected

    @pytest.mark.parametrize("index", range(len(specimens())))
    def test_facts_match_a_fresh_walk(self, index):
        node = specimens()[index]
        for n in walk(node):
            reference = _ReferenceFreeVars()
            reference.visit(n)
            assert n.free_vars == reference.free
            assert n.size == expr_size(n) == sum(1 for _ in walk(n))
            if isinstance(n, ir.Expr):  # loads and buffer-name arguments
                assert n.buffers == {
                    m.name if isinstance(m, ir.Load) else m.value
                    for m in walk(n)
                    if isinstance(m, (ir.Load, ir.StringImm))
                }

    @pytest.mark.parametrize("index", range(len(specimens())))
    def test_reading_facts_is_invisible(self, index):
        node, twin = specimens()[index], specimens()[index]
        before = (pickle.dumps(twin), repr(twin), hash(twin))
        answers = facts(node)
        assert {"free_vars", "size"} <= cached(node)
        assert (pickle.dumps(node), repr(node), hash(node)) == before
        assert node == twin
        # replace() re-runs __init__ on the fields (children are shared)
        replaced = dataclasses.replace(node)
        assert replaced == node and vars(replaced).keys() == {
            f.name for f in dataclasses.fields(node)
        }
        for remade in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert remade == node and type(remade) is type(node)
            assert not cached(remade)
            assert facts(remade) == answers

    def test_nodes_pickled_before_facts_existed(self):
        raw = base64.b64decode(PARENT_PICKLE)
        fresh = specimens()
        # the wire format did not move: same bytes out, facts read or not
        assert pickle.dumps(fresh, protocol=4) == raw
        answers = [facts(node) for node in fresh]
        assert pickle.dumps(fresh, protocol=4) == raw
        old = pickle.loads(raw)
        assert old == fresh
        assert not any(cached(node) for node in old)
        assert [facts(node) for node in old] == answers
