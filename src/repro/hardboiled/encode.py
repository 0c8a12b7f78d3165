"""Encoding Halide IR to EqSat terms and decoding extracted terms back.

The term language follows the paper's Fig. 9: ``Store``/``Evaluate``
statements; ``Load``, ``Cast``, ``Call``, arithmetic, ``Ramp``,
``Broadcast``, ``VectorReduceAdd``, data-movement markers
(``Mem2AMX``/``AMX2Mem``/``Mem2WMMA``/``WMMA2Mem``), variables and
literals.  Types are first-class terms (``(BFloat16 8192)``) so rules can
compute lane counts via ``MultiplyLanes``.

While encoding, the known lane count of every subexpression is asserted
into the ``has-lanes`` relation — the base facts the supporting
(type-analysis) rules extend to rule-created terms.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..eqsat import EGraph, I, F, Sym, T, Term
from ..ir import (
    EQ,
    GE,
    GT,
    LE,
    LT,
    NE,
    Add,
    BFloat,
    Broadcast,
    Call,
    CallType,
    Cast,
    DataType,
    Div,
    Evaluate,
    Expr,
    Float,
    FloatImm,
    Int,
    IntImm,
    Load,
    Max,
    Min,
    Mod,
    Mul,
    Ramp,
    Select,
    Stmt,
    Store,
    StringImm,
    Sub,
    TypeCode,
    UInt,
    Variable,
    VectorReduce,
)

#: data movement marker heads (paper: loc_to_loc)
MOVEMENT_HEADS = (
    "Mem2AMX",
    "AMX2Mem",
    "Mem2WMMA",
    "WMMA2Mem",
    "Mem2DP4A",
    "DP4A2Mem",
)

_BINARY_HEADS = {
    Add: "Add",
    Sub: "Sub",
    Mul: "Mul",
    Div: "Div",
    Mod: "Mod",
    Min: "Min",
    Max: "Max",
    LT: "LT",
    LE: "LE",
    GT: "GT",
    GE: "GE",
    EQ: "EQcmp",
    NE: "NEcmp",
}
_HEAD_TO_BINARY = {v: k for k, v in _BINARY_HEADS.items()}

_TYPE_HEADS = {
    (TypeCode.FLOAT, 64): "Float64",
    (TypeCode.FLOAT, 32): "Float32",
    (TypeCode.FLOAT, 16): "Float16",
    (TypeCode.BFLOAT, 16): "BFloat16",
    (TypeCode.INT, 8): "Int8",
    (TypeCode.INT, 16): "Int16",
    (TypeCode.INT, 32): "Int32",
    (TypeCode.INT, 64): "Int64",
    (TypeCode.UINT, 8): "UInt8",
    (TypeCode.UINT, 1): "Bool1",
}
_HEAD_TO_TYPE = {v: k for k, v in _TYPE_HEADS.items()}


class EncodeError(RuntimeError):
    pass


def encode_type(dtype: DataType) -> Term:
    head = _TYPE_HEADS.get((dtype.code, dtype.bits))
    if head is None:
        raise EncodeError(f"cannot encode type {dtype}")
    return T(head, I(dtype.lanes))


def decode_type(term: Term) -> DataType:
    entry = _HEAD_TO_TYPE.get(term.head)
    if entry is None or len(term.args) != 1:
        raise EncodeError(f"cannot decode type term {term}")
    code, bits = entry
    lanes = int(term.args[0].payload)
    return DataType(code, bits, lanes)


class Encoder:
    """Encodes expressions/statements into an e-graph, seeding has-lanes."""

    def __init__(self, egraph: EGraph) -> None:
        self.egraph = egraph

    def _seed_lanes(self, eclass: int, lanes: int) -> None:
        lit = self.egraph.add_literal("i64", lanes)
        self.egraph.assert_fact("has-lanes", (eclass, lit))

    def expr(self, e: Expr) -> int:
        eclass = self.egraph.add_term(encode_expr(e))
        self._seed_all_lanes(e)
        return eclass

    def _seed_all_lanes(self, e: Expr) -> None:
        term = encode_expr(e)
        eclass = self.egraph.add_term(term)
        self._seed_lanes(eclass, e.type.lanes)
        for child in e.children():
            self._seed_all_lanes(child)

    def stmt(self, s: Stmt) -> int:
        if isinstance(s, Store):
            eclass = self.egraph.add_term(encode_stmt(s))
            self._seed_all_lanes(s.index)
            self._seed_all_lanes(s.value)
            return eclass
        if isinstance(s, Evaluate):
            eclass = self.egraph.add_term(encode_stmt(s))
            self._seed_all_lanes(s.value)
            return eclass
        raise EncodeError(f"cannot encode statement {type(s).__name__}")


def encode_expr(e: Expr) -> Term:
    if isinstance(e, IntImm):
        return I(e.value)
    if isinstance(e, FloatImm):
        return F(e.value)
    if isinstance(e, StringImm):
        return Sym(e.value)
    if isinstance(e, Variable):
        return T("Var", Sym(e.name))
    if isinstance(e, Cast):
        return T("Cast", encode_type(e.dtype), encode_expr(e.value))
    if isinstance(e, Load):
        return T(
            "Load",
            encode_type(e.dtype),
            Sym(e.name),
            encode_expr(e.index),
        )
    if isinstance(e, Ramp):
        return T(
            "Ramp", encode_expr(e.base), encode_expr(e.stride), I(e.count)
        )
    if isinstance(e, Broadcast):
        return T("Broadcast", encode_expr(e.value), I(e.count))
    if isinstance(e, VectorReduce):
        if e.op != "add":
            raise EncodeError(f"cannot encode reduce op {e.op!r}")
        return T("VectorReduceAdd", I(e.result_lanes), encode_expr(e.value))
    if isinstance(e, Call):
        if e.name in MOVEMENT_HEADS:
            return T(e.name, encode_expr(e.args[0]))
        return T(
            "Call",
            encode_type(e.dtype),
            Sym(e.name),
            T("Args", *(encode_expr(a) for a in e.args)),
        )
    if isinstance(e, Select):
        return T(
            "Select",
            encode_expr(e.condition),
            encode_expr(e.true_value),
            encode_expr(e.false_value),
        )
    head = _BINARY_HEADS.get(type(e))
    if head is not None:
        return T(head, encode_expr(e.a), encode_expr(e.b))
    raise EncodeError(f"cannot encode {type(e).__name__}")


def encode_stmt(s: Stmt) -> Term:
    if isinstance(s, Store):
        return T(
            "Store", Sym(s.name), encode_expr(s.value), encode_expr(s.index)
        )
    if isinstance(s, Evaluate):
        return T("Evaluate", encode_expr(s.value))
    raise EncodeError(f"cannot encode statement {type(s).__name__}")


def movement_wrapper(kind: str, value: Expr) -> Call:
    """Wrap an expression in a data-movement marker call."""
    if kind not in MOVEMENT_HEADS:
        raise EncodeError(f"unknown movement marker {kind!r}")
    return Call(value.type, kind, (value,), CallType.INTRINSIC)


#: markers whose survival means selection FAILED, per accelerator kind.
#: An AMX tile can only reach memory through tile_store, so a surviving
#: AMX2Mem is unrealizable; WMMA fragments live in per-thread registers,
#: so reading one pointwise (WMMA2Mem) is legal — it is how fused
#: post-ops (bias/ReLU, coring) consume accumulator tiles.  DP4A
#: accumulators likewise live in ordinary vector registers (there is no
#: dedicated tile file), so outbound DP4A2Mem reads are legal too.
FATAL_MARKERS = {
    "amx": ("Mem2AMX", "AMX2Mem"),
    "wmma": ("Mem2WMMA",),
    "dp4a": ("Mem2DP4A",),
}


def contains_movement(term: Term, kind: str = None) -> bool:
    """True when a fatal data-movement marker survives in a term."""
    heads = MOVEMENT_HEADS if kind is None else FATAL_MARKERS[kind]
    if term.head in heads:
        return True
    return any(contains_movement(a, kind) for a in term.args)


def decode_expr(term: Term) -> Expr:
    if term.is_literal():
        kind, value = term.head
        if kind == "i64":
            return IntImm(int(value))
        if kind == "f64":
            return FloatImm(float(value))
        if kind == "str":
            return StringImm(str(value))
        raise EncodeError(f"unknown literal kind {kind!r}")
    head = term.head
    if head == "Var":
        return Variable(str(term.args[0].payload))
    if head == "Cast":
        return Cast(decode_type(term.args[0]), decode_expr(term.args[1]))
    if head == "Load":
        return Load(
            decode_type(term.args[0]),
            str(term.args[1].payload),
            decode_expr(term.args[2]),
        )
    if head == "Ramp":
        return Ramp(
            decode_expr(term.args[0]),
            decode_expr(term.args[1]),
            int(term.args[2].payload),
        )
    if head == "Broadcast":
        return Broadcast(decode_expr(term.args[0]), int(term.args[1].payload))
    if head == "VectorReduceAdd":
        return VectorReduce(
            "add", decode_expr(term.args[1]), int(term.args[0].payload)
        )
    if head == "Call":
        dtype = decode_type(term.args[0])
        name = str(term.args[1].payload)
        args_term = term.args[2]
        if args_term.head != "Args":
            raise EncodeError(f"malformed Call term {term}")
        args = tuple(decode_expr(a) for a in args_term.args)
        return Call(dtype, name, args, CallType.INTRINSIC)
    if head == "ExprVar":
        inner = decode_expr(term.args[0])
        return Call(inner.type, "$ExprVar", (inner,), CallType.INTRINSIC)
    if head in MOVEMENT_HEADS:
        inner = decode_expr(term.args[0])
        return Call(inner.type, head, (inner,), CallType.INTRINSIC)
    if head == "Select":
        return Select(
            decode_expr(term.args[0]),
            decode_expr(term.args[1]),
            decode_expr(term.args[2]),
        )
    binary = _HEAD_TO_BINARY.get(head)
    if binary is not None:
        return binary(decode_expr(term.args[0]), decode_expr(term.args[1]))
    raise EncodeError(f"cannot decode term head {head!r}")


def decode_stmt(term: Term) -> Stmt:
    if term.head == "Store":
        return Store(
            str(term.args[0].payload),
            decode_expr(term.args[2]),
            decode_expr(term.args[1]),
        )
    if term.head == "Evaluate":
        return Evaluate(decode_expr(term.args[0]))
    raise EncodeError(f"cannot decode statement term {term.head!r}")
