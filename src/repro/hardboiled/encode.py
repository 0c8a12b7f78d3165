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

from typing import Dict

from ..eqsat import EGraph, ENode, Term
from ..ir import (
    EQ,
    GE,
    GT,
    LE,
    LT,
    NE,
    Add,
    Broadcast,
    Call,
    CallType,
    Cast,
    DataType,
    Div,
    Evaluate,
    Expr,
    FloatImm,
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


def encode_type(dtype: DataType, mk=Term):
    head = _TYPE_HEADS.get((dtype.code, dtype.bits))
    if head is None:
        raise EncodeError(f"cannot encode type {dtype}")
    return mk(head, (mk(("i64", dtype.lanes)),))


def decode_type(term: Term) -> DataType:
    entry = _HEAD_TO_TYPE.get(term.head)
    if entry is None or len(term.args) != 1:
        raise EncodeError(f"cannot decode type term {term}")
    code, bits = entry
    lanes = int(term.args[0].payload)
    return DataType(code, bits, lanes)


class Encoder:
    """Encodes expressions/statements into an e-graph, seeding has-lanes.

    One bottom-up pass adds the tree (every IR node once, its e-class
    remembered); a second walk asserts each subexpression's lane count.
    """

    def __init__(self, egraph: EGraph) -> None:
        self.egraph = egraph
        #: id(IR node) -> its e-class
        self._class_of: Dict[int, int] = {}

    def _mk(self, head, args=()) -> int:
        return self.egraph.add_node(ENode(head, args))

    def _seed_all_lanes(self, e: Expr) -> None:
        lit = self.egraph.add_literal("i64", e.type.lanes)
        self.egraph.assert_fact("has-lanes", (self._class_of[id(e)], lit))
        for child in e.children():
            self._seed_all_lanes(child)

    def expr(self, e: Expr) -> int:
        eclass = _encode(e, self._mk, self._class_of)
        self._seed_all_lanes(e)
        return eclass

    def stmt(self, s: Stmt) -> int:
        eclass = _encode_stmt(s, self._mk, self._class_of)
        if isinstance(s, Store):
            self._seed_all_lanes(s.index)
        self._seed_all_lanes(s.value)
        return eclass


def _encode(e: Expr, mk, memo: Dict[int, object]):
    """Build ``e`` bottom-up through ``mk(head, args)`` (``Term`` for a
    ground term, an e-graph insertion for :class:`Encoder`), children
    before parents and left to right, each IR node once."""
    done = memo.get(id(e))
    if done is None:
        done = memo[id(e)] = _encode_node(e, mk, memo)
    return done


def _encode_node(e: Expr, mk, memo):
    def sub(child: Expr):
        return _encode(child, mk, memo)

    if isinstance(e, IntImm):
        return mk(("i64", int(e.value)))
    if isinstance(e, FloatImm):
        return mk(("f64", float(e.value)))
    if isinstance(e, StringImm):
        return mk(("str", str(e.value)))
    if isinstance(e, Variable):
        return mk("Var", (mk(("str", str(e.name))),))
    if isinstance(e, Cast):
        return mk("Cast", (encode_type(e.dtype, mk), sub(e.value)))
    if isinstance(e, Load):
        return mk(
            "Load",
            (
                encode_type(e.dtype, mk),
                mk(("str", str(e.name))),
                sub(e.index),
            ),
        )
    if isinstance(e, Ramp):
        return mk(
            "Ramp", (sub(e.base), sub(e.stride), mk(("i64", int(e.count))))
        )
    if isinstance(e, Broadcast):
        return mk("Broadcast", (sub(e.value), mk(("i64", int(e.count)))))
    if isinstance(e, VectorReduce):
        if e.op != "add":
            raise EncodeError(f"cannot encode reduce op {e.op!r}")
        return mk(
            "VectorReduceAdd",
            (mk(("i64", int(e.result_lanes))), sub(e.value)),
        )
    if isinstance(e, Call):
        if e.name in MOVEMENT_HEADS:
            return mk(e.name, (sub(e.args[0]),))
        return mk(
            "Call",
            (
                encode_type(e.dtype, mk),
                mk(("str", str(e.name))),
                mk("Args", tuple([sub(a) for a in e.args])),
            ),
        )
    if isinstance(e, Select):
        return mk(
            "Select",
            (sub(e.condition), sub(e.true_value), sub(e.false_value)),
        )
    head = _BINARY_HEADS.get(type(e))
    if head is not None:
        return mk(head, (sub(e.a), sub(e.b)))
    raise EncodeError(f"cannot encode {type(e).__name__}")


def _encode_stmt(s: Stmt, mk, memo):
    if isinstance(s, Store):
        name = mk(("str", str(s.name)))
        return mk(
            "Store", (name, _encode(s.value, mk, memo), _encode(s.index, mk, memo))
        )
    if isinstance(s, Evaluate):
        return mk("Evaluate", (_encode(s.value, mk, memo),))
    raise EncodeError(f"cannot encode statement {type(s).__name__}")


def encode_expr(e: Expr) -> Term:
    return _encode(e, Term, {})


def encode_stmt(s: Stmt) -> Term:
    return _encode_stmt(s, Term, {})


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
