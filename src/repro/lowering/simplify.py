"""The aggressive (pattern-obscuring) simplifier.

Halide runs local strength-reduction style rewrites throughout
compilation.  Two of them are precisely what hides tensor patterns from a
syntactic matcher (paper §III-B):

* a load of a broadcast index becomes a broadcast of a (narrower) load —
  cheaper at runtime, but now the tensor access pattern is wrapped in a
  broadcast *outside* the load;
* nested ramp/broadcast index vectors are left in shallow un-nested
  ``ramp(...) + xK(ramp(...))`` sums rather than the canonical
  three-level nesting the MatMul pattern expects.

HARDBOILED's axiomatic rules undo exactly these, inside EqSat, where rule
ordering does not matter.
"""

from __future__ import annotations

from ..ir import (
    Add,
    Broadcast,
    Cast,
    Div,
    Expr,
    Load,
    Max,
    Min,
    Mod,
    Mul,
    Ramp,
    Shuffle,
    Stmt,
    Sub,
    builders,
)
from ..ir.visitor import IRMutator

_DISTRIBUTABLE = (Add, Sub, Mul, Div, Mod, Min, Max)
_BUILDER_FOR = {
    Add: builders.make_add,
    Sub: builders.make_sub,
    Mul: builders.make_mul,
    Div: builders.make_div,
    Mod: builders.make_mod,
    Min: builders.make_min,
    Max: builders.make_max,
}


def _rewrite_once(e: Expr):
    """One local rewrite step; returns None when nothing applies."""
    if isinstance(e, Broadcast):
        if e.count == 1:
            return e.value
        if isinstance(e.value, Broadcast):
            return Broadcast(e.value.value, e.value.count * e.count)
    if isinstance(e, Ramp):
        if e.count == 1:
            return e.base
        # dense nested ramp -> flat ramp: the paper's matmul[ramp(0,1,512)]
        if (
            isinstance(e.base, Ramp)
            and builders.is_const(e.base.stride)
            and builders.const_value(e.base.stride) == 1
            and e.base.base.type.lanes == 1
            and isinstance(e.stride, Broadcast)
            and builders.is_const(e.stride.value)
            and builders.const_value(e.stride.value) == e.base.count
        ):
            from ..ir import IntImm

            return Ramp(e.base.base, IntImm(1), e.base.count * e.count)
    if isinstance(e, Load) and isinstance(e.index, Broadcast):
        # load of broadcast index -> broadcast of load (cheaper; obscures)
        inner_index = e.index.value
        inner = Load(
            e.dtype.with_lanes(inner_index.type.lanes), e.name, inner_index
        )
        return Broadcast(inner, e.index.count)
    if isinstance(e, Cast) and isinstance(e.value, Broadcast):
        inner_lanes = e.value.value.type.lanes
        return Broadcast(
            Cast(e.dtype.with_lanes(inner_lanes), e.value.value),
            e.value.count,
        )
    if isinstance(e, _DISTRIBUTABLE):
        a, b = e.a, e.b
        if builders.is_const(a) and builders.is_const(b):
            folded = _BUILDER_FOR[type(e)](a, b)
            if folded != e:
                return folded
        if builders.is_const(a) or builders.is_const(b):
            folded = _BUILDER_FOR[type(e)](a, b)
            if folded != e:
                return folded
        if (
            isinstance(a, Broadcast)
            and isinstance(b, Broadcast)
            and a.count == b.count
            and a.value.type.lanes == b.value.type.lanes
        ):
            return Broadcast(_BUILDER_FOR[type(e)](a.value, b.value), a.count)
    if isinstance(e, (Add, Mul, Sub)):
        folded = _fold_ramp_broadcast(e)
        if folded is not None:
            return folded
    if (
        isinstance(e, (Add, Sub, Mul))
        and e.type.lanes == 1
        and e.type.is_int()
    ):
        from .bounds import simplify_affine

        normalized = simplify_affine(e)
        if normalized.size < e.size:
            return normalized
    if isinstance(e, Shuffle) and len(e.vectors) == 1:
        if e.indices == tuple(range(e.vectors[0].type.lanes)):
            return e.vectors[0]
        if isinstance(e.vectors[0], Broadcast) and (
            e.vectors[0].value.type.lanes == 1
        ):
            return Broadcast(e.vectors[0].value, len(e.indices))
    return None


def _fold_ramp_broadcast(e: Expr):
    """Fold ramp +/-/* broadcast into the ramp (when lane blocks align)."""
    sides = ((e.a, e.b), (e.b, e.a))
    if isinstance(e, Sub):
        sides = ((e.a, e.b),)  # only ramp - broadcast
    for ramp, other in sides:
        if not isinstance(ramp, Ramp) or not isinstance(other, Broadcast):
            continue
        blockwise = (
            other.count == ramp.count
            and other.value.type.lanes == ramp.base.type.lanes
        )
        uniform = (
            other.value.type.lanes == 1
            and other.count == ramp.type.lanes
        )
        if not blockwise and not uniform:
            continue
        v = other.value
        if isinstance(e, Add):
            return Ramp(builders.make_add(ramp.base, v), ramp.stride, ramp.count)
        if isinstance(e, Sub):
            return Ramp(builders.make_sub(ramp.base, v), ramp.stride, ramp.count)
        return Ramp(
            builders.make_mul(ramp.base, v),
            builders.make_mul(ramp.stride, v),
            ramp.count,
        )
    return None


class _Simplifier(IRMutator):
    """Bottom-up rewriter that remembers which nodes it left alone.

    A visit that returns its node unchanged proves the whole subtree is at
    its fixpoint (``_rewrite_once`` depends on structure only), so later
    rounds skip it and touch just the spines rebuilt by the round before.
    """

    def __init__(self) -> None:
        #: id -> node; holding the node keeps its id from being reused
        self.settled: dict = {}

    def mutate(self, node):
        if id(node) in self.settled:
            return node
        new = super().mutate(node)
        if new is node and node is not None:
            self.settled[id(node)] = node
        return new

    def generic_mutate(self, node):
        node = super().generic_mutate(node)
        if isinstance(node, Expr):
            for _ in range(8):
                rewritten = _rewrite_once(node)
                if rewritten is None:
                    break
                node = rewritten
        return node


def _simplify(node, max_rounds: int):
    simplifier = _Simplifier()
    for _ in range(max_rounds):
        new = simplifier.mutate(node)
        if new is node or new == node:
            return new
        node = new
    return node


def simplify_stmt(stmt: Stmt, max_rounds: int = 10) -> Stmt:
    """Simplify to a fixpoint (inner rewrites expose outer ones)."""
    return _simplify(stmt, max_rounds)


def simplify_expr(e: Expr, max_rounds: int = 10) -> Expr:
    return _simplify(e, max_rounds)
