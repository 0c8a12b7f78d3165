"""The vectorization pass.

Processes ``ForKind.VECTORIZED`` loops innermost-first.  Substituting the
loop variable produces the vector IR HARDBOILED consumes:

* a scalar occurrence of the var becomes ``Ramp(min, 1, n)``;
* already-vectorized (inner) expressions widen so the *new* dimension is
  outermost — each j-th block of the result holds the expression at
  ``var = min + j``;
* mismatched inner lane counts are fixed up with ``block_repeat`` (each
  block of lanes repeated contiguously), which distributes structurally
  over ramps/broadcasts/arithmetic and pushes through loads by widening
  the index — this is exactly how the paper's nested
  ``ramp(x512(0), x512(32), 16) + x256(ramp(0, 1, 32))`` shapes arise;
* vectorizing a reduction dimension (under ``atomic()``) of a
  ``f[i] = f[i] + w`` update emits ``VectorReduce`` — the paper's
  ``vector_reduce_add``.
"""

from __future__ import annotations

from typing import Optional, Set

from ..ir import (
    Add,
    Block,
    Broadcast,
    Call,
    Cast,
    Div,
    EQ,
    Evaluate,
    Expr,
    For,
    ForKind,
    GE,
    GT,
    IntImm,
    LE,
    LT,
    Load,
    Max,
    Min,
    Mod,
    Mul,
    NE,
    Ramp,
    Select,
    Shuffle,
    Stmt,
    Store,
    Sub,
    Variable,
    VectorReduce,
    as_int,
    is_const,
)
from ..ir.visitor import IRMutator

_BINARY_NODES = (Add, Sub, Mul, Div, Mod, Min, Max, EQ, NE, LT, LE, GT, GE)


class VectorizeError(RuntimeError):
    pass


def block_repeat(e: Expr, block: int, times: int) -> Expr:
    """Repeat every ``block`` consecutive lanes of ``e`` ``times`` times."""
    lanes = e.type.lanes
    if times == 1:
        return e
    if lanes % block != 0:
        raise VectorizeError(
            f"block_repeat: {lanes} lanes not divisible by block {block}"
        )
    if lanes == block:
        return Broadcast(e, times)
    if isinstance(e, Broadcast):
        inner_lanes = e.value.type.lanes
        if inner_lanes == 1:
            # uniform vector: any block repetition is still uniform
            return Broadcast(e.value, e.count * times)
        if inner_lanes == block:
            # each copy is exactly one block: repeating blocks just makes
            # more copies
            return Broadcast(e.value, e.count * times)
        if inner_lanes % block == 0:
            # blocks subdivide each copy: repeat inside, then re-tile
            return Broadcast(block_repeat(e.value, block, times), e.count)
        return _shuffle_repeat(e, block, times)
    if isinstance(e, Ramp):
        base_lanes = e.base.type.lanes
        if base_lanes == block:
            return Ramp(
                Broadcast(e.base, times), Broadcast(e.stride, times), e.count
            )
    if isinstance(e, _BINARY_NODES):
        return type(e)(
            block_repeat(e.a, block, times), block_repeat(e.b, block, times)
        )
    if isinstance(e, Cast):
        child = block_repeat(e.value, block, times)
        return Cast(e.dtype.with_lanes(child.type.lanes), child)
    if isinstance(e, Load):
        idx = block_repeat(e.index, block, times)
        return Load(e.dtype.with_lanes(idx.type.lanes), e.name, idx)
    return _shuffle_repeat(e, block, times)


def _shuffle_repeat(e: Expr, block: int, times: int) -> Expr:
    lanes = e.type.lanes
    indices = tuple(
        g * block + i
        for g in range(lanes // block)
        for _ in range(times)
        for i in range(block)
    )
    return Shuffle((e,), indices)


class _VecSubst:
    """Widens one vectorized loop variable through an expression tree."""

    def __init__(self, var: str, min_expr: Expr, extent: int):
        self.var = var
        self.min_expr = min_expr
        self.n = extent

    def contains_var(self, e) -> bool:
        return self.var in e.free_vars

    # -- expression widening -------------------------------------------------

    def widen(self, e: Expr) -> Expr:
        """Returns ``e`` with lanes(e) * n lanes; new dim outermost."""
        if not self.contains_var(e):
            return Broadcast(e, self.n)
        return self.vec(e)

    def vec(self, e: Expr) -> Expr:
        """Widen an expression that contains the var."""
        if isinstance(e, Variable):
            if e.name == self.var:
                return Ramp(self.min_expr, IntImm(1), self.n)
            raise VectorizeError(f"variable {e.name!r} does not contain var")
        if isinstance(e, _BINARY_NODES):
            return self._widen_children(type(e), e.a, e.b)
        if isinstance(e, Select):
            return self._widen_children(
                Select, e.condition, e.true_value, e.false_value
            )
        if isinstance(e, Cast):
            child = self.vec(e.value)
            return Cast(e.dtype.with_lanes(child.type.lanes), child)
        if isinstance(e, Load):
            idx = self.vec(e.index)
            return Load(e.dtype.with_lanes(idx.type.lanes), e.name, idx)
        if isinstance(e, Broadcast):
            inner = self.vec(e.value)
            return block_repeat(inner, e.value.type.lanes, e.count)
        if isinstance(e, Ramp):
            return self._vec_ramp(e)
        if isinstance(e, VectorReduce):
            inner = self.vec(e.value)
            return VectorReduce(e.op, inner, e.result_lanes * self.n)
        if isinstance(e, Call):
            args = tuple(
                self.vec(a) if self.contains_var(a) else self._match_arg(a)
                for a in e.args
            )
            lanes = max(a.type.lanes for a in args) if args else e.type.lanes
            import dataclasses

            return dataclasses.replace(
                e, dtype=e.dtype.with_lanes(lanes), args=args
            )
        raise VectorizeError(
            f"cannot vectorize {type(e).__name__} over {self.var!r}"
        )

    def _match_arg(self, a: Expr) -> Expr:
        return Broadcast(a, self.n) if a.type.lanes >= 1 else a

    def _widen_children(self, node_cls, *children: Expr) -> Expr:
        orig_lanes = max(c.type.lanes for c in children)
        widened = []
        for c in children:
            lc = c.type.lanes
            if self.contains_var(c):
                w = self.vec(c)
                if lc < orig_lanes:
                    # scalar child stretched so each value fills a block
                    w = block_repeat(w, lc, orig_lanes // lc)
            else:
                if lc < orig_lanes:
                    c = Broadcast(c, orig_lanes // lc)
                w = Broadcast(c, self.n)
            widened.append(w)
        return node_cls(*widened)

    def _vec_ramp(self, e: Ramp) -> Expr:
        if self.contains_var(e.stride):
            raise VectorizeError(
                "vectorizing a ramp whose stride depends on the loop var is"
                " not supported"
            )
        base_lanes = e.base.type.lanes
        vec_base = self.vec(e.base)
        part1 = block_repeat(vec_base, base_lanes, e.count)
        from ..ir.builders import const

        zero = const(0, e.base.type)
        steps = Ramp(zero, e.stride, e.count)
        part2 = Broadcast(steps, self.n)
        return Add(part1, part2)

    # -- statement widening ---------------------------------------------------

    def vec_stmt(self, s: Stmt, atomic_vars: Set[str]) -> Stmt:
        if isinstance(s, Block):
            return Block.make(
                [self.vec_stmt(part, atomic_vars) for part in s.stmts]
            )
        if isinstance(s, Evaluate):
            if self.contains_var(s.value):
                return Evaluate(self.vec(s.value))
            return s
        if isinstance(s, Store):
            return self._vec_store(s, atomic_vars)
        if isinstance(s, For):
            raise VectorizeError(
                f"loop {s.name!r} nested inside vectorized loop"
                f" {self.var!r}; vectorized dimensions must be innermost"
            )
        raise VectorizeError(
            f"cannot vectorize statement {type(s).__name__} over"
            f" {self.var!r}"
        )

    def _vec_store(self, s: Store, atomic_vars: Set[str]) -> Stmt:
        idx_has = self.contains_var(s.index)
        val_has = self.contains_var(s.value)
        if not idx_has and not val_has:
            return s
        if idx_has:
            idx = self.vec(s.index)
            if val_has:
                value = self.vec(s.value)
            else:
                value = Broadcast(s.value, self.n)
            return Store(s.name, idx, value)
        # reduction: the store location does not move with the loop var
        if self.var not in atomic_vars:
            raise VectorizeError(
                f"vectorizing reduction dimension {self.var!r} requires"
                " atomic() on the stage"
            )
        # expected shape: name[i] = name[i] + w   (from `f[...] += w`)
        value = s.value
        if isinstance(value, Add):
            for load, rest in ((value.a, value.b), (value.b, value.a)):
                is_self_load = (
                    isinstance(load, Load)
                    and load.name == s.name
                    and load.index == s.index
                )
                if not is_self_load or not self.contains_var(rest):
                    continue
                if rest.type.lanes != 1:
                    raise VectorizeError(
                        "reduction dimensions must be vectorized first"
                        " (innermost of all vectorized dimensions)"
                    )
                wide = self.vec(rest)
                reduced = VectorReduce("add", wide, 1)
                return Store(s.name, s.index, Add(reduced, load))
        raise VectorizeError(
            f"atomic vectorization of {self.var!r} needs an update of the"
            f" form {s.name}[i] = {s.name}[i] + w"
        )


class _LoopVectorizer(IRMutator):
    def __init__(self, atomic_vars: Optional[Set[str]] = None):
        self.atomic_vars = atomic_vars or set()

    def mutate_For(self, node: For):
        body = self.mutate(node.body)
        if node.kind is not ForKind.VECTORIZED:
            if body is node.body:
                return node
            return For(node.name, node.min_expr, node.extent, node.kind, body)
        if not is_const(node.extent):
            raise VectorizeError(
                f"vectorized loop {node.name!r} needs a constant extent"
            )
        extent = as_int(node.extent)
        subst = _VecSubst(node.name, node.min_expr, extent)
        return subst.vec_stmt(body, self.atomic_vars)


def vectorize_loops(stmt: Stmt, atomic_vars: Optional[Set[str]] = None) -> Stmt:
    """Replace vectorized loops by wide vector statements."""
    return _LoopVectorizer(atomic_vars).mutate(stmt)
