"""Interval arithmetic for bounds inference.

Computes the region of a producer Func required by its consumers: each
call argument expression is evaluated over intervals (loop variables range
over their loop bounds; outer variables stay symbolic single points).
Affine expressions — the only kind our schedules produce in indices — get
exact bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ir import (
    Add,
    Call,
    CallType,
    Cast,
    Div,
    Expr,
    IntImm,
    Max,
    Min,
    Mod,
    Mul,
    Sub,
    Variable,
    builders,
    is_const,
    const_value,
    make_add,
    make_div,
    make_max,
    make_min,
    make_mul,
    make_sub,
)


def linear_form(e: Expr):
    """Decompose into (coefficients-by-atom, constant) or None.

    Atoms are non-affine subexpressions (variables, divisions, ...), keyed
    by structural equality.  This lets symbolic extents like
    ``(xo*256 + 255) - (xo*256) + 1`` cancel to 256.
    """
    if isinstance(e, IntImm):
        return {}, e.value
    if isinstance(e, Add):
        a = linear_form(e.a)
        b = linear_form(e.b)
        return _combine(a, b, 1)
    if isinstance(e, Sub):
        a = linear_form(e.a)
        b = linear_form(e.b)
        return _combine(a, b, -1)
    if isinstance(e, Mul):
        for const_side, other in ((e.a, e.b), (e.b, e.a)):
            if is_const(const_side):
                inner = linear_form(other)
                if inner is None:
                    return None
                scale = const_value(const_side)
                coeffs, const = inner
                return (
                    {k: v * scale for k, v in coeffs.items()},
                    const * scale,
                )
        return {e: 1}, 0
    if e.type.lanes == 1:
        return {e: 1}, 0
    return None


def _combine(a, b, sign):
    if a is None or b is None:
        return None
    coeffs = dict(a[0])
    for key, value in b[0].items():
        coeffs[key] = coeffs.get(key, 0) + sign * value
    return coeffs, a[1] + sign * b[1]


def simplify_affine(e: Expr) -> Expr:
    """Re-normalize an affine integer expression (cancels common terms)."""
    form = linear_form(e)
    if form is None:
        return e
    coeffs, const = form
    out: Expr = IntImm(int(const))
    for atom, coeff in coeffs.items():
        if coeff == 0:
            continue
        out = make_add(out, make_mul(atom, IntImm(int(coeff))))
    return out


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] of scalar integer expressions."""

    lo: Expr
    hi: Expr

    @staticmethod
    def point(e: Expr) -> "Interval":
        return Interval(e, e)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def union(self, other: "Interval") -> "Interval":
        if self.lo == other.lo and self.hi == other.hi:
            return self
        return Interval(
            make_min(self.lo, other.lo), make_max(self.hi, other.hi)
        )

    def shift(self, offset: Expr) -> "Interval":
        return Interval(make_add(self.lo, offset), make_add(self.hi, offset))

    def extent(self) -> Expr:
        return simplify_affine(make_add(make_sub(self.hi, self.lo), IntImm(1)))

    def __str__(self) -> str:
        from ..ir import print_expr

        return f"[{print_expr(self.lo)}, {print_expr(self.hi)}]"


Scope = Dict[str, Interval]


class BoundsError(RuntimeError):
    pass


def interval_of(e: Expr, scope: Scope) -> Interval:
    """Bounds of ``e`` with variables ranging over ``scope`` intervals."""
    if isinstance(e, IntImm):
        return Interval.point(e)
    if isinstance(e, Variable):
        found = scope.get(e.name)
        if found is not None:
            return found
        return Interval.point(e)  # symbolic outer variable: a single point
    if isinstance(e, Cast):
        return interval_of(e.value, scope)
    if isinstance(e, Add):
        a, b = interval_of(e.a, scope), interval_of(e.b, scope)
        return Interval(make_add(a.lo, b.lo), make_add(a.hi, b.hi))
    if isinstance(e, Sub):
        a, b = interval_of(e.a, scope), interval_of(e.b, scope)
        return Interval(make_sub(a.lo, b.hi), make_sub(a.hi, b.lo))
    if isinstance(e, Mul):
        return _interval_mul(e, scope)
    if isinstance(e, Div):
        return _interval_div(e, scope)
    if isinstance(e, Mod):
        if is_const(e.b):
            m = const_value(e.b)
            if m > 0:
                a = interval_of(e.a, scope)
                if a.is_point():
                    return Interval.point(builders.make_mod(a.lo, e.b))
                return Interval(IntImm(0), IntImm(int(m) - 1))
        raise BoundsError(f"cannot bound modulo by non-constant: {e}")
    if isinstance(e, Min):
        a, b = interval_of(e.a, scope), interval_of(e.b, scope)
        return Interval(make_min(a.lo, b.lo), make_min(a.hi, b.hi))
    if isinstance(e, Max):
        a, b = interval_of(e.a, scope), interval_of(e.b, scope)
        return Interval(make_max(a.lo, b.lo), make_max(a.hi, b.hi))
    raise BoundsError(f"cannot compute interval of {type(e).__name__}: {e}")


def _interval_mul(e: Mul, scope: Scope) -> Interval:
    a, b = interval_of(e.a, scope), interval_of(e.b, scope)
    if b.is_point() and is_const(b.lo):
        factor = const_value(b.lo)
    elif a.is_point() and is_const(a.lo):
        a, b = b, a
        factor = const_value(b.lo)
    elif a.is_point() and b.is_point():
        return Interval.point(make_mul(a.lo, b.lo))
    else:
        raise BoundsError(f"cannot bound product of two intervals: {e}")
    lo = make_mul(a.lo, b.lo)
    hi = make_mul(a.hi, b.lo)
    if factor < 0:
        lo, hi = hi, lo
    return Interval(lo, hi)


def _interval_div(e: Div, scope: Scope) -> Interval:
    a = interval_of(e.a, scope)
    if not is_const(e.b):
        if a.is_point():
            return Interval.point(make_div(a.lo, e.b))
        raise BoundsError(f"cannot bound division by non-constant: {e}")
    d = const_value(e.b)
    if d <= 0:
        raise BoundsError(f"non-positive divisor in {e}")
    return Interval(make_div(a.lo, e.b), make_div(a.hi, e.b))


def required_regions(
    node, func_names, scope: Scope
) -> Dict[str, list]:
    """Regions of each named Func called within ``node``.

    Returns ``{func_name: [Interval per dimension]}`` — the union over all
    call sites, with loop variables in ``scope`` ranging over their loops.
    """
    from ..ir.visitor import IRVisitor

    wanted = set(func_names)
    regions: Dict[str, list] = {}

    class Collector(IRVisitor):
        def visit_Call(self, call: Call):
            if call.call_type in (CallType.HALIDE, CallType.IMAGE) and (
                call.name in wanted
            ):
                intervals = [interval_of(a, scope) for a in call.args]
                if call.name in regions:
                    regions[call.name] = [
                        old.union(new)
                        for old, new in zip(regions[call.name], intervals)
                    ]
                else:
                    regions[call.name] = intervals
            for a in call.args:
                self.visit(a)

        visit_FuncCall = visit_Call

    Collector().visit(node)
    return regions
