"""Patterns over the EqSat term language.

Grammar (mirroring egglog):

* ``PVar("x")`` — a pattern variable, binds an e-class.
* ``PLit("i64", 5)`` — a literal, matches only that literal's e-class.
* ``PApp("Add", (p1, p2))`` — an operator pattern.

Primitive heads (``*``, ``+``, ``-``, ``/``, ``%``) never match graph
structure; they are *computed* over bound literal values when a pattern is
instantiated (action side) or evaluated (guard side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

PRIMITIVE_OPS = {"*", "+", "-", "/", "%"}


@dataclass(frozen=True)
class PVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PLit:
    kind: str
    value: object

    def __str__(self) -> str:
        return repr(self.value) if self.kind == "str" else str(self.value)


@dataclass(frozen=True)
class PApp:
    head: str
    args: Tuple["Pattern", ...]

    def __str__(self) -> str:
        if not self.args:
            return f"({self.head})"
        return f"({self.head} {' '.join(str(a) for a in self.args)})"


Pattern = Union[PVar, PLit, PApp]


def pattern_vars(p: Pattern, acc=None) -> set:
    if acc is None:
        acc = set()
    if isinstance(p, PVar):
        acc.add(p.name)
    elif isinstance(p, PApp):
        for a in p.args:
            pattern_vars(a, acc)
    return acc


def parse_pattern(sexpr) -> Pattern:
    """Build a pattern from a parsed s-expression (see :mod:`.sexpr`)."""
    if isinstance(sexpr, int):
        return PLit("i64", sexpr)
    if isinstance(sexpr, float):
        return PLit("f64", sexpr)
    if isinstance(sexpr, str):
        if sexpr.startswith('"') and sexpr.endswith('"'):
            return PLit("str", sexpr[1:-1])
        return PVar(sexpr)
    if isinstance(sexpr, list):
        if not sexpr:
            raise ValueError("empty pattern")
        head = sexpr[0]
        if not isinstance(head, str):
            raise ValueError(f"pattern head must be a symbol: {sexpr}")
        return PApp(head, tuple(parse_pattern(a) for a in sexpr[1:]))
    raise TypeError(f"cannot parse pattern from {sexpr!r}")
