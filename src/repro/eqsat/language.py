"""Ground terms and e-nodes of the EqSat term language.

Operators are plain string heads (``"Add"``, ``"Broadcast"``, ...).
Literals carry their payload in the head as a tuple: ``("i64", 5)``,
``("f64", 0.5)``, ``("str", "A")`` — so two equal literals always
hashcons to the same e-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple, Union

Head = Union[str, Tuple[str, object]]


@dataclass(frozen=True)
class Term:
    """An immutable ground term: ``head(args...)``."""

    head: Head
    args: Tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def is_literal(self) -> bool:
        return isinstance(self.head, tuple)

    @property
    def payload(self) -> object:
        if not self.is_literal():
            raise ValueError(f"{self.head} is not a literal")
        return self.head[1]

    def __str__(self) -> str:
        if self.is_literal():
            kind, value = self.head
            return repr(value) if kind == "str" else str(value)
        if not self.args:
            return f"({self.head})"
        parts = " ".join(str(a) for a in self.args)
        return f"({self.head} {parts})"


def I(value: int) -> Term:
    """An i64 literal term."""
    return Term(("i64", int(value)))


def F(value: float) -> Term:
    """An f64 literal term."""
    return Term(("f64", float(value)))


def Sym(name: str) -> Term:
    """A string/symbol literal term (buffer names etc.)."""
    return Term(("str", str(name)))


def T(head: str, *args: Term) -> Term:
    """Operator term constructor."""
    return Term(head, tuple(args))


class ENode(NamedTuple):
    """A node inside the e-graph: head plus child e-class ids."""

    head: Head
    args: Tuple[int, ...]

    def canonicalize(self, find) -> "ENode":
        return ENode(self.head, tuple([find(a) for a in self.args]))

    def __str__(self) -> str:
        if isinstance(self.head, tuple):
            return str(self.head[1])
        if not self.args:
            return f"({self.head})"
        return f"({self.head} {' '.join(f'${a}' for a in self.args)})"
