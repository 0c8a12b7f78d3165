"""Statement nodes of the Halide-like IR."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .expr import Expr, Node, fact
from .types import DataType


class ForKind(enum.Enum):
    """Execution strategy of a loop dimension."""

    SERIAL = "for"
    PARALLEL = "parallel"
    VECTORIZED = "vectorized"
    UNROLLED = "unrolled"
    GPU_BLOCK = "gpu_block"
    GPU_THREAD = "gpu_thread"
    GPU_LANE = "gpu_lane"  # warp lane loop used for WMMA statements


class MemoryType(enum.Enum):
    """Where a buffer lives.

    ``AMX_TILE``, ``WMMA_ACCUMULATOR``, and ``DP4A_ACCUMULATOR`` are the
    scheduling hooks the user pulls (via ``Func.store_in``) to request
    tensor-accelerator storage — the trigger for HARDBOILED instruction
    selection.
    """

    AUTO = "auto"
    HEAP = "heap"
    STACK = "stack"
    REGISTER = "register"
    GPU_SHARED = "gpu_shared"
    AMX_TILE = "amx_tile"
    WMMA_ACCUMULATOR = "wmma_accumulator"
    DP4A_ACCUMULATOR = "dp4a_accumulator"

    def is_accelerator(self) -> bool:
        return self in (
            MemoryType.AMX_TILE,
            MemoryType.WMMA_ACCUMULATOR,
            MemoryType.DP4A_ACCUMULATOR,
        )


@dataclass(frozen=True)
class Stmt(Node):
    """Base class for all IR statements."""


@dataclass(frozen=True)
class Store(Stmt):
    """``name[index] = value`` — a (possibly vector) store."""

    name: str
    index: Expr
    value: Expr
    _child_fields = ("index", "value")

    def __post_init__(self) -> None:
        if self.index.type.lanes != self.value.type.lanes:
            raise ValueError(
                f"store lane mismatch into {self.name!r}: index "
                f"{self.index.type.lanes} lanes, value "
                f"{self.value.type.lanes} lanes"
            )


@dataclass(frozen=True)
class For(Stmt):
    """A loop over ``[min_expr, min_expr + extent)``."""

    name: str
    min_expr: Expr
    extent: Expr
    kind: ForKind
    body: Stmt
    _child_fields = ("min_expr", "extent", "body")

    @fact
    def free_vars(self):
        return self._free_vars_binding(
            self.name, self.body, self.min_expr, self.extent
        )


@dataclass(frozen=True)
class Block(Stmt):
    """A sequence of statements."""

    stmts: Tuple[Stmt, ...]
    _child_fields = ("stmts",)

    @staticmethod
    def make(stmts) -> Stmt:
        """Build a block, flattening nested blocks and dropping no-ops."""
        flat = []
        for s in stmts:
            if s is None:
                continue
            if isinstance(s, Block):
                flat.extend(s.stmts)
            else:
                flat.append(s)
        if len(flat) == 1:
            return flat[0]
        return Block(tuple(flat))


@dataclass(frozen=True)
class Allocate(Stmt):
    """Allocate a buffer for the duration of ``body``."""

    name: str
    dtype: DataType
    extents: Tuple[Expr, ...]
    memory_type: MemoryType
    body: Stmt
    _child_fields = ("extents", "body")


@dataclass(frozen=True)
class LetStmt(Stmt):
    name: str
    value: Expr
    body: Stmt
    _child_fields = ("value", "body")

    @fact
    def free_vars(self):
        return self._free_vars_binding(self.name, self.body, self.value)


@dataclass(frozen=True)
class IfThenElse(Stmt):
    condition: Expr
    then_case: Stmt
    else_case: Optional[Stmt] = None
    _child_fields = ("condition", "then_case", "else_case")


@dataclass(frozen=True)
class Evaluate(Stmt):
    """Evaluate an expression for its side effects (e.g. ``tile_store``)."""

    value: Expr
    _child_fields = ("value",)


@dataclass(frozen=True)
class ProducerConsumer(Stmt):
    """Marks the region that computes (produces) a Func's buffer."""

    name: str
    is_producer: bool
    body: Stmt
    _child_fields = ("body",)


@dataclass(frozen=True)
class Provide(Stmt):
    """Pre-flattening store: ``name(args...) = value``.

    Lowering emits Provide nodes while loop nests are being built; storage
    flattening replaces them with flat-indexed :class:`Store` nodes.
    """

    name: str
    args: Tuple[Expr, ...]
    value: Expr
    _child_fields = ("args", "value")
