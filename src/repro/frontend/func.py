"""Funcs, image parameters, and scheduling directives (the Halide surface).

An *algorithm* is written as pure/update definitions::

    mm = Func("mm")
    mm[y, x] = 0.0
    mm[y, x] += cast(Float(32), A[r, x]) * cast(Float(32), B[y, r])

A *schedule* is attached with chained directives::

    mm.store_in(MemoryType.AMX_TILE).compute_at(mm.in_(), x)
    mm.update().atomic().vectorize(r, 32).vectorize(y, 16).vectorize(x, 16)

Dims are kept innermost-first, matching Halide's convention that the first
argument is the fastest-varying dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir import (
    Call,
    CallType,
    DataType,
    Expr,
    Float,
    ForKind,
    MemoryType,
    Variable,
    free_variables,
)
from .var import RDom, RVAR_REGISTRY as _RVAR_REGISTRY, RVar, Var, to_expr, unique_name


class ScheduleError(ValueError):
    """A scheduling directive that would change the algorithm's meaning."""


#: loop kinds that run iterations concurrently — a race on a reduction
_CONCURRENT_KINDS = (ForKind.PARALLEL, ForKind.GPU_BLOCK, ForKind.GPU_THREAD)


@dataclass
class Split:
    old: str
    outer: str
    inner: str
    factor: int


@dataclass
class Dim:
    var: str
    kind: ForKind = ForKind.SERIAL


class Stage:
    """One definition of a Func (pure or update) plus its loop schedule."""

    def __init__(
        self,
        func: "Func",
        args: Sequence[Expr],
        value: Expr,
        is_update: bool,
    ) -> None:
        self.func = func
        self.args: Tuple[Expr, ...] = tuple(args)
        self.value = value
        self.is_update = is_update
        self.splits: List[Split] = []
        self.atomic_flag = False
        self.rvars: Dict[str, RVar] = {}
        if is_update:
            free = set()
            for a in self.args:
                free |= free_variables(a)
            free |= free_variables(value)
            for name in free:
                rvar = _RVAR_REGISTRY.get(name)
                if rvar is not None:
                    self.rvars[name] = rvar
        # dim order, innermost first: reduction vars innermost, then the
        # pure variables in argument order
        dims: List[Dim] = []
        if self.rvars:
            for name in self._rvar_order():
                dims.append(Dim(name))
        for a in self.args:
            for name in sorted(free_variables(a)):
                if name not in self.rvars and all(
                    d.var != name for d in dims
                ):
                    dims.append(Dim(name))
        self.dims = dims

    def _rvar_order(self) -> List[str]:
        # reduction vars in their order of appearance in the value
        order: List[str] = []

        def scan(e: Expr):
            from ..ir.visitor import IRVisitor

            class V(IRVisitor):
                def visit_Variable(v_self, node):
                    if node.name in self.rvars and node.name not in order:
                        order.append(node.name)

            V().visit(e)

        scan(self.value)
        for name in self.rvars:
            if name not in order:
                order.append(name)
        return order

    # -- directives (each returns self for chaining) --------------------------

    def _dim_index(self, var) -> int:
        name = var.name if isinstance(var, (Var, RDom)) else str(var)
        for i, d in enumerate(self.dims):
            if d.var == name:
                return i
        raise KeyError(
            f"no dimension {name!r} in stage of {self.func.name!r}; have "
            f"{[d.var for d in self.dims]}"
        )

    def split(self, old, outer, inner, factor: int) -> "Stage":
        i = self._dim_index(old)
        old_name = self.dims[i].var
        outer_name = outer.name if isinstance(outer, (Var, RDom)) else str(outer)
        inner_name = inner.name if isinstance(inner, (Var, RDom)) else str(inner)
        self.splits.append(Split(old_name, outer_name, inner_name, int(factor)))
        kind = self.dims[i].kind
        self.dims[i : i + 1] = [Dim(inner_name, kind), Dim(outer_name, kind)]
        return self

    def reorder(self, *vars) -> "Stage":
        """Reorder dims; arguments are listed innermost first."""
        names = [v.name if isinstance(v, (Var, RDom)) else str(v) for v in vars]
        indices = sorted(self._dim_index(n) for n in names)
        listed = [self.dims[self._dim_index(n)] for n in names]
        for pos, dim in zip(indices, listed):
            self.dims[pos] = dim
        return self

    def _set_kind(self, var, kind: ForKind, factor: Optional[int]) -> "Stage":
        name = self.dims[self._dim_index(var)].var
        root = name
        for split in reversed(self.splits):
            if root in (split.outer, split.inner):
                root = split.old
        if kind in _CONCURRENT_KINDS and root in self.rvars:
            # Halide refuses this without allow_race_conditions: the
            # iterations of a reduction update the same elements
            raise ScheduleError(
                f"cannot schedule reduction dimension {name!r} of"
                f" {self.func.name!r} as {kind.value}: its iterations race"
            )
        if factor is not None:
            inner = f"{name}.{kind.name.lower()[:1]}i"
            self.split(var, name, inner, factor)
            self.dims[self._dim_index(inner)].kind = kind
        else:
            self.dims[self._dim_index(var)].kind = kind
        return self

    def vectorize(self, var, factor: Optional[int] = None) -> "Stage":
        return self._set_kind(var, ForKind.VECTORIZED, factor)

    def unroll(self, var, factor: Optional[int] = None) -> "Stage":
        return self._set_kind(var, ForKind.UNROLLED, factor)

    def parallel(self, var) -> "Stage":
        return self._set_kind(var, ForKind.PARALLEL, None)

    def gpu_blocks(self, *vars) -> "Stage":
        for v in vars:
            self._set_kind(v, ForKind.GPU_BLOCK, None)
        return self

    def gpu_threads(self, *vars) -> "Stage":
        for v in vars:
            self._set_kind(v, ForKind.GPU_THREAD, None)
        return self

    def atomic(self) -> "Stage":
        """Permit vectorizing reduction dimensions (emits VectorReduce)."""
        self.atomic_flag = True
        return self

    def __repr__(self) -> str:
        kind = "update" if self.is_update else "pure"
        return f"<Stage {self.func.name} ({kind}): {[d.var for d in self.dims]}>"


class _UpdateToken:
    """Marker returned by ``FuncRef.__iadd__`` (the update is registered)."""


@dataclass(frozen=True)
class FuncCall(Call):
    """A Call that remembers which Func object it refers to.

    Lowering needs the object (not just the name) to walk the Func DAG and
    read schedules; storage flattening replaces these with Loads.
    """

    func: object = None


class FuncRef:
    """``f[y, x]`` — usable in expressions and as an update target."""

    def __init__(self, func: "Func", args: Tuple) -> None:
        self.func = func
        self.args = tuple(args)

    def to_expr(self) -> Expr:
        if self.func.pure is None:
            raise ValueError(f"Func {self.func.name!r} used before definition")
        return FuncCall(
            self.func.dtype,
            self.func.name,
            tuple(to_expr(a) for a in self.args),
            CallType.HALIDE,
            self.func,
        )

    def __iadd__(self, rhs):
        self.func._define_update(self.args, self.to_expr() + to_expr(rhs))
        return _UpdateToken()

    # arithmetic: coerce to Expr
    def __add__(self, other):
        return self.to_expr() + to_expr(other)

    def __radd__(self, other):
        return to_expr(other) + self.to_expr()

    def __sub__(self, other):
        return self.to_expr() - to_expr(other)

    def __rsub__(self, other):
        return to_expr(other) - self.to_expr()

    def __mul__(self, other):
        return self.to_expr() * to_expr(other)

    def __rmul__(self, other):
        return to_expr(other) * self.to_expr()

    def __truediv__(self, other):
        return self.to_expr() / to_expr(other)

    def __neg__(self):
        return -self.to_expr()


ComputeLevel = Union[str, Tuple["Func", str]]


class Func:
    """A pipeline stage: functional definition(s) plus a schedule."""

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or unique_name("f")
        self.pure: Optional[Stage] = None
        self.updates: List[Stage] = []
        #: "inline", "root", or (consumer Func, loop var name)
        self.compute_level: ComputeLevel = "inline"
        self.memory_type: MemoryType = MemoryType.AUTO
        self.explicit_bounds: Dict[str, Tuple[int, int]] = {}
        self.storage_order: Optional[List[str]] = None
        self._wrapper: Optional["Func"] = None

    # -- definition ------------------------------------------------------------

    def __getitem__(self, keys) -> FuncRef:
        if not isinstance(keys, tuple):
            keys = (keys,)
        return FuncRef(self, keys)

    def __call__(self, *keys) -> FuncRef:
        return FuncRef(self, keys)

    def __setitem__(self, keys, value) -> None:
        if isinstance(value, _UpdateToken):
            return  # update was registered by __iadd__
        if not isinstance(keys, tuple):
            keys = (keys,)
        if self.pure is None:
            arg_names = []
            for k in keys:
                if not isinstance(k, Var) or isinstance(k, RVar):
                    raise TypeError(
                        f"pure definition of {self.name!r} needs plain Vars,"
                        f" got {k!r}"
                    )
                arg_names.append(k.name)
            if len(set(arg_names)) != len(arg_names):
                raise ValueError("duplicate pure args")
            value_expr = to_expr(value)
            if value_expr.type.lanes != 1:
                raise ValueError("definitions must be scalar-valued")
            self.pure = Stage(
                self,
                tuple(Variable(n) for n in arg_names),
                value_expr,
                is_update=False,
            )
        else:
            self._define_update(keys, to_expr(value))

    def _define_update(self, args, value: Expr) -> None:
        if self.pure is None:
            raise ValueError(
                f"update on {self.name!r} before its pure definition"
            )
        arg_exprs = tuple(to_expr(a) for a in args)
        if len(arg_exprs) != self.dimensions:
            raise ValueError(
                f"update on {self.name!r} has {len(arg_exprs)} args, "
                f"expected {self.dimensions}"
            )
        self.updates.append(Stage(self, arg_exprs, value, is_update=True))

    # -- properties --------------------------------------------------------------

    @property
    def defined(self) -> bool:
        return self.pure is not None

    @property
    def dtype(self) -> DataType:
        if self.pure is None:
            return Float(32)
        return self.pure.value.type

    @property
    def dimensions(self) -> int:
        if self.pure is None:
            raise ValueError(f"Func {self.name!r} is not defined")
        return len(self.pure.args)

    @property
    def arg_names(self) -> List[str]:
        return [a.name for a in self.pure.args]

    def stages(self) -> List[Stage]:
        return [self.pure, *self.updates]

    # -- schedule: stage selection -------------------------------------------------

    def update(self, index: int = 0) -> Stage:
        return self.updates[index]

    def in_(self) -> "Func":
        """A wrapper Func that loads this one (Halide's ``f.in()``)."""
        if self._wrapper is None:
            wrapper = Func(f"{self.name}_wrapper")
            args = [Var(n) for n in self.arg_names]
            wrapper[tuple(args)] = FuncRef(self, tuple(args))
            self._wrapper = wrapper
        return self._wrapper

    # -- schedule: func-level directives --------------------------------------------

    def compute_at(self, consumer: "Func", var) -> "Func":
        name = var.name if isinstance(var, (Var, RDom)) else str(var)
        self.compute_level = (consumer, name)
        return self

    def compute_root(self) -> "Func":
        self.compute_level = "root"
        return self

    def store_in(self, memory_type: MemoryType) -> "Func":
        self.memory_type = memory_type
        return self

    def bound(self, var, min_value: int, extent: int) -> "Func":
        name = var.name if isinstance(var, (Var, RDom)) else str(var)
        if name not in self.arg_names:
            raise KeyError(f"{name!r} is not an argument of {self.name!r}")
        self.explicit_bounds[name] = (int(min_value), int(extent))
        return self

    def reorder_storage(self, *vars) -> "Func":
        names = [v.name if isinstance(v, (Var, RDom)) else str(v) for v in vars]
        if sorted(names) != sorted(self.arg_names):
            raise ValueError(
                "reorder_storage must mention every dimension exactly once"
            )
        self.storage_order = names
        return self

    # -- schedule: pure-stage passthroughs -------------------------------------------

    def split(self, *args, **kwargs) -> "Func":
        self.pure.split(*args, **kwargs)
        return self

    def tile(self, x, y, xi, yi, xfactor: int, yfactor: int) -> "Func":
        """Split both dims and reorder so the tile is innermost."""
        xname = x.name if isinstance(x, (Var, RDom)) else str(x)
        yname = y.name if isinstance(y, (Var, RDom)) else str(y)
        self.pure.split(x, xname, xi, xfactor)
        self.pure.split(y, yname, yi, yfactor)
        self.pure.reorder(xi, yi, xname, yname)
        return self

    def reorder(self, *vars) -> "Func":
        self.pure.reorder(*vars)
        return self

    def vectorize(self, var, factor: Optional[int] = None) -> "Func":
        self.pure.vectorize(var, factor)
        return self

    def unroll(self, var, factor: Optional[int] = None) -> "Func":
        self.pure.unroll(var, factor)
        return self

    def parallel(self, var) -> "Func":
        self.pure.parallel(var)
        return self

    def gpu_blocks(self, *vars) -> "Func":
        self.pure.gpu_blocks(*vars)
        return self

    def gpu_threads(self, *vars) -> "Func":
        self.pure.gpu_threads(*vars)
        return self

    def atomic(self) -> "Func":
        self.pure.atomic()
        return self

    def __repr__(self) -> str:
        state = "defined" if self.defined else "undefined"
        return f"Func({self.name!r}, {state})"


class ImageParam:
    """An external input image/buffer."""

    def __init__(
        self, dtype: DataType, dimensions: int, name: Optional[str] = None
    ) -> None:
        self.dtype = dtype
        self.dimensions = dimensions
        self.name = name or unique_name("img")

    def __getitem__(self, keys) -> Expr:
        if not isinstance(keys, tuple):
            keys = (keys,)
        if len(keys) != self.dimensions:
            raise ValueError(
                f"{self.name!r} has {self.dimensions} dims, got {len(keys)}"
            )
        return Call(
            self.dtype,
            self.name,
            tuple(to_expr(k) for k in keys),
            CallType.IMAGE,
        )

    def __call__(self, *keys) -> Expr:
        return self[keys]

    def __repr__(self) -> str:
        return f"ImageParam({self.dtype}, {self.dimensions}, {self.name!r})"
