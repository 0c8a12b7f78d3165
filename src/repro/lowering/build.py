"""Loop-nest construction and storage flattening.

``lower_skeleton`` turns a scheduled Func DAG into a loop nest of
:class:`Provide` statements (multi-dimensional stores), realizing each
producer at its ``compute_at`` level with bounds from interval analysis.
``flatten_storage`` then rewrites Provides/Calls into flat-indexed
Store/Load nodes using each realization's region and strides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir import (
    Allocate,
    Block,
    Call,
    CallType,
    Expr,
    For,
    IntImm,
    MemoryType,
    ProducerConsumer,
    Provide,
    Stmt,
    Store,
    Variable,
    as_int,
    contains,
    is_const,
    make_add,
    make_mul,
    make_sub,
    substitute,
)
from ..ir.visitor import IRMutator, IRVisitor
from ..frontend.func import Func, Stage
from .bounds import Interval, required_regions


class LoweringError(RuntimeError):
    pass


@dataclass
class RealizationInfo:
    """Where and how a Func's buffer is laid out."""

    func: Func
    mins: List[Expr]
    extents: List[Expr]
    #: storage dimension order: indices into arg order, innermost first
    storage_perm: List[int]
    memory_type: MemoryType
    is_output: bool = False

    @property
    def name(self) -> str:
        return self.func.name

    def strides(self) -> List[Expr]:
        """Stride per *argument* dimension (respecting storage order)."""
        strides: List[Optional[Expr]] = [None] * len(self.extents)
        acc: Expr = IntImm(1)
        for dim in self.storage_perm:
            strides[dim] = acc
            acc = make_mul(acc, self.extents[dim])
        return strides  # type: ignore[return-value]

    def flatten(self, args: Sequence[Expr]) -> Expr:
        idx: Expr = IntImm(0)
        for arg, mn, stride in zip(args, self.mins, self.strides()):
            idx = make_add(idx, make_mul(make_sub(arg, mn), stride))
        return idx


def _collect_called_funcs(expr) -> List[Func]:
    found: List[Func] = []

    class V(IRVisitor):
        def visit_Call(self, call: Call):
            func = getattr(call, "func", None)
            if call.call_type == CallType.HALIDE and func is not None:
                found.append(func)
            for a in call.args:
                self.visit(a)

        visit_FuncCall = visit_Call

    V().visit(expr)
    return found


def reachable_funcs(output: Func) -> List[Func]:
    """All Funcs in the DAG rooted at ``output`` (output first)."""
    seen: List[Func] = []

    def visit(f: Func) -> None:
        if any(g is f for g in seen):
            return
        seen.append(f)
        for stage in f.stages():
            for called in _collect_called_funcs(stage.value):
                visit(called)
            for arg in stage.args:
                for called in _collect_called_funcs(arg):
                    visit(called)

    visit(output)
    return seen


class _Inliner(IRMutator):
    """Substitutes calls to inline-scheduled Funcs with their definitions."""

    def __init__(self, materialized: Set[str]):
        self.materialized = materialized

    def mutate_FuncCall(self, call: Call):
        return self.mutate_Call(call)

    def mutate_Call(self, call: Call):
        func = getattr(call, "func", None)
        if (
            call.call_type == CallType.HALIDE
            and func is not None
            and func.name not in self.materialized
        ):
            if func.updates:
                raise LoweringError(
                    f"Func {func.name!r} has update definitions and must be"
                    " scheduled (compute_root/compute_at), not inlined"
                )
            args = tuple(self.mutate(a) for a in call.args)
            mapping = dict(zip(func.arg_names, args))
            return self.mutate(substitute(func.pure.value, mapping))
        return self.generic_mutate(call)


def inline_pass(expr, materialized: Set[str]):
    return _Inliner(materialized).mutate(expr)


class Lowerer:
    """Builds the full loop skeleton for one output Func."""

    def __init__(self, output: Func) -> None:
        self.output = output
        self.funcs = reachable_funcs(output)
        self.realizations: Dict[str, RealizationInfo] = {}
        self.atomic_vars: Set[str] = set()
        self.materialized = {
            f.name
            for f in self.funcs
            if f is output or f.compute_level != "inline"
        }
        # group producers by (consumer identity, var name)
        self.producers_at: Dict[Tuple[int, str], List[Func]] = {}
        self.root_producers: List[Func] = []
        for f in self.funcs:
            if f is output:
                continue
            level = f.compute_level
            if level == "inline":
                continue
            if level == "root":
                self.root_producers.append(f)
            else:
                consumer, var = level
                self.producers_at.setdefault((id(consumer), var), []).append(f)

    # -- public ------------------------------------------------------------------

    def lower(self) -> Stmt:
        if not self.output.defined:
            raise LoweringError(f"output {self.output.name!r} is undefined")
        region = self._output_region()
        body = self._realize(self.output, region, is_output=True)
        body = self._inject_root_producers(body)
        return body

    def _output_region(self) -> List[Interval]:
        region = []
        for name in self.output.arg_names:
            if name not in self.output.explicit_bounds:
                raise LoweringError(
                    f"output {self.output.name!r} needs bound() for {name!r}"
                )
            mn, ext = self.output.explicit_bounds[name]
            region.append(Interval(IntImm(mn), IntImm(mn + ext - 1)))
        return region

    # -- realization ----------------------------------------------------------------

    def _realize(
        self, func: Func, region: List[Interval], is_output: bool = False
    ) -> Stmt:
        if func.name in self.realizations:
            raise LoweringError(
                f"Func {func.name!r} realized twice — two consumers at"
                " different levels are not supported"
            )
        mins = [iv.lo for iv in region]
        extents = [iv.extent() for iv in region]
        if func.storage_order is not None:
            perm = [func.arg_names.index(n) for n in func.storage_order]
        else:
            perm = list(range(len(extents)))
        memory = func.memory_type
        if memory is MemoryType.AUTO:
            memory = MemoryType.HEAP if is_output else MemoryType.STACK
        info = RealizationInfo(
            func, mins, extents, perm, memory, is_output=is_output
        )
        self.realizations[func.name] = info

        stage_stmts = [
            self._build_stage(func, stage, region) for stage in func.stages()
        ]
        return ProducerConsumer(func.name, True, Block.make(stage_stmts))

    def _stage_bounds(
        self, func: Func, stage: Stage, region: List[Interval]
    ) -> Dict[str, Tuple[Expr, Expr]]:
        bounds: Dict[str, Tuple[Expr, Expr]] = {}
        if not stage.is_update:
            for arg, iv in zip(func.arg_names, region):
                bounds[arg] = (iv.lo, iv.extent())
        else:
            for pos, arg in enumerate(stage.args):
                if isinstance(arg, Variable):
                    if arg.name in stage.rvars:
                        continue
                    iv = region[pos]
                    bounds[arg.name] = (iv.lo, iv.extent())
                elif is_const(arg):
                    continue
                else:
                    raise LoweringError(
                        f"update of {func.name!r} has a non-variable LHS"
                        f" index; cannot derive its bounds"
                    )
            for rvar in stage.rvars.values():
                bounds[rvar.name] = (
                    IntImm(rvar.min_value),
                    IntImm(rvar.extent),
                )
        return bounds

    def _apply_splits(
        self, stage: Stage, bounds: Dict[str, Tuple[Expr, Expr]]
    ) -> Dict[str, Expr]:
        """Mutates ``bounds``; returns the substitution old var -> expr."""
        subst: Dict[str, Expr] = {}
        for split in stage.splits:
            if split.old not in bounds:
                raise LoweringError(
                    f"split of unknown dimension {split.old!r} in"
                    f" {stage.func.name!r}"
                )
            mn, ext = bounds.pop(split.old)
            if not is_const(ext):
                raise LoweringError(
                    f"split of {split.old!r}: extent must be constant, got"
                    f" a symbolic expression"
                )
            extent = as_int(ext)
            if extent % split.factor != 0:
                raise LoweringError(
                    f"split of {split.old!r} in {stage.func.name!r}: extent"
                    f" {extent} is not divisible by factor {split.factor} —"
                    " this simplified Halide requires exact splits"
                )
            bounds[split.inner] = (IntImm(0), IntImm(split.factor))
            bounds[split.outer] = (IntImm(0), IntImm(extent // split.factor))
            replacement = make_add(
                make_add(
                    make_mul(
                        Variable(split.outer), IntImm(split.factor)
                    ),
                    Variable(split.inner),
                ),
                mn,
            )
            # rewrite prior substitutions that mention the split var
            for key, value in list(subst.items()):
                subst[key] = substitute(value, {split.old: replacement})
            subst[split.old] = replacement
        return subst

    def _build_stage(
        self, func: Func, stage: Stage, region: List[Interval]
    ) -> Stmt:
        bounds = self._stage_bounds(func, stage, region)
        subst = self._apply_splits(stage, bounds)
        stage_index = func.stages().index(stage)
        # qualify every loop variable with its func/stage, as Halide does
        # (conv.s1.x), so producer loops never capture consumer variables
        qualify = {
            dim.var: f"{func.name}.s{stage_index}.{dim.var}"
            for dim in stage.dims
        }
        rename = {plain: Variable(q) for plain, q in qualify.items()}

        value = inline_pass(stage.value, self.materialized)
        args = tuple(inline_pass(a, self.materialized) for a in stage.args)
        if subst:
            value = substitute(value, subst)
            args = tuple(substitute(a, subst) for a in args)
        value = substitute(value, rename)
        args = tuple(substitute(a, rename) for a in args)
        if stage.atomic_flag:
            self.atomic_vars.update(qualify.values())

        stmt: Stmt = Provide(func.name, args, value)
        # wrap loops innermost-first; inject producers at their level
        for position, dim in enumerate(stage.dims):
            if dim.var not in bounds:
                raise LoweringError(
                    f"dimension {dim.var!r} of {func.name!r} has no bounds"
                    " (reorder/split bookkeeping error)"
                )
            stmt = self._inject_producers(
                func, stage, stmt, position, bounds, qualify
            )
            mn, ext = bounds[dim.var]
            stmt = For(qualify[dim.var], mn, ext, dim.kind, stmt)
        return stmt

    def _inject_producers(
        self,
        func: Func,
        stage: Stage,
        stmt: Stmt,
        position: int,
        bounds: Dict[str, Tuple[Expr, Expr]],
        qualify: Dict[str, str],
    ) -> Stmt:
        dim = stage.dims[position]
        producers = self.producers_at.get((id(func), dim.var), [])
        for producer in producers:
            if not _references(stmt, producer.name):
                continue
            scope = {}
            for inner in stage.dims[:position]:
                mn, ext = bounds[inner.var]
                scope[qualify[inner.var]] = Interval(
                    mn, make_sub(make_add(mn, ext), IntImm(1))
                )
            # loops of producers already injected at this level are also
            # inside the insertion point: their variables range too
            scope.update(_loop_scope(stmt))
            regions = required_regions(stmt, [producer.name], scope)
            if producer.name not in regions:
                continue
            produce = self._realize(producer, regions[producer.name])
            info = self.realizations[producer.name]
            stmt = Allocate(
                producer.name,
                producer.dtype,
                tuple(info.extents),
                info.memory_type,
                Block.make([produce, stmt]),
            )
        return stmt

    def _root_producer_order(self) -> List[Func]:
        """Topological order: consumers first (injected innermost)."""
        by_name = {f.name: f for f in self.root_producers}
        order: List[Func] = []
        visiting: Set[str] = set()

        def visit(f: Func) -> None:
            if f in order:
                return
            if f.name in visiting:
                raise LoweringError(
                    f"cycle among compute_root funcs at {f.name!r}"
                )
            visiting.add(f.name)
            # producers this func consumes come AFTER it (wrap outside)
            consumed = []
            for stage in f.stages():
                for called in _collect_called_funcs(stage.value):
                    if called.name in by_name and called is not f:
                        consumed.append(called)
            order.append(f)
            for g in consumed:
                visit(g)
            visiting.discard(f.name)

        for f in self.root_producers:
            visit(f)
        # consumers-of-consumers may appear late; re-sort stably so that
        # every func precedes everything it consumes
        result: List[Func] = []
        for f in order:
            if f not in result:
                result.append(f)
        changed = True
        while changed:
            changed = False
            for idx, f in enumerate(result):
                for stage in f.stages():
                    for called in _collect_called_funcs(stage.value):
                        if called in result:
                            jdx = result.index(called)
                            if jdx < idx:
                                result.insert(idx, result.pop(jdx))
                                changed = True
        return result

    def _inject_root_producers(self, body: Stmt) -> Stmt:
        # root producers realize over the full region their consumers
        # touch; injection order is consumers-innermost so every produce
        # runs after the produces it depends on
        for producer in self._root_producer_order():
            if not _references(body, producer.name):
                continue
            scope = _loop_scope(body)
            regions = required_regions(body, [producer.name], scope)
            if producer.name not in regions:
                continue
            produce = self._realize(producer, regions[producer.name])
            info = self.realizations[producer.name]
            body = Allocate(
                producer.name,
                producer.dtype,
                tuple(info.extents),
                info.memory_type,
                Block.make([produce, body]),
            )
        return body


def _references(stmt: Stmt, name: str) -> bool:
    return contains(
        stmt,
        lambda n: isinstance(n, Call)
        and n.call_type in (CallType.HALIDE, CallType.IMAGE)
        and n.name == name,
    )


def _loop_scope(stmt: Stmt) -> Dict[str, Interval]:
    scope: Dict[str, Interval] = {}

    class V(IRVisitor):
        def visit_For(self, node: For):
            scope[node.name] = Interval(
                node.min_expr,
                make_sub(make_add(node.min_expr, node.extent), IntImm(1)),
            )
            self.visit(node.body)

    V().visit(stmt)
    return scope


class _Flattener(IRMutator):
    """Provide -> Store and Call -> Load with flat indices."""

    def __init__(self, realizations: Dict[str, RealizationInfo]):
        self.realizations = realizations

    def mutate_Provide(self, node: Provide):
        args = tuple(self.mutate(a) for a in node.args)
        value = self.mutate(node.value)
        info = self.realizations.get(node.name)
        if info is None:
            raise LoweringError(f"Provide to unrealized func {node.name!r}")
        return Store(node.name, info.flatten(args), value)

    def mutate_FuncCall(self, node: Call):
        return self.mutate_Call(node)

    def mutate_Call(self, node: Call):
        args = tuple(self.mutate(a) for a in node.args)
        if node.call_type == CallType.HALIDE:
            info = self.realizations.get(node.name)
            if info is None:
                raise LoweringError(
                    f"call to unrealized func {node.name!r} — inline funcs"
                    " should have been substituted"
                )
            from ..ir.expr import Load

            return Load(node.dtype, node.name, info.flatten(args))
        if node.call_type == CallType.IMAGE:
            idx: Expr = IntImm(0)
            stride: Expr = IntImm(1)
            for d, arg in enumerate(args):
                if d == 0:
                    stride_expr: Expr = IntImm(1)
                else:
                    stride_expr = Variable(f"{node.name}.stride.{d}")
                idx = make_add(idx, make_mul(arg, stride_expr))
            from ..ir.expr import Load

            return Load(node.dtype, node.name, idx)
        if args != node.args:
            import dataclasses

            return dataclasses.replace(node, args=args)
        return node


def flatten_storage(
    stmt: Stmt, realizations: Dict[str, RealizationInfo]
) -> Stmt:
    return _Flattener(realizations).mutate(stmt)
