"""The tile extractor: HARDBOILED's compiler pass (paper §III).

For every store statement that touches an accelerator-resident buffer it:

1. injects data-movement markers (loads from accelerator buffers are
   wrapped in ``AMX2Mem``/``WMMA2Mem``; values stored to accelerator
   buffers in ``Mem2AMX``/``Mem2WMMA``);
2. encodes the statement into an e-graph and runs the phased rule
   schedule (supporting rules to fixpoint between iterations of the
   axiomatic + application-specific + lowering rules);
3. extracts the cheapest equivalent statement under the AST-size cost
   model and decodes it back to IR;
4. post-processes: ``ExprVar`` temporaries become hoisted allocations
   initialized by their shuffle expression, WMMA statements are wrapped
   in warp-level ``gpu_lane`` loops, and adjacent warp loops are fused
   (the ``FuseGPUThreadLoops`` step of §III-D.1).

A store scheduled into accelerator memory that no rule can map is
reported as unmapped — selection is hit-or-miss by design, because the
schedule has already pinned where the computation must run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from ..eqsat import EGraph, extract_best, run_phased
from ..ir import (
    Allocate,
    Block,
    Call,
    Expr,
    For,
    ForKind,
    IntImm,
    Load,
    MemoryType,
    Ramp,
    Stmt,
    Store,
    StringImm,
    free_variables,
)
from ..ir.analysis import collect_stores
from ..ir.visitor import IRMutator, IRVisitor
from ..lowering.pipeline import Lowered
from ..targets.wmma import WARP_SIZE
from .cost import hardboiled_cost_model
from .encode import Encoder, contains_movement, decode_stmt, movement_wrapper
from .rules_amx import amx_rules
from .rules_axiomatic import axiomatic_rules
from .rules_dp4a import dp4a_rules
from .rules_supporting import supporting_rules
from .rules_wmma import wmma_rules

_KIND_BY_MEMORY = {
    MemoryType.AMX_TILE: "amx",
    MemoryType.WMMA_ACCUMULATOR: "wmma",
    MemoryType.DP4A_ACCUMULATOR: "dp4a",
}
_WRAP_IN = {"amx": "Mem2AMX", "wmma": "Mem2WMMA", "dp4a": "Mem2DP4A"}
_WRAP_OUT = {"amx": "AMX2Mem", "wmma": "WMMA2Mem", "dp4a": "DP4A2Mem"}
_APP_RULES = {"amx": amx_rules, "wmma": wmma_rules, "dp4a": dp4a_rules}


@dataclass
class StoreSelection:
    """Outcome of instruction selection for one store statement."""

    original: Store
    kind: str
    mapped: bool
    stmt: Stmt
    eqsat_seconds: float = 0.0
    egraph_classes: int = 0
    egraph_nodes: int = 0
    matches: int = 0


@dataclass
class SelectionReport:
    selections: List[StoreSelection] = field(default_factory=list)
    eqsat_seconds: float = 0.0
    total_seconds: float = 0.0
    #: saturation-phase breakdown summed over stores (match/apply/rebuild
    #: seconds plus round and match counters) — see ScheduleStats.profile
    eqsat_profile: Dict[str, float] = field(default_factory=dict)
    # -- warm-start telemetry (populated by repro.service) -------------------
    #: ``"hit"`` (selection skipped, artifact restored), ``"miss"``
    #: (selection ran, artifact persisted), or None (no artifact store)
    artifact_cache: Optional[str] = None
    #: content digest of the artifact key consulted
    artifact_key: Optional[str] = None
    #: seconds spent loading + decoding the artifact on a hit
    restore_seconds: float = 0.0
    #: per-store rows ``{"name", "kind", "mapped"}`` restored from an
    #: artifact (the live ``selections`` are not persisted — only their
    #: outcome is)
    restored_stores: List[Dict[str, object]] = field(default_factory=list)

    def _merge_profile(self, profile: Dict[str, float]) -> None:
        for key, value in profile.items():
            self.eqsat_profile[key] = self.eqsat_profile.get(key, 0) + value

    def _mapped_flags(self) -> List[bool]:
        return [bool(s.mapped) for s in self.selections] + [
            bool(row["mapped"]) for row in self.restored_stores
        ]

    @property
    def num_stores(self) -> int:
        return len(self.selections) + len(self.restored_stores)

    @property
    def num_mapped(self) -> int:
        return sum(self._mapped_flags())

    @property
    def all_mapped(self) -> bool:
        return all(self._mapped_flags())

    def store_rows(self) -> List[Dict[str, object]]:
        """``{"name", "kind", "mapped"}`` per store — the persistable
        outcome of selection, whether it ran live or was restored."""
        return [
            {"name": s.original.name, "kind": s.kind, "mapped": s.mapped}
            for s in self.selections
        ] + [dict(row) for row in self.restored_stores]

    def summary(self) -> str:
        lines = []
        for s in self.selections:
            status = "mapped" if s.mapped else "NOT MAPPED"
            lines.append(
                f"store to {s.original.name!r} [{s.kind}]: {status}"
                f" ({s.eqsat_seconds * 1e3:.1f} ms,"
                f" {s.egraph_nodes} e-nodes)"
            )
        for row in self.restored_stores:
            status = "mapped" if row["mapped"] else "NOT MAPPED"
            lines.append(
                f"store to {row['name']!r} [{row['kind']}]: {status}"
                " (restored from artifact cache)"
            )
        if self.artifact_cache is not None:
            key = (self.artifact_key or "")[:12]
            lines.append(
                f"artifact cache: {self.artifact_cache} [{key}...]"
                f" ({self.restore_seconds * 1e3:.1f} ms restore)"
                if self.artifact_cache == "hit"
                else f"artifact cache: {self.artifact_cache} [{key}...]"
            )
        return "\n".join(lines)


class SelectionError(RuntimeError):
    pass


class _AccelLoadWrapper(IRMutator):
    """Wraps loads from accelerator buffers in outbound movement markers."""

    def __init__(self, memory_of: Dict[str, MemoryType]):
        self.memory_of = memory_of

    def mutate_Load(self, node: Load):
        index = self.mutate(node.index)
        if index is not node.index:
            node = Load(node.dtype, node.name, index)
        kind = _KIND_BY_MEMORY.get(
            self.memory_of.get(node.name, MemoryType.HEAP)
        )
        if kind is not None:
            return movement_wrapper(_WRAP_OUT[kind], node)
        return node


@lru_cache(maxsize=None)
def _rules_for(kind: str):
    """(main rules, supporting rules) for one accelerator kind.

    Cached: the rule objects carry their compiled query/action programs
    (see ``eqsat.rules.Rule.compiled``), so sharing them across stores
    means each rule is lowered exactly once per process.
    """
    ax_rules, _ = axiomatic_rules()
    sup_rules, _ = supporting_rules()
    app_rules, _ = _APP_RULES[kind]()
    return tuple(ax_rules) + tuple(app_rules), tuple(sup_rules)


class TileExtractor:
    """Runs instruction selection over a lowered pipeline."""

    def __init__(
        self,
        lowered: Lowered,
        iterations: int = 14,
        strict: bool = False,
    ) -> None:
        self.lowered = lowered
        self.iterations = iterations
        self.strict = strict
        self.memory_of: Dict[str, MemoryType] = {
            name: info.memory_type
            for name, info in lowered.realizations.items()
        }
        self.report = SelectionReport()
        self._tmp_counter = 0
        self._pending_exprvars: Dict[Expr, str] = {}

    # -- public ------------------------------------------------------------

    def run(self) -> Tuple[Stmt, SelectionReport]:
        start = time.perf_counter()
        stmt = _StoreRewriter(self).mutate(self.lowered.stmt)
        stmt = _materialize_exprvars(stmt, self._pending_exprvars)
        stmt = fuse_gpu_lane_loops(stmt)
        self.report.total_seconds = time.perf_counter() - start
        if self.strict and not self.report.all_mapped:
            failed = [
                s.original.name
                for s in self.report.selections
                if not s.mapped
            ]
            raise SelectionError(
                "instruction selection failed for accelerator-scheduled"
                f" stores into {failed} — no lowering rule matched"
            )
        return stmt, self.report

    # -- per-store selection ---------------------------------------------------

    def store_kind(self, store: Store) -> Optional[str]:
        kind = _KIND_BY_MEMORY.get(
            self.memory_of.get(store.name, MemoryType.HEAP)
        )
        if kind is not None:
            return kind
        kinds = set()

        class V(IRVisitor):
            memory_of = self.memory_of

            def visit_Load(v_self, node: Load):
                k = _KIND_BY_MEMORY.get(
                    self.memory_of.get(node.name, MemoryType.HEAP)
                )
                if k is not None:
                    kinds.add(k)
                v_self.visit(node.index)

        V().visit(store.value)
        if len(kinds) > 1:
            raise SelectionError(
                f"store into {store.name!r} mixes accelerator kinds"
                f" {sorted(kinds)}"
            )
        return kinds.pop() if kinds else None

    def prepare_store(self, store: Store) -> Optional[Tuple[str, Store]]:
        """Movement-marker injection for one store: ``(kind, wrapped)``.

        Exposed separately so benchmarks can saturate the exact same
        wrapped stores through different engines.
        """
        kind = self.store_kind(store)
        if kind is None:
            return None
        value = _AccelLoadWrapper(self.memory_of).mutate(store.value)
        if (
            self.memory_of.get(store.name, MemoryType.HEAP)
            in _KIND_BY_MEMORY
        ):
            value = movement_wrapper(_WRAP_IN[kind], value)
        return kind, Store(store.name, store.index, value)

    def prepared_stores(self) -> List[Tuple[str, Store]]:
        """:meth:`prepare_store` of every accelerator store, in order."""
        prepared = map(self.prepare_store, collect_stores(self.lowered.stmt))
        return [entry for entry in prepared if entry is not None]

    def saturate(self, kind: str, wrapped: Store):
        """Encode one prepared store and run the phased rule schedule
        over it: ``(e-graph, root class, schedule stats)``."""
        egraph = EGraph()
        root = Encoder(egraph).stmt(wrapped)
        main_rules, sup_rules = _rules_for(kind)
        stats = run_phased(
            egraph, main_rules, sup_rules, iterations=self.iterations
        )
        return egraph, root, stats

    def select_store(self, store: Store) -> Tuple[Stmt, StoreSelection]:
        # 1. inject data movement markers
        prepared = self.prepare_store(store)
        if prepared is None:
            return store, None
        kind, wrapped = prepared

        # 2. equality saturation
        start = time.perf_counter()
        egraph, root, stats = self.saturate(kind, wrapped)
        # 3. extraction
        best = extract_best(egraph, root, hardboiled_cost_model())
        seconds = time.perf_counter() - start
        self.report.eqsat_seconds += seconds
        self.report._merge_profile(stats.profile())

        mapped = not contains_movement(best, kind)
        if mapped:
            stmt: Stmt = decode_stmt(best)
            stmt = self._collect_exprvars(stmt)
            if kind == "wmma":
                stmt = For(
                    "thread_id_x",
                    IntImm(0),
                    IntImm(WARP_SIZE),
                    ForKind.GPU_LANE,
                    stmt,
                )
        else:
            stmt = store  # keep the original, marker-free form
        selection = StoreSelection(
            original=store,
            kind=kind,
            mapped=mapped,
            stmt=stmt,
            eqsat_seconds=seconds,
            egraph_classes=egraph.num_classes(),
            egraph_nodes=egraph.num_nodes(),
            matches=stats.total_matches,
        )
        return stmt, selection

    def _collect_exprvars(self, stmt: Stmt) -> Stmt:
        extractor = self

        class Collector(IRMutator):
            def mutate_Call(self, node: Call):
                args = tuple(self.mutate(a) for a in node.args)
                new_args = []
                for a in args:
                    if isinstance(a, Call) and a.name == "$ExprVar":
                        inner = a.args[0]
                        name = extractor._pending_exprvars.get(inner)
                        if name is None:
                            name = f"hb_tmp{extractor._tmp_counter}"
                            extractor._tmp_counter += 1
                            extractor._pending_exprvars[inner] = name
                        new_args.append(StringImm(name))
                    else:
                        new_args.append(a)
                if tuple(new_args) != node.args:
                    return Call(
                        node.dtype, node.name, tuple(new_args), node.call_type
                    )
                return node

        return Collector().mutate(stmt)


class _StoreRewriter(IRMutator):
    def __init__(self, extractor: TileExtractor):
        self.extractor = extractor

    def mutate_Store(self, node: Store):
        stmt, selection = self.extractor.select_store(node)
        if selection is not None:
            self.extractor.report.selections.append(selection)
        return stmt


def _materialize_exprvars(
    stmt: Stmt, pending: Dict[Expr, str]
) -> Stmt:
    """Allocate + initialize each ExprVar, hoisted as far out as possible."""
    if not pending:
        return stmt
    # only loop variables constrain placement; symbols like image strides
    # are bound in the top-level environment
    loop_vars: Set[str] = set()

    class LoopCollector(IRVisitor):
        def visit_For(self, node: For):
            loop_vars.add(node.name)
            self.visit(node.body)

    LoopCollector().visit(stmt)
    remaining = {
        name: (expr, free_variables(expr) & loop_vars)
        for expr, name in pending.items()
    }

    def wrap(body: Stmt, names: List[str]) -> Stmt:
        for name in names:
            expr, _ = remaining[name]
            lanes = expr.type.lanes
            init = Store(name, Ramp(IntImm(0), IntImm(1), lanes), expr)
            body = Allocate(
                name,
                expr.type.element_of(),
                (IntImm(lanes),),
                MemoryType.STACK,
                Block.make([init, body]),
            )
        return body

    class Inserter(IRMutator):
        def __init__(self):
            self.bound: Set[str] = set()
            self.placed: Set[str] = set()

        def mutate_For(self, node: For):
            self.bound.add(node.name)
            body = self.mutate(node.body)
            ready = [
                name
                for name, (expr, needed) in remaining.items()
                if name not in self.placed
                and node.name in needed
                and needed <= self.bound
            ]
            self.placed.update(ready)
            body = wrap(body, ready)
            self.bound.discard(node.name)
            if body is node.body:
                return node
            return For(node.name, node.min_expr, node.extent, node.kind, body)

    inserter = Inserter()
    stmt = inserter.mutate(stmt)
    top_level = [
        name
        for name, (expr, needed) in remaining.items()
        if name not in inserter.placed
    ]
    return wrap(stmt, top_level)


def fuse_gpu_lane_loops(stmt: Stmt) -> Stmt:
    """Merge adjacent warp-level lane loops (FuseGPUThreadLoops)."""

    class Fuser(IRMutator):
        def mutate_Block(self, node: Block):
            parts = [self.mutate(p) for p in node.stmts]
            fused: List[Stmt] = []
            for part in parts:
                if (
                    fused
                    and isinstance(part, For)
                    and part.kind is ForKind.GPU_LANE
                    and isinstance(fused[-1], For)
                    and fused[-1].kind is ForKind.GPU_LANE
                    and fused[-1].name == part.name
                    and fused[-1].extent == part.extent
                ):
                    prev = fused.pop()
                    fused.append(
                        For(
                            prev.name,
                            prev.min_expr,
                            prev.extent,
                            prev.kind,
                            Block.make([prev.body, part.body]),
                        )
                    )
                else:
                    fused.append(part)
            return Block.make(fused)

    return Fuser().mutate(stmt)


def select_instructions(
    lowered: Lowered,
    iterations: int = 14,
    strict: bool = False,
    verify: bool = False,
) -> Tuple[Lowered, SelectionReport]:
    """Run HARDBOILED over a lowered pipeline.

    Returns a new :class:`Lowered` whose statement uses tensor intrinsics
    wherever the schedule requested accelerator storage, plus a report of
    which stores mapped (and how long EqSat took).

    ``verify=True`` gates the extracted statement through the static IR
    verifier (:func:`repro.analysis.check_ir`, ``phase="tensorized"``):
    an unsound extraction — illegal accumulator access, broken scoping,
    out-of-bounds addressing introduced by a rewrite — raises
    :class:`repro.analysis.AnalysisError` instead of miscomputing.
    """
    extractor = TileExtractor(lowered, iterations=iterations, strict=strict)
    stmt, report = extractor.run()
    new_lowered = replace(
        lowered, stmt=stmt, pass_seconds=dict(lowered.pass_seconds)
    )
    new_lowered.pass_seconds["hardboiled_eqsat"] = report.eqsat_seconds
    new_lowered.pass_seconds["hardboiled_total"] = report.total_seconds
    if verify:
        from ..analysis import check_ir

        start = time.perf_counter()
        check_ir(
            stmt,
            lowered.realizations,
            phase="tensorized",
            context=lowered.output.name,
            unmapped={
                row["name"]
                for row in report.store_rows()
                if not row["mapped"]
            },
        )
        new_lowered.pass_seconds["verify"] = time.perf_counter() - start
    return new_lowered, report
