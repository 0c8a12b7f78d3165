"""Rules: egglog-style rewrites, queries, and actions.

A rule has a *query* (a conjunction of atoms) and *actions*.  Atoms:

* ``TermAtom(var, pattern)`` — ``(= var (Op ...))``; matches the pattern
  anywhere in the e-graph and binds ``var`` to the matched class.
* ``RelAtom(name, args)`` — ``(rel a b)``; matches stored relation rows.
* ``GuardAtom(op, args)`` — primitive predicates over literal payloads,
  e.g. ``(> l2 l1)`` or ``(= 0 (% l2 l1))``.  A guard ``(= x <expr>)``
  with ``x`` unbound *binds* ``x`` to the computed literal (egglog-style
  primitive evaluation).

Actions: ``LetAction`` (bind a constructed term), ``UnionAction``,
``FactAction`` (assert a relation row).

Rules can be written programmatically or parsed from egglog-ish text via
:func:`parse_program`.

Saturation runs on :class:`RuleEngine`: each rule's query is compiled
once to a flat register program (:mod:`.ematch`), matched either against
the e-graph's persistent head index (full pass) or only from the e-nodes
and relation rows that changed since the last pass, each tried at the
query atoms it can occupy (delta pass, exact for rules that pass the
static safety analysis).  Matches are deduplicated on canonical variable
bindings before application, and applied through each rule's
:class:`CompiledActions`: closures built once over the query's register
slots.  Every rule runs every round, as the paper's schedule
(:mod:`.schedule`) asks.  The engine is persistent: keeping one engine
across calls (as ``run_phased`` does) carries the cursor and dedup
tables forward, so later passes only pay for what changed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .egraph import EGraph
from .ematch import (
    OP_SCAN,
    Bindings,
    CompiledQuery,
    MatchError,
    compile_query,
    entry_traits,
    first_candidates,
    run_query,
    value_fn,
)
from .language import ENode
from .pattern import PRIMITIVE_OPS, PApp, PLit, Pattern, PVar, parse_pattern
from .sexpr import parse_all

COMPARISON_OPS = {">", "<", ">=", "<=", "!=", "="}


@dataclass(frozen=True)
class TermAtom:
    var: Optional[str]  # None = existence check only
    pattern: Pattern


@dataclass(frozen=True)
class RelAtom:
    name: str
    args: Tuple[Pattern, ...]


@dataclass(frozen=True)
class GuardAtom:
    op: str
    args: Tuple[Pattern, ...]


Atom = Union[TermAtom, RelAtom, GuardAtom]


@dataclass(frozen=True)
class LetAction:
    name: str
    pattern: Pattern


@dataclass(frozen=True)
class UnionAction:
    a: Pattern
    b: Pattern


@dataclass(frozen=True)
class FactAction:
    name: str
    args: Tuple[Pattern, ...]


Action = Union[LetAction, UnionAction, FactAction]


@dataclass
class Rule:
    name: str
    query: List[Atom]
    actions: List[Action]

    def __str__(self) -> str:
        return f"<rule {self.name}: {len(self.query)} atoms>"

    def compiled(self) -> CompiledQuery:
        """The query lowered to a register program (cached per rule)."""
        program = self.__dict__.get("_compiled")
        if program is None:
            program = compile_query(self.query)
            self.__dict__["_compiled"] = program
        return program

    def compiled_actions(self) -> "CompiledActions":
        """The actions lowered against the query's slots (cached)."""
        actions = self.__dict__.get("_compiled_actions")
        if actions is None:
            actions = CompiledActions(self, self.compiled())
            self.__dict__["_compiled_actions"] = actions
        return actions


def rewrite(
    name: str, lhs: Pattern, rhs: Pattern, when: Sequence[Atom] = ()
) -> Rule:
    """``(rewrite lhs rhs :when (...))`` sugar."""
    root = PVar("__root")
    if isinstance(lhs, PVar):
        # bare-variable LHS (e.g. grounded by an IsExpr relation): run the
        # side conditions first so the variable is bound by a relation row
        # rather than enumerating every e-class
        query: List[Atom] = [*when, TermAtom("__root", lhs)]
    else:
        query = [TermAtom("__root", lhs), *when]
    return Rule(name, query, [UnionAction(root, rhs)])


def find_matches(egraph: EGraph, rule: Rule) -> List[Bindings]:
    """All distinct binding sets for one rule (a full pass)."""
    return run_query(egraph, rule.compiled())


# -- applying actions ----------------------------------------------------------


class CompiledActions:
    """A rule's actions lowered against its query's register slots.

    Per match, the engine snapshots the matcher's register array and
    runs these pre-built closures over it.  Let-bound names get
    slots past the query's registers.  The closures take the e-graph as
    an argument, so one compilation (cached on the rule) serves every
    engine and e-graph.
    """

    __slots__ = ("extra_slots", "_steps")

    def __init__(self, rule: Rule, program: CompiledQuery) -> None:
        slot_map = dict(program.var_slots)
        n_regs = max(program.n_regs, 1)
        extra = 0

        def build(pattern: Pattern):
            if isinstance(pattern, PVar):
                slot = slot_map.get(pattern.name)
                if slot is None:
                    raise MatchError(
                        f"unbound variable {pattern.name!r} in action"
                    )
                return lambda eg, env, slot=slot: eg.find(env[slot])
            if isinstance(pattern, PLit):
                kind, value = pattern.kind, pattern.value
                return lambda eg, env: eg.add_literal(kind, value)
            if pattern.head in PRIMITIVE_OPS:
                compute = value_fn(pattern, dict(slot_map))

                def prim(eg, env, pattern=pattern):
                    value = compute(env, eg)
                    if value is None:
                        raise MatchError(
                            f"cannot evaluate primitive {pattern} —"
                            f" non-literal operand"
                        )
                    kind = "i64" if isinstance(value, int) else "f64"
                    return eg.add_literal(kind, value)

                return prim
            head = pattern.head
            children = tuple(build(a) for a in pattern.args)
            return lambda eg, env: eg.add_node(
                ENode(head, tuple([c(eg, env) for c in children]))
            )

        steps = []
        for action in rule.actions:
            if isinstance(action, LetAction):
                builder = build(action.pattern)
                slot = n_regs + extra
                extra += 1
                slot_map[action.name] = slot

                def step(eg, env, builder=builder, slot=slot):
                    env[slot] = builder(eg, env)

            elif isinstance(action, UnionAction):
                build_a = build(action.a)
                build_b = build(action.b)

                def step(eg, env, build_a=build_a, build_b=build_b):
                    eg.union(build_a(eg, env), build_b(eg, env))

            elif isinstance(action, FactAction):
                builders = tuple(build(p) for p in action.args)
                name = action.name

                def step(eg, env, builders=builders, name=name):
                    eg.assert_fact(
                        name, tuple([b(eg, env) for b in builders])
                    )

            else:
                raise MatchError(f"unknown action {action!r}")
            steps.append(step)
        self.extra_slots = extra
        self._steps = tuple(steps)

    def run(self, egraph: EGraph, snapshot: List[int]) -> None:
        env = snapshot + [0] * self.extra_slots if self.extra_slots else snapshot
        for step in self._steps:
            step(egraph, env)


@dataclass
class RunStats:
    iterations: int = 0
    #: distinct (post-dedup) matches applied
    total_matches: int = 0
    seconds: float = 0.0
    saturated: bool = False
    matches_per_rule: Dict[str, int] = field(default_factory=dict)
    # -- timing breakdown ---------------------------------------------------
    match_seconds: float = 0.0
    apply_seconds: float = 0.0
    rebuild_seconds: float = 0.0
    # -- engine counters ----------------------------------------------------
    #: rounds that matched only against the dirty closure
    delta_rounds: int = 0
    #: rounds that matched against the full graph
    full_rounds: int = 0
    #: duplicate matches dropped before application
    dedup_dropped: int = 0


class RuleEngine:
    """Incremental saturation engine over one e-graph and one rule set.

    Persistent across :meth:`run` calls: a cursor into the e-graph's
    change logs makes later passes delta passes, and per-rule dedup
    tables stop already applied matches from being re-applied.  A fresh
    engine starts before the logs' first entry, which makes its first
    pass a full pass.

    A delta pass matches *from* what changed and nothing else: each
    e-node (relation row) logged since the cursor is tried at every atom
    of every rule that can hold it, through that atom's anchored program
    (:attr:`.ematch.CompiledQuery.anchors`).  A match made only of
    unchanged nodes and rows was found when they were last matched, so
    the pass is exact — and does work in proportion to what is new, not
    to what is reachable from it.
    """

    def __init__(self, egraph: EGraph, rules: Sequence[Rule]) -> None:
        self.egraph = egraph
        self.rules = list(rules)
        self.programs = [rule.compiled() for rule in self.rules]
        self.actions = [rule.compiled_actions() for rule in self.rules]
        self.seen: List[Set[tuple]] = [set() for _ in self.rules]
        #: where the rules have matched up to; None before the first pass
        self.cursor: Optional[Tuple[int, int]] = None
        #: (head, arity) / relation name -> ({trait: [(rule index,
        #: executor)]}, probes): the anchored programs to run on a
        #: changed e-node / row that has the trait (None: on any), and
        #: what :func:`.ematch.entry_traits` must look at to tell
        self._on_nodes: Dict[tuple, Tuple[dict, dict]] = {}
        self._on_rows: Dict[str, Tuple[dict, dict]] = {}
        #: rules that must match fully every round
        self._full_only: List[int] = []
        for idx, program in enumerate(self.programs):
            if not program.delta_safe:
                self._full_only.append(idx)
            for first_op, key, executor, trait in program.anchors:
                table = self._on_nodes if first_op == OP_SCAN else self._on_rows
                anchors, probes = table.setdefault(key, ({}, {}))
                anchors.setdefault(trait, []).append((idx, executor))
                if trait is not None:
                    probes.setdefault(trait[:2], set()).add(trait[2])

    def _match(self, end, found) -> int:
        """Collect, into ``found[rule index][key]``, the register
        snapshot of every match not applied before among what changed
        between the engine's cursor and ``end`` (among everything, before
        the first pass).  Returns how many matches it enumerated in
        vain."""
        egraph = self.egraph
        programs = self.programs
        dropped = 0
        emitters: Dict[int, object] = {}

        def collect(idx, executor, candidates):
            on_match = emitters.get(idx)
            if on_match is None:
                key_of = programs[idx].key_of
                known, fresh = self.seen[idx], found.setdefault(idx, {})

                def on_match(regs):
                    nonlocal dropped
                    key = key_of(regs)
                    if key in known or key in fresh:
                        dropped += 1
                    else:
                        fresh[key] = regs[:]

                emitters[idx] = on_match
            executor.run(egraph, candidates, on_match)

        if self.cursor is None:
            everything = range(len(programs))
        else:
            everything = self._full_only
            nodes, rows = egraph.changed_since(self.cursor, end)
            for table, changed in (
                (self._on_nodes, nodes),
                (self._on_rows, rows),
            ):
                for key, entries in changed.items():
                    if key not in table:
                        continue
                    anchors, probes = table[key]
                    having = entry_traits(
                        egraph, entries, probes, table is self._on_rows
                    )
                    having[None] = entries
                    for trait, candidates in having.items():
                        for idx, executor in anchors.get(trait, ()):
                            collect(idx, executor, candidates)
        for idx in everything:
            executor = programs[idx].executor
            candidates = first_candidates(egraph, executor.first)
            if candidates:
                collect(idx, executor, candidates)
        return dropped

    def run(self, iterations: int = 1) -> RunStats:
        """Run up to ``iterations`` match-apply-rebuild rounds."""
        egraph = self.egraph
        stats = RunStats()
        start = time.perf_counter()
        if egraph.worklist or egraph._stale_ids:
            # a caller unioned without rebuilding: restore congruence
            # (and the canonical spellings the compiled programs read)
            # before matching
            egraph.rebuild()
        for _ in range(iterations):
            stats.iterations += 1
            version_before = egraph.version
            end = egraph.change_cursor()
            t_match = time.perf_counter()
            #: rule index -> {dedup key: register snapshot}
            found: Dict[int, Dict[tuple, List[int]]] = {}
            stats.dedup_dropped += self._match(end, found)
            if self.cursor is None:
                stats.full_rounds += 1
            else:
                stats.delta_rounds += 1
            self.cursor = end
            # apply in (rule, key) order, so what a round does to the
            # e-graph does not depend on how it enumerated its matches
            pending = [
                (idx, found[idx][key])
                for idx in sorted(found)
                for key in sorted(found[idx])
            ]
            for idx, fresh in found.items():
                if fresh:
                    self.seen[idx].update(fresh)
                    name = self.rules[idx].name
                    stats.matches_per_rule[name] = stats.matches_per_rule.get(
                        name, 0
                    ) + len(fresh)
            stats.total_matches += len(pending)
            t_apply = time.perf_counter()
            stats.match_seconds += t_apply - t_match
            actions = self.actions
            for idx, snapshot in pending:
                actions[idx].run(egraph, snapshot)
            t_rebuild = time.perf_counter()
            stats.apply_seconds += t_rebuild - t_apply
            egraph.rebuild()
            stats.rebuild_seconds += time.perf_counter() - t_rebuild
            if egraph.version == version_before:
                stats.saturated = True
                break
        stats.seconds = time.perf_counter() - start
        return stats


def run_rules(
    egraph: EGraph, rules: Sequence[Rule], iterations: int = 1
) -> RunStats:
    """Run ``iterations`` rounds: match all rules, apply, rebuild."""
    return RuleEngine(egraph, rules).run(iterations)


def saturate(
    egraph: EGraph, rules: Sequence[Rule], max_iterations: int = 64
) -> RunStats:
    """Run until no rule changes the e-graph (or the iteration cap)."""
    return RuleEngine(egraph, rules).run(max_iterations)


# -- parsing egglog-ish rule text ------------------------------------------------


def _is_computational(p: Pattern) -> bool:
    if isinstance(p, (PVar, PLit)):
        return True
    return p.head in PRIMITIVE_OPS and all(_is_computational(a) for a in p.args)


def parse_atom(sexpr, relations: Set[str]) -> Atom:
    if not isinstance(sexpr, list) or not sexpr:
        raise ValueError(f"bad atom: {sexpr!r}")
    head = sexpr[0]
    if head == "=" and len(sexpr) == 3:
        lhs = parse_pattern(sexpr[1])
        rhs = parse_pattern(sexpr[2])
        lhs_structural = isinstance(lhs, PApp) and lhs.head not in PRIMITIVE_OPS
        rhs_structural = isinstance(rhs, PApp) and rhs.head not in PRIMITIVE_OPS
        if rhs_structural and isinstance(lhs, PVar):
            return TermAtom(lhs.name, rhs)
        if lhs_structural and isinstance(rhs, PVar):
            return TermAtom(rhs.name, lhs)
        if lhs_structural and rhs_structural:
            raise ValueError(f"cannot relate two structural patterns: {sexpr}")
        return GuardAtom("=", (lhs, rhs))
    if head in COMPARISON_OPS:
        return GuardAtom(head, tuple(parse_pattern(a) for a in sexpr[1:]))
    if head in relations:
        return RelAtom(head, tuple(parse_pattern(a) for a in sexpr[1:]))
    # bare structural pattern: existence check
    return TermAtom(None, parse_pattern(sexpr))


def parse_action(sexpr, relations: Set[str]) -> Action:
    if not isinstance(sexpr, list) or not sexpr:
        raise ValueError(f"bad action: {sexpr!r}")
    head = sexpr[0]
    if head == "let" and len(sexpr) == 3:
        return LetAction(sexpr[1], parse_pattern(sexpr[2]))
    if head == "union" and len(sexpr) == 3:
        return UnionAction(parse_pattern(sexpr[1]), parse_pattern(sexpr[2]))
    if head in relations:
        return FactAction(head, tuple(parse_pattern(a) for a in sexpr[1:]))
    raise ValueError(f"unknown action head {head!r}")


def parse_program(
    text: str, relations: Optional[Set[str]] = None
) -> Tuple[List[Rule], Set[str]]:
    """Parse a sequence of ``relation``/``rewrite``/``rule`` declarations.

    Returns the rules plus the full set of declared relation names.
    ``function`` declarations are treated as operator declarations (their
    equations are ordinary rewrites in this engine) and skipped.
    """
    relations = set(relations or ())
    rules: List[Rule] = []
    counter = 0
    for decl in parse_all(text):
        if not isinstance(decl, list) or not decl:
            raise ValueError(f"bad declaration: {decl!r}")
        kind = decl[0]
        if kind == "relation":
            relations.add(decl[1])
        elif kind in ("function", "datatype", "sort"):
            continue  # structural declarations are implicit here
        elif kind == "rewrite":
            counter += 1
            lhs = parse_pattern(decl[1])
            rhs = parse_pattern(decl[2])
            when: List[Atom] = []
            rest = decl[3:]
            while rest:
                if rest[0] == ":when":
                    when.extend(
                        parse_atom(c, relations) for c in rest[1]
                    )
                    rest = rest[2:]
                elif rest[0] == ":name":
                    rest = rest[2:]
                else:
                    raise ValueError(f"unknown rewrite option {rest[0]!r}")
            rules.append(rewrite(f"rewrite-{counter}", lhs, rhs, when))
        elif kind == "rule":
            counter += 1
            atoms = [parse_atom(a, relations) for a in decl[1]]
            actions = [parse_action(a, relations) for a in decl[2]]
            name = f"rule-{counter}"
            rest = decl[3:]
            while rest:
                if rest[0] == ":name":
                    name = str(rest[1]).strip('"')
                    rest = rest[2:]
                else:
                    raise ValueError(f"unknown rule option {rest[0]!r}")
            rules.append(Rule(name, atoms, actions))
        else:
            raise ValueError(f"unknown declaration {kind!r}")
    return rules, relations
