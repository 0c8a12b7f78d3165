"""The full-rematch saturation loop: the exactness oracle for the engine.

This is the engine as it stood before it became incremental: every
round snapshots the whole e-graph into a by-head index
(:class:`LegacyMatcher`), re-matches every rule against the entire graph
with recursive generators over bindings dicts (re-deriving every old
match — a class holding several same-head nodes even re-yields its
matches once per node), and re-applies everything it finds by
instantiating the action patterns under those dicts
(:func:`apply_actions`).  It shares nothing with
``repro.eqsat.rules.RuleEngine`` beyond the e-graph, the rule data types
and the primitive operators' arithmetic, so it is what the engine's
results are held to: ``tests/test_eqsat_engine.py`` runs both over every
accelerator store of the 18-program benchmark catalog, and
``benchmarks/bench_eqsat_speed.py`` races them.  Keep its semantics
frozen.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.eqsat.egraph import EGraph
from repro.eqsat.ematch import Bindings, MatchError, _apply_prim
from repro.eqsat.language import ENode
from repro.eqsat.pattern import PRIMITIVE_OPS, PApp, PLit, Pattern, PVar
from repro.eqsat.rules import (
    Atom,
    FactAction,
    GuardAtom,
    LetAction,
    RelAtom,
    Rule,
    RunStats,
    TermAtom,
    UnionAction,
)
from repro.eqsat.schedule import ScheduleStats


def nodes_by_head(egraph: EGraph) -> Dict[object, List[Tuple[int, ENode]]]:
    """A fresh snapshot of (class, node) by head, over canonical classes."""
    index: Dict[object, List[Tuple[int, ENode]]] = {}
    for eclass_id, eclass in egraph.classes.items():
        for node in eclass.nodes:
            index.setdefault(node.head, []).append((eclass_id, node))
    return index


class LegacyMatcher:
    """The original snapshot matcher, duplicate yields and all.

    The old engine did not deduplicate ``match_anywhere`` results, and
    its cost profile depended on re-expanding every duplicate through
    the query join.
    """

    def __init__(self, egraph: EGraph) -> None:
        self.egraph = egraph
        self.index = nodes_by_head(egraph)

    def match_in_class(
        self, pattern: Pattern, eclass_id: int, bindings: Bindings
    ) -> Iterator[Bindings]:
        egraph = self.egraph
        eclass_id = egraph.find(eclass_id)
        if isinstance(pattern, PVar):
            bound = bindings.get(pattern.name)
            if bound is not None:
                if egraph.find(bound) == eclass_id:
                    yield bindings
                return
            new = dict(bindings)
            new[pattern.name] = eclass_id
            yield new
            return
        if isinstance(pattern, PLit):
            value = egraph.literal_value(eclass_id)
            if value is not None and value == pattern.value:
                yield bindings
            return
        for node in list(egraph.nodes_of(eclass_id)):
            if node.head != pattern.head or len(node.args) != len(pattern.args):
                continue
            yield from self._match_args(pattern.args, node.args, bindings, 0)

    def _match_args(self, patterns, arg_ids, bindings, i) -> Iterator[Bindings]:
        if i == len(patterns):
            yield bindings
            return
        for partial in self.match_in_class(patterns[i], arg_ids[i], bindings):
            yield from self._match_args(patterns, arg_ids, partial, i + 1)

    def match_anywhere(
        self, pattern: Pattern, bindings: Bindings
    ) -> Iterator[tuple]:
        if isinstance(pattern, PVar) and pattern.name in bindings:
            root = self.egraph.find(bindings[pattern.name])
            yield root, bindings
            return
        if isinstance(pattern, PApp):
            for eclass_id, _node in self.index.get(pattern.head, ()):  # noqa: B007
                eclass_id = self.egraph.find(eclass_id)
                for out in self.match_in_class(pattern, eclass_id, bindings):
                    yield eclass_id, out
            return
        for eclass_id in list(self.egraph.classes):
            if eclass_id not in self.egraph.classes:
                continue
            for out in self.match_in_class(pattern, eclass_id, bindings):
                yield self.egraph.find(eclass_id), out


def eval_value(egraph: EGraph, pattern: Pattern, bindings: Bindings):
    """Evaluate a computational pattern to a Python value, or None."""
    if isinstance(pattern, PLit):
        return pattern.value
    if isinstance(pattern, PVar):
        eclass = bindings.get(pattern.name)
        if eclass is None:
            return None
        return egraph.literal_value(eclass)
    if isinstance(pattern, PApp) and pattern.head in PRIMITIVE_OPS:
        values = [eval_value(egraph, a, bindings) for a in pattern.args]
        if any(v is None for v in values):
            return None
        return _apply_prim(pattern.head, values)
    return None


def instantiate(egraph: EGraph, pattern: Pattern, bindings: Bindings) -> int:
    """Build (or look up) the e-class for a pattern under bindings.

    Primitive-op applications are folded into literals; structural heads
    become new e-nodes.
    """
    if isinstance(pattern, PVar):
        eclass = bindings.get(pattern.name)
        if eclass is None:
            raise MatchError(f"unbound variable {pattern.name!r} in action")
        return egraph.find(eclass)
    if isinstance(pattern, PLit):
        return egraph.add_literal(pattern.kind, pattern.value)
    if pattern.head in PRIMITIVE_OPS:
        value = eval_value(egraph, pattern, bindings)
        if value is None:
            raise MatchError(
                f"cannot evaluate primitive {pattern} — non-literal operand"
            )
        kind = "i64" if isinstance(value, int) else "f64"
        return egraph.add_literal(kind, value)
    args = tuple(instantiate(egraph, a, bindings) for a in pattern.args)
    return egraph.add_node(ENode(pattern.head, args))


def apply_actions(egraph: EGraph, rule: Rule, bindings: Bindings) -> None:
    """Apply a rule's actions for one match, by instantiating each
    action pattern under a copy of its bindings."""
    env = dict(bindings)
    for action in rule.actions:
        if isinstance(action, LetAction):
            env[action.name] = instantiate(egraph, action.pattern, env)
        elif isinstance(action, UnionAction):
            a = instantiate(egraph, action.a, env)
            b = instantiate(egraph, action.b, env)
            egraph.union(a, b)
        elif isinstance(action, FactAction):
            row = tuple(instantiate(egraph, p, env) for p in action.args)
            egraph.assert_fact(action.name, row)
        else:
            raise MatchError(f"unknown action {action!r}")


def _match_query(
    matcher: LegacyMatcher, atoms: Sequence[Atom], bindings: Bindings, i: int
) -> Iterator[Bindings]:
    if i == len(atoms):
        yield bindings
        return
    atom = atoms[i]
    egraph = matcher.egraph
    if isinstance(atom, TermAtom):
        for eclass_id, partial in matcher.match_anywhere(atom.pattern, bindings):
            if atom.var is not None:
                bound = partial.get(atom.var)
                if bound is not None and egraph.find(bound) != eclass_id:
                    continue
                partial = dict(partial)
                partial[atom.var] = eclass_id
            yield from _match_query(matcher, atoms, partial, i + 1)
        return
    if isinstance(atom, RelAtom):
        for row in list(egraph.facts(atom.name)):
            if len(row) != len(atom.args):
                continue
            for partial in _match_row(matcher, atom.args, row, bindings, 0):
                yield from _match_query(matcher, atoms, partial, i + 1)
        return
    if isinstance(atom, GuardAtom):
        for partial in _eval_guard(matcher, atom, bindings):
            yield from _match_query(matcher, atoms, partial, i + 1)
        return
    raise MatchError(f"unknown atom {atom!r}")


def _match_row(
    matcher: LegacyMatcher, patterns, row, bindings: Bindings, i: int
) -> Iterator[Bindings]:
    if i == len(patterns):
        yield bindings
        return
    value = row[i]
    if not isinstance(value, int):
        raise MatchError(f"relation row holds non-eclass value {value!r}")
    for partial in matcher.match_in_class(patterns[i], value, bindings):
        yield from _match_row(matcher, patterns, row, partial, i + 1)


def _eval_guard(
    matcher: LegacyMatcher, atom: GuardAtom, bindings: Bindings
) -> Iterator[Bindings]:
    egraph = matcher.egraph
    if atom.op == "=":
        lhs, rhs = atom.args
        lhs_value = eval_value(egraph, lhs, bindings)
        rhs_value = eval_value(egraph, rhs, bindings)
        if lhs_value is not None and rhs_value is not None:
            if lhs_value == rhs_value:
                yield bindings
            return
        # one side unbound variable: bind it to the computed literal
        for unbound, value in ((lhs, rhs_value), (rhs, lhs_value)):
            if (
                isinstance(unbound, PVar)
                and unbound.name not in bindings
                and value is not None
            ):
                kind = "i64" if isinstance(value, int) else "f64"
                new = dict(bindings)
                new[unbound.name] = egraph.add_literal(kind, value)
                yield new
                return
        # fall back to e-class equality for bound, non-literal vars
        if isinstance(lhs, PVar) and isinstance(rhs, PVar):
            a, b = bindings.get(lhs.name), bindings.get(rhs.name)
            if a is not None and b is not None and egraph.find(a) == egraph.find(b):
                yield bindings
            return
        return
    values = [eval_value(egraph, a, bindings) for a in atom.args]
    if any(v is None for v in values):
        return
    a, b = values
    ok = {
        ">": a > b,
        "<": a < b,
        ">=": a >= b,
        "<=": a <= b,
        "!=": a != b,
    }[atom.op]
    if ok:
        yield bindings


def legacy_find_matches(matcher: LegacyMatcher, rule: Rule) -> List[Bindings]:
    return list(_match_query(matcher, rule.query, {}, 0))


def legacy_run_rules(
    egraph: EGraph, rules: Sequence[Rule], iterations: int = 1
) -> RunStats:
    """Run ``iterations`` rounds: match all rules, apply, rebuild."""
    stats = RunStats()
    start = time.perf_counter()
    for _ in range(iterations):
        stats.iterations += 1
        version_before = egraph.version
        t_match = time.perf_counter()
        matcher = LegacyMatcher(egraph)
        pending: List[Tuple[Rule, Bindings]] = []
        for rule in rules:
            found = legacy_find_matches(matcher, rule)
            stats.matches_per_rule[rule.name] = (
                stats.matches_per_rule.get(rule.name, 0) + len(found)
            )
            pending.extend((rule, b) for b in found)
        stats.total_matches += len(pending)
        stats.full_rounds += 1
        t_apply = time.perf_counter()
        stats.match_seconds += t_apply - t_match
        for rule, bindings in pending:
            apply_actions(egraph, rule, bindings)
        t_rebuild = time.perf_counter()
        stats.apply_seconds += t_rebuild - t_apply
        egraph.rebuild()
        stats.rebuild_seconds += time.perf_counter() - t_rebuild
        if egraph.version == version_before:
            stats.saturated = True
            break
    stats.seconds = time.perf_counter() - start
    return stats


def legacy_saturate(
    egraph: EGraph, rules: Sequence[Rule], max_iterations: int = 64
) -> RunStats:
    """Run until no rule changes the e-graph (or the iteration cap)."""
    return legacy_run_rules(egraph, rules, iterations=max_iterations)


def legacy_run_phased(
    egraph: EGraph,
    main_rules: Sequence[Rule],
    supporting_rules: Sequence[Rule],
    iterations: int = 4,
    saturate_limit: int = 64,
) -> ScheduleStats:
    """The paper's schedule on the legacy engine (full re-match per round)."""
    stats = ScheduleStats()
    start = time.perf_counter()
    for _ in range(iterations):
        stats.outer_iterations += 1
        stats.supporting_stats.append(
            legacy_saturate(egraph, supporting_rules, max_iterations=saturate_limit)
        )
        version_before = egraph.version
        stats.main_stats.append(
            legacy_run_rules(egraph, main_rules, iterations=1)
        )
        if egraph.version == version_before:
            stats.saturated = True
            break
    # a final supporting pass so analyses cover the last main-rule output
    stats.supporting_stats.append(
        legacy_saturate(egraph, supporting_rules, max_iterations=saturate_limit)
    )
    stats.seconds = time.perf_counter() - start
    return stats
