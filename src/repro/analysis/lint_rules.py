"""Soundness lint over the registered rewrite-rule families.

Rules are declarative s-expr programs (:mod:`repro.eqsat.rules`), so
most soundness properties are statically checkable from the atom and
action structure alone:

``rules.unbound-rhs``
    An action (Let/Union/Fact) references a variable no query atom
    binds.  The engine would raise :class:`MatchError` the first time
    the rule fires — this lint reports it before saturation ever runs.
``rules.unbound-guard``
    A comparison guard reads a variable that is not yet bound at its
    position in the query (a ``(= x expr)`` guard with exactly one
    unbound top-level variable *binds* it, egglog-style, and is fine).
``rules.impure-guard``
    A guard whose operator is outside the pure comparison set
    (:data:`repro.eqsat.rules.COMPARISON_OPS`) or whose argument
    patterns apply heads outside :data:`repro.eqsat.pattern.PRIMITIVE_OPS`
    — anything else could observe or mutate engine state mid-match.
``rules.delta-safety``
    The compiled program's ``delta_safe`` classification, or the number
    of anchored programs it carries, disagrees with what the query's
    structure implies.  A rule wrongly marked delta-safe silently
    *misses matches* under incremental saturation; so does one without
    an anchored program for a table it reads.
``rules.shadowed-lhs``
    Two rules in one family share a canonical query (same atoms modulo
    variable renaming) — the later rule can never contribute a match
    the earlier one did not already make.
``rules.trivial-rewrite``
    A union action whose two sides are the same pattern — a dead rule.
``rules.unknown-intrinsic``
    An action builds ``(Call <type> "<name>" ...)`` for a name that is
    neither in :data:`repro.targets.isa.REGISTRY` nor a math intrinsic.
    Selection would succeed, and the statement would compile to the
    interpreter-fallback kernel, whose interpreter has no handler for
    the name either.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..eqsat.ematch import CompiledQuery
from ..eqsat.pattern import (
    PRIMITIVE_OPS,
    PApp,
    PLit,
    PVar,
    Pattern,
    pattern_vars,
)
from ..eqsat.rules import (
    COMPARISON_OPS,
    FactAction,
    GuardAtom,
    LetAction,
    RelAtom,
    Rule,
    TermAtom,
    UnionAction,
)
from .findings import ERROR, WARNING, Finding

__all__ = [
    "lint_rule",
    "lint_family",
    "lint_rules",
    "expected_delta_safe",
    "expected_anchors",
]


def _canon(pattern: Pattern, names: Dict[str, str]) -> Tuple:
    """Hashable canonical form with variables renamed by first use."""
    if isinstance(pattern, PVar):
        if pattern.name not in names:
            names[pattern.name] = f"v{len(names)}"
        return ("var", names[pattern.name])
    if isinstance(pattern, PLit):
        return ("lit", pattern.kind, pattern.value)
    return (
        "app",
        pattern.head,
        tuple(_canon(a, names) for a in pattern.args),
    )


def canonical_query(rule: Rule) -> Tuple:
    names: Dict[str, str] = {}

    def canon_var(name: Optional[str]) -> Optional[str]:
        if name is None:
            return None
        if name not in names:
            names[name] = f"v{len(names)}"
        return names[name]

    parts: List[Tuple] = []
    for atom in rule.query:
        if isinstance(atom, TermAtom):
            parts.append(
                ("term", canon_var(atom.var), _canon(atom.pattern, names))
            )
        elif isinstance(atom, RelAtom):
            parts.append(
                (
                    "rel",
                    atom.name,
                    tuple(_canon(a, names) for a in atom.args),
                )
            )
        elif isinstance(atom, GuardAtom):
            parts.append(
                (
                    "guard",
                    atom.op,
                    tuple(_canon(a, names) for a in atom.args),
                )
            )
    return tuple(parts)


def expected_delta_safe(query: Sequence) -> bool:
    """The delta-safety classification the query's structure implies.

    Mirrors the analysis in :func:`repro.eqsat.ematch.compile_query`;
    the lint cross-checks the compiled program against this independent
    recomputation.
    """
    first = query[0] if query else None
    if not (
        isinstance(first, TermAtom)
        and isinstance(first.pattern, PApp)
        and first.pattern.head not in PRIMITIVE_OPS
    ):
        return False
    structural = pattern_vars(first.pattern)
    if first.var is not None:
        structural.add(first.var)
    for atom in query[1:]:
        if isinstance(atom, TermAtom):
            if atom.var is None or atom.var not in structural:
                return False
            structural |= pattern_vars(atom.pattern)
        elif isinstance(atom, RelAtom):
            arg_vars = {
                a.name for a in atom.args if isinstance(a, PVar)
            }
            if not all(
                isinstance(a, (PVar, PLit)) for a in atom.args
            ) or not (arg_vars & structural):
                return False
    return True


def expected_anchors(query: Sequence) -> int:
    """How many tables a delta-safe query reads: one per structural
    operator in its term atoms plus one per relation atom.  Incremental
    saturation needs an anchored program for each of them."""

    def operators(pattern: Pattern) -> int:
        if not isinstance(pattern, PApp):
            return 0
        return 1 + sum(operators(a) for a in pattern.args)

    return sum(
        operators(atom.pattern) if isinstance(atom, TermAtom) else 1
        for atom in query
        if isinstance(atom, (TermAtom, RelAtom))
    )


def _emitted_intrinsics(pattern: Pattern) -> Iterable[str]:
    """Names of the ``(Call <type> "<name>" ...)`` terms in a pattern."""
    if isinstance(pattern, PApp):
        if (
            pattern.head == "Call"
            and len(pattern.args) > 1
            and isinstance(pattern.args[1], PLit)
            and pattern.args[1].kind == "str"
        ):
            yield pattern.args[1].value
        for arg in pattern.args:
            yield from _emitted_intrinsics(arg)


def _pure_guard_args(args: Iterable[Pattern]) -> bool:
    for arg in args:
        if isinstance(arg, PApp):
            if arg.head not in PRIMITIVE_OPS:
                return False
            if not _pure_guard_args(arg.args):
                return False
    return True


def lint_rule(
    rule: Rule,
    *,
    family: str = "",
    compiled: Optional[CompiledQuery] = None,
) -> List[Finding]:
    """Lint one rule.  ``compiled`` overrides ``rule.compiled()`` (the
    mutation self-test passes tampered programs through here)."""
    findings: List[Finding] = []
    site = f"{family}/{rule.name}" if family else rule.name

    # -- binding simulation, atom by atom ------------------------------------
    bound: set = set()
    for atom in rule.query:
        if isinstance(atom, TermAtom):
            bound |= pattern_vars(atom.pattern)
            if atom.var is not None:
                bound.add(atom.var)
        elif isinstance(atom, RelAtom):
            for arg in atom.args:
                bound |= pattern_vars(arg)
        elif isinstance(atom, GuardAtom):
            if atom.op not in COMPARISON_OPS or not _pure_guard_args(
                atom.args
            ):
                findings.append(
                    Finding(
                        "rules.impure-guard",
                        ERROR,
                        site,
                        f"guard ({atom.op} ...) uses operators outside the"
                        " pure comparison/primitive set"
                        f" ({sorted(COMPARISON_OPS)} over"
                        f" {sorted(PRIMITIVE_OPS)})",
                        "express the side condition with pure comparisons"
                        " over primitive arithmetic",
                    )
                )
            unbound = [
                a.name
                for a in atom.args
                if isinstance(a, PVar) and a.name not in bound
            ]
            nested_unbound = set()
            for arg in atom.args:
                if not isinstance(arg, PVar):
                    nested_unbound |= pattern_vars(arg) - bound
            if atom.op == "=" and len(unbound) == 1 and not nested_unbound:
                # (= x expr): primitive evaluation binds x
                bound.add(unbound[0])
            elif unbound or nested_unbound:
                missing = sorted(set(unbound) | nested_unbound)
                findings.append(
                    Finding(
                        "rules.unbound-guard",
                        ERROR,
                        site,
                        f"guard ({atom.op} ...) reads unbound"
                        f" variable(s) {missing}",
                        "bind them with an earlier term/relation atom",
                    )
                )

    # -- actions: every referenced variable must be bound, every emitted
    # intrinsic must be one both backends implement -------------------------
    from ..runtime.codegen import MATH_INTRINSICS
    from ..targets.isa import REGISTRY

    def check_action_pattern(pattern: Pattern, what: str) -> None:
        for name in _emitted_intrinsics(pattern):
            if name not in REGISTRY and name not in MATH_INTRINSICS:
                findings.append(
                    Finding(
                        "rules.unknown-intrinsic",
                        ERROR,
                        site,
                        f"{what} emits a call to {name!r}, which is not a"
                        " registered intrinsic — the selected statement"
                        " would compile to an interpreter-fallback kernel"
                        " with no handler behind it",
                        "fix the name, or register the intrinsic"
                        " (repro.targets.isa.register) with its"
                        " interpreter driver and compiled core",
                    )
                )
        missing = sorted(pattern_vars(pattern) - bound)
        if missing:
            findings.append(
                Finding(
                    "rules.unbound-rhs",
                    ERROR,
                    site,
                    f"{what} references unbound variable(s) {missing}",
                    "bind them on the LHS (query atoms) or with an"
                    " earlier let action",
                )
            )

    for action in rule.actions:
        if isinstance(action, LetAction):
            check_action_pattern(action.pattern, f"let {action.name}")
            bound.add(action.name)
        elif isinstance(action, UnionAction):
            check_action_pattern(action.a, "union lhs")
            check_action_pattern(action.b, "union rhs")
            # the rewrite() sugar unions through a root variable; chase
            # one level of TermAtom binding so (union __root lhs) with
            # __root matched against lhs is recognized as trivial
            term_bindings = {
                atom.var: atom.pattern
                for atom in rule.query
                if isinstance(atom, TermAtom) and atom.var is not None
            }

            def _resolve(pattern: Pattern) -> Pattern:
                if isinstance(pattern, PVar):
                    return term_bindings.get(pattern.name, pattern)
                return pattern

            names: Dict[str, str] = {}
            if _canon(_resolve(action.a), names) == _canon(
                _resolve(action.b), dict(names)
            ):
                findings.append(
                    Finding(
                        "rules.trivial-rewrite",
                        WARNING,
                        site,
                        "union of a pattern with itself — the rule can"
                        " never change the e-graph",
                        "delete the rule or fix its RHS",
                    )
                )
        elif isinstance(action, FactAction):
            for arg in action.args:
                check_action_pattern(arg, f"fact {action.name}")

    # -- compiled-program consistency ---------------------------------------
    if compiled is None:
        try:
            compiled = rule.compiled()
        except Exception:
            compiled = None  # unbound-rhs findings above already explain it
    if compiled is not None:
        want_safe = expected_delta_safe(rule.query)
        if bool(compiled.delta_safe) != want_safe:
            findings.append(
                Finding(
                    "rules.delta-safety",
                    ERROR,
                    site,
                    f"compiled program says delta_safe={compiled.delta_safe}"
                    f" but the query structure implies {want_safe};"
                    " incremental saturation would miss matches",
                    "recompile the rule (stale cached program?) or fix the"
                    " safety analysis",
                )
            )
        want_anchors = expected_anchors(rule.query) if want_safe else 0
        if len(compiled.anchors) != want_anchors:
            findings.append(
                Finding(
                    "rules.delta-safety",
                    ERROR,
                    site,
                    f"compiled program has {len(compiled.anchors)} anchored"
                    f" programs but the query reads {want_anchors} tables;"
                    " a change in an uncovered table would go unmatched",
                    "recompile the rule or fix the anchoring",
                )
            )
    return findings


def lint_family(
    name: str, rules: Sequence[Rule]
) -> List[Finding]:
    """Lint one rule family, including cross-rule shadowing."""
    findings: List[Finding] = []
    seen: Dict[Tuple, str] = {}
    for rule in rules:
        findings.extend(lint_rule(rule, family=name))
        key = canonical_query(rule)
        if key in seen and seen[key] != rule.name:
            findings.append(
                Finding(
                    "rules.shadowed-lhs",
                    WARNING,
                    f"{name}/{rule.name}",
                    f"query is identical (modulo renaming) to earlier rule"
                    f" {seen[key]!r}; this rule is shadowed",
                    "merge the rules or differentiate their queries",
                )
            )
        else:
            seen.setdefault(key, rule.name)
    return findings


def lint_rules(families=None) -> List[Finding]:
    """Lint every registered rule family.

    ``families`` maps name -> rule list; defaults to the app families
    registered in :data:`repro.hardboiled.tile_extractor._APP_RULES`
    plus the axiomatic base rules.
    """
    if families is None:
        from ..hardboiled import tile_extractor as tx

        families = {}
        base = getattr(tx, "axiomatic_rules", None)
        if base is not None:
            rules = base()
            families["axiomatic"] = (
                rules[0] if isinstance(rules, tuple) else rules
            )
        for kind, factory in tx._APP_RULES.items():
            rules = factory()
            families[kind] = (
                rules[0] if isinstance(rules, tuple) else rules
            )
    findings: List[Finding] = []
    for name, rules in families.items():
        findings.extend(lint_family(name, list(rules)))
    return findings
