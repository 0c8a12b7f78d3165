"""E-matching: finding all assignments of pattern variables to e-classes.

A whole rule query (term atoms, relation atoms, guards) is lowered
**once** into a :class:`CompiledQuery`: a flat sequence of
scan/bind/compare/check instructions executed over a register array.
Variables become register slots, repeated variables become compare
instructions, and no per-binding dicts are copied while backtracking.
Each delta-safe query also compiles once per atom into an *anchored*
re-ordering of the same join that starts at that atom, so
``rules.RuleEngine`` can drive a rule from just the e-nodes and relation
rows that changed (incremental passes) as well as from the e-graph's
persistent head index (full passes).  :func:`run_query` runs one query
once over the whole e-graph.

Bindings map variable names to e-class ids.  Primitive arithmetic
(``*``, ``%``, ...) is evaluated over literal payloads, both in guards
and when instantiating action patterns (``rules.CompiledActions``).

Match a pattern against a small e-graph, and bind a variable to a
primitive folded over the bound literals:

>>> from repro.eqsat import EGraph, GuardAtom, I, T, TermAtom
>>> from repro.eqsat import compile_query, parse_one, parse_pattern, run_query
>>> eg = EGraph()
>>> root = eg.add_term(T("Add", I(2), I(3)))
>>> def pat(text):
...     return parse_pattern(parse_one(text))
>>> query = compile_query([
...     TermAtom("e", pat("(Add a b)")),
...     GuardAtom("=", (pat("c"), pat("(* a b)"))),
... ])
>>> (bindings,) = run_query(eg, query)
>>> bindings["e"] == root
True
>>> eg.literal_value(bindings["c"])
6
"""

from __future__ import annotations

import functools
import operator
from typing import Dict, Iterable, List, Optional, Sequence

from .egraph import EGraph
from .pattern import (
    PRIMITIVE_OPS,
    PApp,
    PLit,
    Pattern,
    PVar,
    pattern_vars,
)

Bindings = Dict[str, int]


class MatchError(RuntimeError):
    pass


def _floor_or_true_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise MatchError("division by zero in primitive")
        return a // b
    return a / b


def _mod(a, b):
    if b == 0:
        raise MatchError("modulo by zero in primitive")
    return a % b


_PRIMITIVES = {
    "*": operator.mul,
    "+": operator.add,
    "-": operator.sub,
    "/": _floor_or_true_div,
    "%": _mod,
}


def _apply_prim(op: str, values):
    fn = _PRIMITIVES.get(op)
    if fn is None:
        raise MatchError(f"unknown primitive {op!r}")
    return functools.reduce(fn, values)


# -- compiled pattern programs -------------------------------------------------
#
# A whole rule query compiles to a flat instruction tuple list.  Register
# allocation is single-assignment along any execution path, so
# backtracking needs no trail: a register is only read by instructions
# that run after its writer.  Programs run on a *rebuilt* e-graph, where
# every id read out of a class, a row or a candidate is canonical, so
# registers are compared directly instead of through ``find``.

OP_SCAN = 0  # (op, out_class_reg, head, arity, arg_base) — nodes by head
OP_BIND = 1  # (op, class_reg, head, arity, arg_base) — nodes inside a class
OP_COMPARE = 2  # (op, reg_a, reg_b)
OP_CHECK_LIT = 3  # (op, reg, value)
OP_SCAN_ALL = 4  # (op, out_class_reg) — every class (bare var/literal root)
OP_SCAN_REL = 5  # (op, name, arity, arg_base, seeds) — rows of a relation
OP_GUARD = 6  # (op, atom, view, bind_name, bind_slot)
OP_SCAN_REL_BOUND = 7  # (op, name, arity, arg_base, src_slot, position)
OP_PARENTS = 8  # (op, child_reg, out_class_reg, head, arity, arg_base, position)


class CompiledQuery:
    """One rule query lowered to a register program.

    ``var_slots`` maps variable names to register indices; ``key_slots``
    is the ordered slot list used to build dedup keys.  ``delta_safe``
    reports whether matching only from what changed is exact for this
    query; if so ``anchors`` holds one ``(first opcode, key, executor,
    trait)`` per atom — the same join re-ordered to start at that atom's
    table, keyed by the ``(head, arity)`` of the e-nodes or the name of
    the relation whose new entries it must be run on, and narrowed by a
    trait (see :func:`entry_traits`) every entry that can match has.
    """

    __slots__ = (
        "instructions",
        "n_regs",
        "var_slots",
        "key_slots",
        "delta_safe",
        "key_of",
        "executor",
        "anchors",
    )

    def __init__(self, instructions, n_regs, var_slots, delta_safe) -> None:
        self.instructions = tuple(instructions)
        self.n_regs = n_regs
        self.var_slots = dict(var_slots)
        self.key_slots = tuple(sorted(set(var_slots.values())))
        self.delta_safe = delta_safe
        #: ``regs -> dedup key`` (the key slots' values, as a tuple)
        self.key_of = (
            operator.itemgetter(*self.key_slots)
            if len(self.key_slots) > 1
            else lambda regs: tuple([regs[s] for s in self.key_slots])
        )
        self.executor = Executor(self.instructions, n_regs)
        self.anchors = tuple(
            (program[0][0], key, Executor(program, n_regs), _trait(program))
            for key, program in (
                _anchored(self.instructions) if delta_safe else ()
            )
        )


def compile_query(atoms: Sequence) -> CompiledQuery:
    """Lower a query (a sequence of atoms, see :mod:`.rules`) once."""
    from .rules import GuardAtom, RelAtom, TermAtom  # cycle-free at runtime

    instrs: List[tuple] = []
    slots: Dict[str, int] = {}
    n_regs = 0

    def alloc(count: int = 1) -> int:
        nonlocal n_regs
        base = n_regs
        n_regs += count
        return base

    def compile_subpattern(pattern: Pattern, reg: int) -> None:
        if isinstance(pattern, PVar):
            slot = slots.get(pattern.name)
            if slot is None:
                slots[pattern.name] = reg
            elif slot != reg:
                instrs.append((OP_COMPARE, slot, reg))
            return
        if isinstance(pattern, PLit):
            instrs.append((OP_CHECK_LIT, reg, pattern.value))
            return
        arity = len(pattern.args)
        base = alloc(arity)
        instrs.append((OP_BIND, reg, pattern.head, arity, base))
        for j, arg in enumerate(pattern.args):
            compile_subpattern(arg, base + j)

    def bind_root_var(var: Optional[str], root_reg: int) -> None:
        if var is None:
            return
        slot = slots.get(var)
        if slot is None:
            slots[var] = root_reg
        elif slot != root_reg:
            instrs.append((OP_COMPARE, slot, root_reg))

    # -- delta-safety analysis ----------------------------------------------
    # Matching only from the e-nodes and rows that changed is exact when
    # every atom reads a table the e-graph's change log covers and the
    # atoms form one join connected through classes that log watches:
    #   * the first atom is a structural TermAtom;
    #   * every later TermAtom matches inside a class that is itself
    #     bound at a *structural* position;
    #   * every RelAtom carries only variable/literal args and shares a
    #     structurally-bound variable.
    # Variables that enter a match only through a relation row or a
    # guard binding are NOT anchors for a later term atom.  Anything of
    # that shape (and second unbound scans, relation-first rules, ...)
    # falls back to full matching every round.
    first = atoms[0] if atoms else None
    delta_safe = (
        isinstance(first, TermAtom)
        and isinstance(first.pattern, PApp)
        and first.pattern.head not in PRIMITIVE_OPS
    )
    if delta_safe:
        structural_vars = pattern_vars(first.pattern)
        if first.var is not None:
            structural_vars.add(first.var)
        for atom in atoms[1:]:
            if isinstance(atom, TermAtom):
                if atom.var is None or atom.var not in structural_vars:
                    delta_safe = False
                    break
                # its pattern hangs off a structural class, so its
                # variables are structural too
                structural_vars |= pattern_vars(atom.pattern)
            elif isinstance(atom, RelAtom):
                arg_vars = {
                    a.name for a in atom.args if isinstance(a, PVar)
                }
                if not all(
                    isinstance(a, (PVar, PLit)) for a in atom.args
                ) or not (arg_vars & structural_vars):
                    delta_safe = False
                    break
                # row-bound variables are deliberately NOT added to
                # structural_vars: their classes are only reachable
                # through the row, not through parent edges

    # -- instruction emission ------------------------------------------------
    for atom in atoms:
        if isinstance(atom, TermAtom):
            pattern = atom.pattern
            if isinstance(pattern, PApp):
                bound_slot = (
                    slots.get(atom.var) if atom.var is not None else None
                )
                if bound_slot is not None:
                    # match inside the already-bound class
                    compile_subpattern(pattern, bound_slot)
                else:
                    root_reg = alloc()
                    arity = len(pattern.args)
                    base = alloc(arity)
                    instrs.append(
                        (OP_SCAN, root_reg, pattern.head, arity, base)
                    )
                    for j, arg in enumerate(pattern.args):
                        compile_subpattern(arg, base + j)
                    bind_root_var(atom.var, root_reg)
            elif isinstance(pattern, PVar):
                slot = slots.get(pattern.name)
                if slot is None:
                    slot = alloc()
                    instrs.append((OP_SCAN_ALL, slot))
                    slots[pattern.name] = slot
                bind_root_var(atom.var, slot)
            else:  # PLit root
                root_reg = alloc()
                instrs.append((OP_SCAN_ALL, root_reg))
                instrs.append((OP_CHECK_LIT, root_reg, pattern.value))
                bind_root_var(atom.var, root_reg)
        elif isinstance(atom, RelAtom):
            arity = len(atom.args)
            base = alloc(arity)
            # join on an already-bound variable argument when possible:
            # rows come from the reverse class->rows index instead of a
            # scan over the whole relation
            bound = next(
                (
                    (slots[arg.name], j)
                    for j, arg in enumerate(atom.args)
                    if isinstance(arg, PVar) and arg.name in slots
                ),
                None,
            )
            if bound is not None:
                instrs.append(
                    (OP_SCAN_REL_BOUND, atom.name, arity, base, *bound)
                )
            else:
                instrs.append((OP_SCAN_REL, atom.name, arity, base, ()))
            for j, arg in enumerate(atom.args):
                compile_subpattern(arg, base + j)
        elif isinstance(atom, GuardAtom):
            # A (= x <expr>) guard with exactly one unbound top-level
            # variable binds it to the computed literal; reserve its slot.
            bind_name = bind_slot = None
            if atom.op == "=":
                unbound = [
                    a
                    for a in atom.args
                    if isinstance(a, PVar) and a.name not in slots
                ]
                if len(unbound) == 1:
                    bind_name = unbound[0].name
                    bind_slot = alloc()
            view = dict(slots)  # boundness snapshot before the guard
            instrs.append((OP_GUARD, atom, view, bind_name, bind_slot))
            if bind_name is not None:
                slots[bind_name] = bind_slot
        else:
            raise MatchError(f"unknown atom {atom!r}")
    return CompiledQuery(instrs, max(n_regs, 1), slots, delta_safe)


def _anchored(instrs: Sequence[tuple]):
    """``(key, program)`` per table a delta-safe program reads: the same
    join, started from that table.

    The anchor scans its table first; every other generator follows as
    soon as a register it can join on is filled — downwards
    (``OP_BIND`` into a known class, ``OP_SCAN_REL_BOUND`` on a known row
    argument) in preference to upwards (``OP_PARENTS`` of a known
    argument class).  A filter runs once generators have filled its
    registers; guards keep their order and run last.
    """

    def shape(gen):
        """(class register or None, argument registers) of a generator."""
        if gen[0] == OP_SCAN_REL_BOUND:
            return None, range(gen[3], gen[3] + gen[2])
        return gen[1], range(gen[4], gen[4] + gen[3])

    generators = [
        ins for ins in instrs if ins[0] in (OP_SCAN, OP_BIND, OP_SCAN_REL_BOUND)
    ]
    filters = [ins for ins in instrs if ins[0] in (OP_COMPARE, OP_CHECK_LIT)]
    guards = [ins for ins in instrs if ins[0] == OP_GUARD]
    #: row-argument register -> the register its variable first lived in
    partner = {ins[2]: ins[1] for ins in filters if ins[0] == OP_COMPARE}
    for anchor in generators:
        class_reg, arg_regs = shape(anchor)
        filled = set(arg_regs)
        if class_reg is None:
            # a row seeds the registers its variables are joined through;
            # those only count as filled once their own generator ran
            seeds = tuple((partner[r], r) for r in arg_regs if r in partner)
            program = [(OP_SCAN_REL, *anchor[1:4], seeds)]
            key = anchor[1]
        else:
            seeds = ()
            filled.add(class_reg)
            program = [(OP_SCAN, *anchor[1:])]
            key = (anchor[2], anchor[3])
        seeded = {slot for slot, _ in seeds}
        todo = [gen for gen in generators if gen is not anchor]
        waiting = list(filters)
        while True:
            for ins in waiting[:]:
                if filled.issuperset(ins[1:2 + (ins[0] == OP_COMPARE)]):
                    program.append(ins)
                    waiting.remove(ins)
            if not todo:
                break  # filters still waiting read a guard-bound register
            known = filled | seeded
            step = None
            for gen in todo:
                class_reg, arg_regs = shape(gen)
                if class_reg is None:
                    joins = [(gen[4], gen[5])] + [
                        (partner.get(r, r), r - gen[3]) for r in arg_regs
                    ]
                    join = next((j for j in joins if j[0] in known), None)
                    if join is not None:
                        step = gen, (*gen[:4], *join)
                        break
                elif class_reg in known:
                    step = gen, (OP_BIND, *gen[1:])
                    break
            if step is None:
                for gen in todo:
                    class_reg, arg_regs = shape(gen)
                    child = next((r for r in arg_regs if r in known), None)
                    if class_reg is not None and child is not None:
                        step = gen, (
                            OP_PARENTS, child, *gen[1:], child - gen[4]
                        )
                        filled.add(class_reg)
                        break
            if step is None:
                raise MatchError("delta-safe query is not one connected join")
            todo.remove(step[0])
            program.append(step[1])
            filled.update(shape(step[0])[1])
        yield key, program + guards + waiting


def _trait(program: Sequence[tuple]) -> Optional[tuple]:
    """The first thing an anchored program demands of its entry alone.

    ``("lit", pos, value)``: the class at ``pos`` holds that literal;
    ``("has", pos, head, arity)``: it holds such a node; ``("up", pos,
    head, arity)``: such a node is among its parents.  ``pos`` indexes
    the node's arguments (the row's values); -1 is the node's own class.
    """
    first = program[0]
    if first[0] == OP_SCAN:
        base, arity, where = first[4], first[3], {first[1]: -1}
    else:
        base, arity = first[3], first[2]
        where = {slot: reg - base for slot, reg in first[4]}
    where.update({base + j: j for j in range(arity)})
    for ins in program[1:]:
        if ins[0] == OP_CHECK_LIT and ins[1] in where:
            return "lit", where[ins[1]], ins[2]
        if ins[0] == OP_BIND and ins[1] in where:
            return "has", where[ins[1]], ins[2], ins[3]
        if ins[0] == OP_PARENTS and ins[1] in where:
            return "up", where[ins[1]], ins[3], ins[4]
    return None


def entry_traits(egraph: EGraph, entries, probes, is_row: bool):
    """``{trait: [entry]}`` over ``(class, node)`` entries or relation
    rows.  ``probes`` maps each ``(kind, pos)`` to look at to the heads
    (for ``"lit"``: the values) somebody wants to find there."""
    classes = egraph.classes
    index: Dict[Optional[tuple], list] = {}
    for entry in entries:
        values = entry if is_row else entry[1].args
        for (kind, pos), heads in probes.items():
            eclass = classes.get(entry[0] if pos < 0 else values[pos])
            if eclass is None:
                continue  # a raw (non-class) row value
            if kind == "lit":
                traits = [(kind, pos, eclass.literal)]
            elif kind == "has":
                traits = [
                    (kind, pos, n.head, len(n.args))
                    for n in eclass.nodes
                    if n.head in heads
                ]
            else:
                traits = [
                    (kind, pos, n.head, len(n.args))
                    for n, _ in eclass.parents
                    if n.head in heads
                ]
            for trait in dict.fromkeys(traits):
                index.setdefault(trait, []).append(entry)
    return index


_COMPARISON_FNS = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
    "!=": operator.ne,
}


def value_fn(pattern: Pattern, slots: Dict[str, int]):
    """A computational pattern as ``fn(regs, egraph) -> value or None``,
    over register slots resolved once: a literal's payload, a bound
    variable's literal payload, or a primitive folded over those."""
    if isinstance(pattern, PLit):
        return lambda regs, eg, value=pattern.value: value
    if isinstance(pattern, PVar) and pattern.name in slots:
        slot = slots[pattern.name]
        return lambda regs, eg: eg.literal_value(regs[slot])
    if isinstance(pattern, PApp) and pattern.head in PRIMITIVE_OPS:
        op = pattern.head
        args = [value_fn(a, slots) for a in pattern.args]

        def prim(regs, eg):
            values = [arg(regs, eg) for arg in args]
            if any(v is None for v in values):
                return None
            return _apply_prim(op, values)

        return prim
    return lambda regs, eg: None


def _guard_step(ins: tuple, nxt):
    """The closure for one guard instruction (see ``rules.GuardAtom``)."""
    _, atom, slots, _bind_name, bind_slot = ins
    lhs, rhs = (value_fn(a, slots) for a in atom.args)
    if atom.op != "=":
        compare = _COMPARISON_FNS[atom.op]

        def step(regs, eg, emit):
            a = lhs(regs, eg)
            if a is not None:
                b = rhs(regs, eg)
                if b is not None and compare(a, b):
                    nxt(regs, eg, emit)

        return step
    #: both sides bound variables: they may still name one class
    pair = [
        slots.get(a.name) if isinstance(a, PVar) else None for a in atom.args
    ]

    def step(regs, eg, emit):
        a, b = lhs(regs, eg), rhs(regs, eg)
        if a is not None and b is not None:
            if a != b:
                return
        elif bind_slot is not None and (a is not None or b is not None):
            # the one unbound variable takes the computed literal
            value = b if a is None else a
            kind = "i64" if isinstance(value, int) else "f64"
            regs[bind_slot] = eg.add_literal(kind, value)
        elif None in pair or eg.find(regs[pair[0]]) != eg.find(regs[pair[1]]):
            return
        nxt(regs, eg, emit)

    return step


class Executor:
    """A query program as a chain of closures, one per instruction.

    The chain is built once per program and holds no e-graph and no
    registers: :meth:`run` hands both down the chain, so one executor
    (cached with the program on its rule) serves every e-graph and is
    safe to run from several threads.
    """

    __slots__ = ("first", "n_regs", "_rest")

    def __init__(self, instructions: Sequence[tuple], n_regs: int) -> None:
        #: the scan :meth:`run` feeds; None if the program starts with a
        #: filter (a guard-first query) and so runs exactly once
        self.first = None
        if instructions[0][0] in (OP_SCAN, OP_SCAN_REL, OP_SCAN_ALL):
            self.first, instructions = instructions[0], instructions[1:]
        self.n_regs = n_regs

        def chain(regs, eg, emit):
            emit(regs)

        for ins in reversed(instructions):
            chain = _step(ins, chain)
        self._rest = chain

    def run(self, egraph: EGraph, candidates: Iterable, on_match) -> None:
        """Draw the first instruction's candidates from ``candidates``
        — ``(class, node)`` pairs for ``OP_SCAN``, rows for
        ``OP_SCAN_REL``, class ids for ``OP_SCAN_ALL``, see
        :func:`first_candidates` — and call ``on_match`` with the live
        register array per match."""
        first, nxt = self.first, self._rest
        regs = [0] * self.n_regs
        if first is None:
            for _ in candidates:
                nxt(regs, egraph, on_match)
        elif first[0] == OP_SCAN:
            _, out, _head, arity, base = first
            end = base + arity
            for regs[out], node in candidates:
                if len(node.args) == arity:
                    regs[base:end] = node.args
                    nxt(regs, egraph, on_match)
        elif first[0] == OP_SCAN_REL:
            _, _name, arity, base, seeds = first
            end = base + arity
            for row in candidates:
                if len(row) == arity:
                    regs[base:end] = _class_row(row)
                    for slot, reg in seeds:
                        regs[slot] = regs[reg]
                    nxt(regs, egraph, on_match)
        else:
            for regs[first[1]] in candidates:
                nxt(regs, egraph, on_match)


def _class_row(row: tuple) -> tuple:
    for value in row:
        if not isinstance(value, int):
            raise MatchError(f"relation row holds non-eclass value {value!r}")
    return row


def first_candidates(egraph: EGraph, first: Optional[tuple]) -> Iterable:
    """Everything a program's first instruction can start from (a
    program without a leading scan starts once, from nothing)."""
    if first is None:
        return (None,)
    if first[0] == OP_SCAN:
        find = egraph.find
        return [
            (find(owner), node)
            for node, owner in egraph.head_entries(first[2]).items()
        ]
    if first[0] == OP_SCAN_REL:
        return egraph.facts(first[1])
    return list(egraph.classes)


def _step(ins: tuple, nxt):
    """The closure for one non-first instruction, chained to ``nxt``."""
    op = ins[0]
    if op == OP_COMPARE:
        _, ra, rb = ins

        def step(regs, eg, emit):
            if regs[ra] == regs[rb]:
                nxt(regs, eg, emit)

    elif op == OP_CHECK_LIT:
        _, reg, expect = ins

        def step(regs, eg, emit):
            value = eg.classes[regs[reg]].literal
            if value is not None and value == expect:
                nxt(regs, eg, emit)

    elif op == OP_GUARD:
        step = _guard_step(ins, nxt)

    elif op == OP_BIND:
        _, creg, head, arity, base = ins
        end = base + arity

        def step(regs, eg, emit):
            for node in eg.classes[regs[creg]].nodes:
                if node.head == head and len(node.args) == arity:
                    regs[base:end] = node.args
                    nxt(regs, eg, emit)

    elif op == OP_PARENTS:
        _, child, out, head, arity, base, pos = ins
        end = base + arity

        def step(regs, eg, emit):
            # parent lists may spell a node as it was before a merge (and
            # so list it twice): canonicalise what is read out of them
            target = regs[child]
            find = eg.find
            for node, owner in eg.classes[target].parents:
                args = node.args
                if (
                    node.head == head
                    and len(args) == arity
                    and find(args[pos]) == target
                ):
                    regs[out] = find(owner)
                    regs[base:end] = [find(a) for a in args]
                    nxt(regs, eg, emit)

    elif op == OP_SCAN:
        _, out, head, arity, base = ins
        end = base + arity

        def step(regs, eg, emit):
            for regs[out], node in first_candidates(eg, ins):
                if len(node.args) == arity:
                    regs[base:end] = node.args
                    nxt(regs, eg, emit)

    elif op == OP_SCAN_ALL:
        _, out = ins

        def step(regs, eg, emit):
            for regs[out] in list(eg.classes):
                nxt(regs, eg, emit)

    elif op == OP_SCAN_REL:
        _, name, arity, base, _seeds = ins
        end = base + arity

        def step(regs, eg, emit):
            for row in eg.facts(name):
                if len(row) == arity:
                    regs[base:end] = _class_row(row)
                    nxt(regs, eg, emit)

    elif op == OP_SCAN_REL_BOUND:
        _, name, arity, base, src_slot, pos = ins
        end = base + arity

        def step(regs, eg, emit):
            target = regs[src_slot]
            for rel_name, row in eg._rows_of.get(target, ()):
                if (
                    rel_name == name
                    and len(row) == arity
                    and row[pos] == target
                ):
                    regs[base:end] = _class_row(row)
                    nxt(regs, eg, emit)

    else:
        raise MatchError(f"unknown opcode {op!r}")
    return step


def run_query(egraph: EGraph, query: CompiledQuery) -> List[Bindings]:
    """Execute a compiled query over the whole (rebuilt) e-graph: one
    bindings dict per match.

    A convenience wrapper for one-shot callers (``rules.find_matches``,
    tests); the saturation engine drives the executors itself.
    """
    if egraph.worklist or egraph._stale_ids:
        egraph.rebuild()
    results: List[Bindings] = []
    var_slots = query.var_slots

    def on_match(regs):
        results.append({name: regs[s] for name, s in var_slots.items()})

    executor = query.executor
    executor.run(
        egraph, first_candidates(egraph, executor.first), on_match
    )
    return results
