"""An egg-style E-graph: hashcons + union-find + deferred rebuilding.

Follows Willsey et al. (POPL'21): ``union`` only merges the union-find and
defers congruence repair to ``rebuild``, which processes a worklist of
touched classes.  Relations (egglog-style Datalog facts over e-classes)
live alongside the term structure and are re-canonicalized on rebuild.

Three structures make saturation incremental (they are maintained by the
same mutations that maintain the hashcons, so they are never rebuilt from
scratch):

* a persistent **head index** (``head_entries``) grouping hashcons
  entries by operator head, so matchers never re-snapshot the graph;
* an append-only **change log** of the e-nodes and relation rows that
  are new or were touched by a merge; rule engines keep cursors into it
  and ask :meth:`EGraph.changed_since` for exactly those entries, so a
  pass only tries matches that use something it has not seen;
* a **reverse relation index** (class id -> rows mentioning it) so
  ``rebuild`` re-canonicalizes only rows that mention a merged-away
  class instead of rescanning every fact.

A minimal saturate-and-extract session — insert a term, rewrite
``1 + 1`` to ``2`` until nothing changes, and extract the cheapest
equivalent form:

>>> from repro.eqsat import (
...     EGraph, I, T, extract_best, parse_one, parse_pattern, rewrite,
...     saturate,
... )
>>> eg = EGraph()
>>> root = eg.add_term(T("Mul", T("Add", I(1), I(1)), I(3)))
>>> fold = rewrite(
...     "fold-1+1",
...     parse_pattern(parse_one("(Add 1 1)")),
...     parse_pattern(parse_one("2")),
... )
>>> stats = saturate(eg, [fold])
>>> eg.lookup_term(T("Mul", I(2), I(3))) == eg.find(root)
True
>>> print(extract_best(eg, root))
(Mul 2 3)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, KeysView, List, Optional, Tuple

from .language import ENode, Head, Term

#: Literal payloads are interned by equality, but NaN compares unequal to
#: everything including itself — a fresh NaN payload would never hit the
#: hashcons and equal literals would land in distinct classes.  All NaN
#: payloads are therefore replaced by this single object; tuple equality
#: short-circuits on identity, so lookups and inserts agree.
_CANONICAL_NAN = float("nan")


def _canon_head(head: Head) -> Head:
    """Canonicalize a node head's literal payload (NaN normalization)."""
    if isinstance(head, tuple):
        value = head[1]
        if isinstance(value, float) and value != value:
            return (head[0], _CANONICAL_NAN)
    return head


class EClass:
    """One equivalence class of e-nodes."""

    __slots__ = ("id", "nodes", "parents", "literal")

    def __init__(self, eclass_id: int) -> None:
        self.id = eclass_id
        #: the payload of the class's first literal node, if it has one
        self.literal: Optional[object] = None
        #: insertion-ordered set of this class's e-nodes; canonical (and
        #: exactly the hashcons keys owned by the class) after ``rebuild``
        self.nodes: Dict[ENode, None] = {}
        #: e-nodes that reference this class, with the class they live in
        self.parents: List[Tuple[ENode, int]] = []


class EGraph:
    """The e-graph, including egglog-style relations."""

    def __init__(self) -> None:
        self._parent: List[int] = []
        self.classes: Dict[int, EClass] = {}
        self.hashcons: Dict[ENode, int] = {}
        self.worklist: List[int] = []
        #: relation name -> insertion-ordered set of canonical rows
        self.relations: Dict[str, Dict[Tuple[object, ...], None]] = (
            defaultdict(dict)
        )
        #: bumps on every change; rules sets use it to detect saturation
        self.version = 0
        #: persistent head -> {node: owner class} index (mirrors hashcons)
        self._index: Dict[Head, Dict[ENode, int]] = {}
        #: append-only change logs (engines keep cursors): e-nodes and
        #: ``(relation, row)`` pairs that are new, or whose class or
        #: arguments a merge touched — as they were spelled at the time
        self._node_log: List[ENode] = []
        self._row_log: List[Tuple[str, Tuple[object, ...]]] = []
        #: class id -> relation rows that mention it (for incremental
        #: canonicalization); keyed on ids that were canonical at insert
        self._rows_of: Dict[
            int, Dict[Tuple[str, Tuple[object, ...]], None]
        ] = {}
        #: class ids merged away since the last relation canonicalization
        self._stale_ids: List[int] = []
        #: memo for extraction costs: (model key, version, best) — see
        #: :func:`repro.eqsat.extract.compute_costs`
        self._cost_cache: Optional[tuple] = None

    # -- union-find ----------------------------------------------------------

    def find(self, eclass_id: int) -> int:
        up = self._parent
        root = up[eclass_id]
        if root == eclass_id:
            return root
        while up[root] != root:
            root = up[root]
        # path compression
        while up[eclass_id] != root:
            up[eclass_id], eclass_id = root, up[eclass_id]
        return root

    def _new_class(self) -> EClass:
        eclass_id = len(self._parent)
        self._parent.append(eclass_id)
        eclass = EClass(eclass_id)
        self.classes[eclass_id] = eclass
        return eclass

    # -- insertion -----------------------------------------------------------

    def add_node(self, node: ENode) -> int:
        head, args = node
        up = self._parent
        for arg in args:
            if up[arg] != arg:
                args = tuple([self.find(a) for a in args])
                break
        if isinstance(head, tuple):
            head = _canon_head(head)
        if head is not node.head or args is not node.args:
            node = ENode(head, args)
        existing = self.hashcons.get(node)
        if existing is not None:
            return existing if up[existing] == existing else self.find(existing)
        eclass = self._new_class()
        eclass.nodes[node] = None
        if isinstance(head, tuple):
            eclass.literal = head[1]
        self.hashcons[node] = eclass.id
        self._index.setdefault(node.head, {})[node] = eclass.id
        for child in node.args:
            self.classes[self.find(child)].parents.append((node, eclass.id))
        self.version += 1
        self._node_log.append(node)
        return eclass.id

    def add_term(self, term: Term) -> int:
        args = tuple(self.add_term(a) for a in term.args)
        return self.add_node(ENode(term.head, args))

    def lookup_term(self, term: Term) -> Optional[int]:
        """The e-class of a term if it is present, else None.

        Literal terms are a base case: their payload lives in the head
        (canonicalized, see :func:`_canon_head`), not in child e-classes,
        so the recursion stops instead of descending into the payload.
        """
        if term.is_literal():
            found = self.hashcons.get(ENode(_canon_head(term.head), ()))
            return self.find(found) if found is not None else None
        args = []
        for a in term.args:
            child = self.lookup_term(a)
            if child is None:
                return None
            args.append(child)
        node = ENode(term.head, tuple(args)).canonicalize(self.find)
        found = self.hashcons.get(node)
        return self.find(found) if found is not None else None

    # -- union + rebuild -------------------------------------------------------

    def union(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        # merge smaller into larger to bound parent-list copying
        if len(self.classes[a].parents) < len(self.classes[b].parents):
            a, b = b, a
        self._parent[b] = a
        class_a, class_b = self.classes[a], self.classes[b]
        # what the merge changes for a matcher: the nodes of ``b`` move
        # to another class, its parents get another argument and its
        # rows another value.  Everything around ``a`` stays as it was,
        # unless ``b`` brings the class its first literal payload — then
        # checks and guards that read it can newly hold there too.
        touched = [class_b]
        if class_a.literal is None and class_b.literal is not None:
            class_a.literal = class_b.literal
            touched.append(class_a)
        for eclass in touched:
            self._node_log.extend(eclass.nodes)
            self._node_log.extend([node for node, _ in eclass.parents])
            self._row_log.extend(self._rows_of.get(eclass.id, ()))
        class_a.nodes.update(class_b.nodes)
        class_a.parents.extend(class_b.parents)
        del self.classes[b]
        self.worklist.append(a)
        self.version += 1
        self._stale_ids.append(b)
        return True

    def rebuild(self) -> None:
        """Restore the congruence invariant after a batch of unions.

        Afterwards the hashcons, the head index and every class's
        ``nodes`` hold canonical spellings only, and the hashcons keys
        are exactly the nodes of the live classes (parent lists may keep
        stale spellings; they still cover every node of every child).
        """
        while self.worklist:
            todo = dict.fromkeys(self.find(c) for c in self.worklist)
            self.worklist.clear()
            for eclass_id in todo:
                self._repair(eclass_id)
        self._canonicalize_relations()

    def _repair(self, eclass_id: int) -> None:
        """Re-spell every parent of a merged class; collisions in the
        hashcons are congruences and are unioned on the spot."""
        find = self.find
        eclass = self.classes[find(eclass_id)]
        # a union fired below appends to the live list (and re-queues the
        # survivor): repair the entries present now, keep what it adds
        todo = len(eclass.parents)
        repaired: Dict[ENode, int] = {}
        for node, owner in eclass.parents[:todo]:
            self._respell(find(owner))
            repaired[node.canonicalize(find)] = find(owner)
        if self.classes.get(find(eclass_id)) is eclass:
            eclass.parents[:todo] = repaired.items()

    def _respell(self, owner: int) -> None:
        """Make every node of one (canonical) class canonical."""
        find, up = self.find, self._parent
        stale = [
            n
            for n in self.classes[owner].nodes
            if any(up[a] != a for a in n.args)
        ]
        for node in stale:
            eclass = self.classes[find(owner)]
            del eclass.nodes[node]
            del self.hashcons[node]
            del self._index[node.head][node]
            canon = node.canonicalize(find)
            existing = self.hashcons.get(canon)
            if existing is None:
                eclass.nodes[canon] = None
                self.hashcons[canon] = eclass.id
                self._index[node.head][canon] = eclass.id
            else:
                self.union(existing, eclass.id)

    def _canonicalize_relations(self) -> None:
        """Re-canonicalize only rows that mention a merged-away class."""
        while self._stale_ids:
            stale = self._stale_ids.pop()
            entries = self._rows_of.pop(stale, None)
            if not entries:
                continue
            for name, row in entries:
                rows = self.relations[name]
                if row not in rows:
                    continue  # already rewritten via another stale id
                canon = tuple(
                    self.find(v) if isinstance(v, int) else v for v in row
                )
                if canon == row:
                    continue
                del rows[row]
                for v in row:
                    if isinstance(v, int) and v != stale:
                        other = self._rows_of.get(v)
                        if other is not None:
                            other.pop((name, row), None)
                if canon not in rows:
                    rows[canon] = None
                    for v in canon:
                        if isinstance(v, int):
                            self._rows_of.setdefault(v, {})[
                                (name, canon)
                            ] = None

    # -- relations ---------------------------------------------------------------

    def assert_fact(self, name: str, row: Tuple[int, ...]) -> bool:
        canon = tuple(self.find(v) if isinstance(v, int) else v for v in row)
        if canon in self.relations[name]:
            return False
        self.relations[name][canon] = None
        self.version += 1
        self._row_log.append((name, canon))
        for v in canon:
            if isinstance(v, int):
                self._rows_of.setdefault(v, {})[(name, canon)] = None
        return True

    def facts(self, name: str) -> KeysView[Tuple[object, ...]]:
        """The rows of one relation (set-like, in insertion order)."""
        return self.relations.get(name, {}).keys()

    # -- incremental-matching support ------------------------------------------

    def head_entries(self, head: Head) -> Dict[ENode, int]:
        """Persistent hashcons entries for one head: ``{node: owner}``.

        Owners may be stale (merged away) — resolve through :meth:`find`.
        The mapping is maintained incrementally and must not be mutated
        by callers.
        """
        return self._index.get(head, {})

    def change_cursor(self) -> Tuple[int, int]:
        """The current end of the change logs (a watermark for delta reads)."""
        return len(self._node_log), len(self._row_log)

    def changed_since(
        self, cursor: Tuple[int, int], end: Tuple[int, int]
    ) -> Tuple[
        Dict[Tuple[Head, int], List[Tuple[int, ENode]]],
        Dict[str, List[Tuple[object, ...]]],
    ]:
        """The e-nodes and relation rows logged between two cursors, as
        they are spelled now: ``{(head, arity): [(class, node)]}`` and
        ``{relation: [row]}``, each entry once.  Call on a rebuilt graph.

        A match that uses none of them binds only nodes and rows that
        sit in the same classes, with the same arguments and the same
        literal payloads, as when ``cursor`` was taken — so whoever
        matched then has already seen it.  That is what makes matching
        *from* these entries alone exact (see ``rules.RuleEngine``).
        """
        find, up, hashcons = self.find, self._parent, self.hashcons
        nodes: Dict[Tuple[Head, int], Dict[ENode, int]] = {}
        for node in self._node_log[cursor[0] : end[0]]:
            for arg in node.args:
                if up[arg] != arg:
                    node = node.canonicalize(find)
                    break
            nodes.setdefault((node.head, len(node.args)), {})[node] = (
                hashcons[node]
            )
        rows: Dict[str, Dict[Tuple[object, ...], None]] = {}
        for name, row in self._row_log[cursor[1] : end[1]]:
            row = tuple([find(v) if isinstance(v, int) else v for v in row])
            rows.setdefault(name, {})[row] = None
        return (
            {
                key: [(find(owner), node) for node, owner in found.items()]
                for key, found in nodes.items()
            },
            {name: list(found) for name, found in rows.items()},
        )

    # -- queries -------------------------------------------------------------------

    def nodes_of(self, eclass_id: int) -> Dict[ENode, None]:
        return self.classes[self.find(eclass_id)].nodes

    def literal_value(self, eclass_id: int) -> Optional[object]:
        """The payload if this class contains a literal node."""
        eclass = self.classes.get(eclass_id)
        if eclass is None:
            eclass = self.classes[self.find(eclass_id)]
        return eclass.literal

    def add_literal(self, kind: str, value: object) -> int:
        return self.add_node(ENode((kind, value), ()))

    def check_invariants(self) -> List[str]:
        """Violations of the post-``rebuild`` invariants (empty = sound).

        The hashcons, the head index and the classes' node sets are one
        canonical node set seen three ways; parent lists cover every
        node of every child; each class caches its first literal
        payload; relation rows are canonical and ``_rows_of`` is their
        exact reverse index.
        """
        if self.worklist or self._stale_ids:
            return ["unions are pending: call rebuild() first"]
        find, classes, hashcons = self.find, self.classes, self.hashcons
        bad: List[str] = []
        covered = {
            cid: {(n.canonicalize(find), find(o)) for n, o in c.parents}
            for cid, c in classes.items()
        }
        by_head: Dict[Head, Dict[ENode, int]] = {}
        for node, owner in hashcons.items():
            by_head.setdefault(node.head, {})[node] = owner
            home = classes.get(find(owner))
            if node != node.canonicalize(find):
                bad.append(f"hashcons key {node} is not canonical")
            elif home is None or node not in home.nodes:
                bad.append(f"hashcons key {node} is not in class {owner}")
            else:
                bad.extend(
                    f"{node} is missing from the parents of class {child}"
                    for child in node.args
                    if (node, home.id) not in covered[child]
                )
        if by_head != {h: e for h, e in self._index.items() if e}:
            bad.append("the head index differs from the hashcons")
        for cid, eclass in classes.items():
            payloads = [
                n.head[1] for n in eclass.nodes if isinstance(n.head, tuple)
            ]
            if eclass.literal is not (payloads[0] if payloads else None):
                bad.append(f"class {cid} caches the wrong literal payload")
            for node in eclass.nodes:
                owner = hashcons.get(node)
                if owner is None or find(owner) != cid:
                    bad.append(
                        f"node {node} of class {cid} is not a hashcons"
                        " key of that class"
                    )
        reverse: Dict[int, set] = {}
        for name, rows in self.relations.items():
            for row in rows:
                for v in row:
                    if isinstance(v, int):
                        if find(v) != v:
                            bad.append(f"row {name}{row} is not canonical")
                        reverse.setdefault(v, set()).add((name, row))
        if reverse != {k: set(v) for k, v in self._rows_of.items() if v}:
            bad.append("_rows_of is not the reverse index of the relations")
        return bad

    def num_classes(self) -> int:
        return len(self.classes)

    def num_nodes(self) -> int:
        """Canonical e-nodes (exact after ``rebuild``)."""
        return len(self.hashcons)

    def equivalent(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)
