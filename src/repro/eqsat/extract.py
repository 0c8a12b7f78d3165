"""Cost-based extraction of the best term from an e-graph.

The paper's cost model is AST size (§III-D.3): the schedule already pins
*where* computation happens, so instruction selection is hit-or-miss and a
small-is-better cost suffices.  ``ExprVar`` (a materialized temporary) is
special: its subtree is computed once outside the hot loop, so its
children contribute only epsilon — enough to keep costs strictly
monotonic (and extraction cycle-free) without penalizing swizzles.

``compute_costs`` runs the fixpoint sparsely: a sweep revisits only
classes whose children's best entry changed in the previous sweep
(propagated through the parent lists), instead of rescanning every node
of every class each sweep — the quadratic behaviour of the naive loop on
saturated graphs.  Results are memoized on the e-graph, keyed by cost
model and invalidated by any version change, so repeated extractions of
a saturated graph pay the fixpoint once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .egraph import EGraph
from .language import ENode, Term


@dataclass
class CostModel:
    """Per-head base costs; default is 1 per node (AST size)."""

    base_costs: Dict[str, float] = field(default_factory=dict)
    default_cost: float = 1.0
    #: heads whose children are charged at this discounted rate
    hoisted_heads: Dict[str, float] = field(
        default_factory=lambda: {"ExprVar": 1e-3}
    )

    def node_cost(self, node: ENode, child_costs) -> float:
        if isinstance(node.head, tuple):
            return 0.5  # literals are cheap
        base = self.base_costs.get(node.head, self.default_cost)
        scale = self.hoisted_heads.get(node.head, 1.0)
        return base + scale * sum(child_costs)

    def cache_key(self) -> tuple:
        """Hashable fingerprint for the per-e-graph cost memo."""
        return (
            type(self),
            tuple(sorted(self.base_costs.items())),
            self.default_cost,
            tuple(sorted(self.hoisted_heads.items())),
        )


class ExtractionError(RuntimeError):
    pass


def compute_costs(
    egraph: EGraph, cost_model: Optional[CostModel] = None
) -> Dict[int, Tuple[float, ENode]]:
    """Fixpoint computation of the cheapest (cost, node) per e-class."""
    cost_model = cost_model or CostModel()
    key = cost_model.cache_key()
    cached = egraph._cost_cache
    if (
        cached is not None
        and cached[0] == key
        and cached[1] == egraph.version
    ):
        return cached[2]
    best: Dict[int, Tuple[float, ENode]] = {}
    #: (term size, term structure) of each class's best term: the
    #: tie-break among equal-cost nodes, a total order free of ids.
    #: The structure is nested ``(head, child structure...)`` tuples
    #: sharing the children's, so building one costs the node's arity.
    rank: Dict[int, Tuple[int, tuple]] = {}
    find = egraph.find
    classes = egraph.classes
    node_cost = cost_model.node_cost
    # sweep order is class-creation order, matching the naive loop
    order = {cid: i for i, cid in enumerate(classes.keys())}
    pending: Dict[int, None] = dict.fromkeys(classes)
    while pending:
        changed: Dict[int, None] = {}
        for eclass_id in sorted(pending, key=order.__getitem__):
            eclass = classes.get(eclass_id)
            if eclass is None:
                continue
            for node in eclass.nodes:
                children = [find(a) for a in node.args]
                try:
                    cost = node_cost(node, [best[c][0] for c in children])
                except KeyError:
                    continue  # a child has no extractable term yet
                current = best.get(eclass_id)
                if current is not None and cost > current[0] + 1e-12:
                    continue
                if isinstance(node.head, tuple):
                    node_rank = (1, (str(Term(node.head)),))
                else:
                    parts = [rank[c] for c in children]
                    node_rank = (
                        1 + sum([p[0] for p in parts]),
                        (node.head, *[p[1] for p in parts]),
                    )
                if current is not None and cost >= current[0] - 1e-12:
                    # equal cost: the rank decides (the incumbent itself
                    # is re-ranked when a child's best term moved)
                    incumbent = rank[eclass_id]
                    if node_rank >= incumbent and (
                        node != current[1] or node_rank == incumbent
                    ):
                        continue
                best[eclass_id] = (cost, node)
                rank[eclass_id] = node_rank
                changed[eclass_id] = None
        # revisit only the parents of classes whose best entry changed
        pending = {}
        for eclass_id in changed:
            eclass = classes.get(eclass_id)
            if eclass is None:
                continue
            for _node, owner in eclass.parents:
                owner = find(owner)
                if owner in classes:
                    pending[owner] = None
    egraph._cost_cache = (key, egraph.version, best)
    return best


def extract_best(
    egraph: EGraph,
    root: int,
    cost_model: Optional[CostModel] = None,
    costs: Optional[Dict[int, Tuple[float, ENode]]] = None,
) -> Term:
    """The cheapest term represented by ``root``'s e-class."""
    if costs is None:
        costs = compute_costs(egraph, cost_model)
    root = egraph.find(root)

    def build(eclass_id: int, depth: int) -> Term:
        if depth > 10_000:
            raise ExtractionError("extraction recursion limit — cyclic costs?")
        entry = costs.get(egraph.find(eclass_id))
        if entry is None:
            raise ExtractionError(
                f"e-class {eclass_id} has no extractable term"
            )
        _, node = entry
        return Term(node.head, tuple(build(a, depth + 1) for a in node.args))

    return build(root, 0)


def extraction_cost(
    egraph: EGraph, root: int, cost_model: Optional[CostModel] = None
) -> float:
    costs = compute_costs(egraph, cost_model)
    entry = costs.get(egraph.find(root))
    if entry is None:
        raise ExtractionError(f"e-class {root} has no extractable term")
    return entry[0]
