"""Small analyses over IR trees: sizes, free variables, substitution."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from .expr import Expr, Let, Load, Variable
from .stmt import Stmt, Store
from .visitor import IRMutator, IRVisitor


def expr_size(node) -> int:
    """Number of IR nodes (the paper's AST-size cost)."""
    return node.size


def free_variables(node) -> FrozenSet[str]:
    """Names of the variables ``node`` uses but does not bind."""
    return node.free_vars


class _Substitute(IRMutator):
    def __init__(self, mapping: Dict[str, Expr]):
        self.mapping = mapping

    def mutate(self, node):
        # a subtree none of the mapped names is free in cannot change
        if node is None or self.mapping.keys().isdisjoint(node.free_vars):
            return node
        return super().mutate(node)

    def mutate_Variable(self, node: Variable):
        return self.mapping.get(node.name, node)

    def mutate_Let(self, node: Let):
        value = self.mutate(node.value)
        if node.name in self.mapping:
            inner = _Substitute(
                {k: v for k, v in self.mapping.items() if k != node.name}
            )
            body = inner.mutate(node.body)
        else:
            body = self.mutate(node.body)
        if value is node.value and body is node.body:
            return node
        return Let(node.name, value, body)


def substitute(node, mapping: Dict[str, Expr]):
    """Replace free variables by expressions (capture-aware for Let)."""
    if not mapping:
        return node
    return _Substitute(mapping).mutate(node)


class _LoadCollector(IRVisitor):
    def __init__(self, name: Optional[str]) -> None:
        self.name = name
        self.loads: List[Load] = []

    def visit_Load(self, node: Load):
        if self.name is None or node.name == self.name:
            self.loads.append(node)
        self.visit(node.index)


def collect_loads(node, name: Optional[str] = None) -> List[Load]:
    collector = _LoadCollector(name)
    collector.visit(node)
    return collector.loads


class _StoreCollector(IRVisitor):
    def __init__(self) -> None:
        self.stores: List[Store] = []

    def visit_Store(self, node: Store):
        self.stores.append(node)
        self.visit(node.index)
        self.visit(node.value)


def collect_stores(stmt: Stmt) -> List[Store]:
    collector = _StoreCollector()
    collector.visit(stmt)
    return collector.stores


class _Contains(IRVisitor):
    def __init__(self, predicate):
        self.predicate = predicate
        self.found = False

    def generic_visit(self, node):
        if self.found:
            return None
        if self.predicate(node):
            self.found = True
            return None
        return super().generic_visit(node)


def contains(node, predicate) -> bool:
    visitor = _Contains(predicate)
    visitor.visit(node)
    return visitor.found


def loads_from(node, names: Iterable[str]) -> bool:
    wanted = set(names)
    return contains(
        node, lambda n: isinstance(n, Load) and n.name in wanted
    )
