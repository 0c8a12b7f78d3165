"""Generic traversal and rewriting over IR trees.

Both the visitor and the mutator dispatch on the node's class name: define
``visit_Add`` / ``mutate_Load`` etc. on a subclass to intercept specific
nodes; everything else is traversed generically through the child fields
each node class declares (``Node._child_fields``).
"""

from __future__ import annotations


class IRVisitor:
    """Read-only traversal; override ``visit_<ClassName>`` to intercept."""

    def visit(self, node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node):
        for child in node.children():
            self.visit(child)
        return None


class IRMutator:
    """Rebuilds the tree bottom-up; override ``mutate_<ClassName>``.

    Nodes are only reconstructed when a child actually changed, so
    un-modified subtrees keep their identity (cheap and cache-friendly).
    """

    def mutate(self, node):
        if node is None:
            return None
        method = getattr(self, f"mutate_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_mutate(node)

    def generic_mutate(self, node):
        changes = {}
        for name in node._child_fields:
            value = getattr(node, name)
            if isinstance(value, tuple):
                new = tuple(self.mutate(v) for v in value)
                if any(a is not b for a, b in zip(new, value)):
                    changes[name] = new
            elif value is not None:
                new = self.mutate(value)
                if new is not value:
                    changes[name] = new
        if not changes:
            return node
        cls = type(node)
        values = {f: getattr(node, f) for f in cls.__dataclass_fields__}
        values.update(changes)
        return cls(**values)


def count_nodes(node) -> int:
    """Number of IR nodes in the subtree (the cached ``size`` fact)."""
    return node.size
