"""Static lint over codegen'd kernel source (scalar and batched).

The compiled backend emits plain Python (``def _kernel(buffers, env,
_interp, _arena)``); this lint parses that source with :mod:`ast` and
checks the invariants the emitter is supposed to maintain:

``kernels.arena-pairing``
    Every ``X = _take(...)``/``_take_b(...)`` allocation must have a
    matching ``_give(_arena, X)`` release (and vice versa).  A dropped
    give is a silent arena leak — under steady-state serving the pool
    grows without bound.
``kernels.nondeterminism``
    References to wall-clock, RNG, or identity-based sources
    (``time.*``, ``random.*``, ``os.*``, ``secrets``/``uuid``,
    ``hash``/``id``).  Kernels must be pure functions of their buffers
    and env — serving replays, retries, and the differential parity
    suite all assume bit-reproducibility.
``kernels.order-dependence``
    Iteration over an unordered collection (``set(...)``,
    ``globals()``/``vars()``/``dir()``) — output would depend on hash
    order, breaking cross-process reproducibility.
``kernels.env-key``
    An ``env[...]`` read of a key the execution plan does not publish.
    Plans publish ``{name}.stride.{d}`` for ``d > 0`` per bound buffer
    (:func:`repro.runtime.plan.stride_env`) plus ``batch.size`` on the
    batched path; any other read raises ``KeyError`` at serve time.
``kernels.lane-store``
    Inside a lane region (``for _ in range(0, N, _LANES):`` — a block
    loop emitted as one array pass) every store into a buffer bound
    outside the region must carry its disjointness certificate, the
    bare ``('lanes-disjoint', local, terms)`` constant the emitter
    writes next to it, and the terms must re-check
    (:func:`repro.runtime.codegen.lanes_disjoint`).  A lane store
    without one means lanes may overwrite each other in an order the
    serial loop never would.

Interpreter-fallback kernels carry no source (``kernel.source is
None``) and are skipped — there is nothing static to check.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from .findings import ERROR, Finding

__all__ = ["lint_kernel", "lint_kernel_source"]

_TAKE_FUNCS = {"_take", "_take_b"}
_GIVE_FUNC = "_give"

#: module roots whose mere mention makes a kernel nondeterministic
_IMPURE_MODULES = {"time", "random", "secrets", "uuid", "os"}
#: builtins whose results depend on interpreter identity/hash state
_IMPURE_BUILTINS = {"hash", "id", "globals", "vars", "input"}
#: call results that are unordered collections
_UNORDERED_CALLS = {"set", "frozenset", "globals", "vars", "dir"}


def _call_root(node: ast.expr) -> Optional[str]:
    """The leftmost name of a call target (``time.time`` -> ``time``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def lint_kernel_source(
    source: str,
    *,
    published_env: Optional[Iterable[str]] = None,
    batched: bool = False,
    context: str = "kernel",
) -> List[Finding]:
    """Lint one kernel's emitted source text.

    ``published_env`` is the set of env keys the caller's execution
    plan will provide; when ``None``, keys are checked against the
    publishable *shape* (``{name}.stride.{d>0}`` / ``batch.size``)
    instead of an exact set.
    """
    findings: List[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                "kernels.syntax",
                ERROR,
                f"{context}:{exc.lineno}",
                f"emitted source does not parse: {exc.msg}",
                "this is an emitter bug — file it against runtime.codegen",
            )
        ]
    published: Optional[Set[str]] = (
        set(published_env) if published_env is not None else None
    )
    if published is not None and batched:
        published.add("batch.size")

    taken: dict = {}
    given: dict = {}

    for node in ast.walk(tree):
        # -- arena pairing ---------------------------------------------------
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Call
        ):
            root = _call_root(node.value.func)
            if root in _TAKE_FUNCS and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    taken[target.id] = node.lineno
        if isinstance(node, ast.Call):
            root = _call_root(node.func)
            if (
                root == _GIVE_FUNC
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Name)
            ):
                given[node.args[1].id] = node.lineno

            # -- nondeterminism ---------------------------------------------
            if root in _IMPURE_BUILTINS and isinstance(node.func, ast.Name):
                findings.append(
                    Finding(
                        "kernels.nondeterminism",
                        ERROR,
                        f"{context}:{node.lineno}",
                        f"call to {root}() — result depends on interpreter"
                        " identity/hash state",
                        "compute the value at compile time and embed it as"
                        " a constant",
                    )
                )

        # -- impure module references ----------------------------------------
        if isinstance(node, ast.Name) and node.id in _IMPURE_MODULES:
            findings.append(
                Finding(
                    "kernels.nondeterminism",
                    ERROR,
                    f"{context}:{node.lineno}",
                    f"reference to module {node.id!r} — kernels must be"
                    " pure functions of (buffers, env)",
                    "remove the wall-clock/RNG/OS dependence; randomness"
                    " belongs in counted-RNG inputs",
                )
            )
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[0] for a in node.names]
            bad = sorted(set(names) & _IMPURE_MODULES)
            if bad:
                findings.append(
                    Finding(
                        "kernels.nondeterminism",
                        ERROR,
                        f"{context}:{node.lineno}",
                        f"import of impure module(s) {bad}",
                        "kernels may only use the injected helper globals",
                    )
                )

        # -- unordered iteration ---------------------------------------------
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Call):
                root = _call_root(it.func)
                if root in _UNORDERED_CALLS:
                    findings.append(
                        Finding(
                            "kernels.order-dependence",
                            ERROR,
                            f"{context}:{getattr(node, 'lineno', it.lineno)}",
                            f"iteration over {root}(...) — element order"
                            " depends on hash seeding",
                            "iterate a sorted() or insertion-ordered"
                            " collection instead",
                        )
                    )

        # -- env key reads ----------------------------------------------------
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "env"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            key = node.slice.value
            if published is not None:
                if key not in published:
                    findings.append(
                        Finding(
                            "kernels.env-key",
                            ERROR,
                            f"{context}:{node.lineno}",
                            f"env key {key!r} is not published by the"
                            " execution plan"
                            f" ({len(published)} published keys)",
                            "publish the key in stride_env or drop the"
                            " read",
                        )
                    )
            else:
                parts = key.rsplit(".stride.", 1)
                stride_ok = (
                    len(parts) == 2
                    and parts[1].isdigit()
                    and int(parts[1]) > 0
                )
                if not stride_ok and key != "batch.size":
                    findings.append(
                        Finding(
                            "kernels.env-key",
                            ERROR,
                            f"{context}:{node.lineno}",
                            f"env key {key!r} has no publishable form"
                            " (expected '<buffer>.stride.<d>' with d > 0,"
                            " or 'batch.size')",
                            "plans only publish positive-dimension strides"
                            " and the batch size",
                        )
                    )

    findings.extend(_lint_lane_stores(tree, context))

    for name, lineno in taken.items():
        if name not in given:
            findings.append(
                Finding(
                    "kernels.arena-pairing",
                    ERROR,
                    f"{context}:{lineno}",
                    f"arena allocation {name} = _take(...) has no matching"
                    " _give — the buffer leaks out of the pool on every"
                    " call",
                    "emit _give(_arena, ...) at Allocate scope exit",
                )
            )
    for name, lineno in given.items():
        if name not in taken:
            findings.append(
                Finding(
                    "kernels.arena-pairing",
                    ERROR,
                    f"{context}:{lineno}",
                    f"_give(_arena, {name}) releases a buffer no _take in"
                    " this kernel produced",
                    "pair every give with the allocation that owns the"
                    " buffer",
                )
            )
    return findings


def _lint_lane_stores(tree: ast.AST, context: str) -> List[Finding]:
    from ..runtime.codegen import lanes_disjoint

    findings: List[Finding] = []
    for region in ast.walk(tree):
        if not (
            isinstance(region, ast.For)
            and isinstance(region.iter, ast.Call)
            and _call_root(region.iter.func) == "range"
            and len(region.iter.args) == 3
            and isinstance(region.iter.args[2], ast.Name)
            and region.iter.args[2].id == "_LANES"
        ):
            continue
        bound = {"buffers"}  # the kernel's own name table, not a buffer
        certified: dict = {}
        stores: dict = {}
        for node in ast.walk(region):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        stores.setdefault(target.value.id, node.lineno)
            elif isinstance(node, ast.Expr):
                value = node.value
                if isinstance(value, ast.Tuple):
                    try:
                        tag, local, terms = ast.literal_eval(value)
                    except ValueError:
                        continue
                    if tag == "lanes-disjoint":
                        certified[local] = terms
                elif (
                    isinstance(value, ast.Call)
                    and len(value.args) > 1
                    and all(isinstance(a, ast.Name) for a in value.args[:2])
                    and value.args[0].id == "_arena"
                ):
                    # a statement-level intrinsic call is a tile store
                    stores.setdefault(value.args[1].id, node.lineno)
        for local, lineno in stores.items():
            if local in bound:
                continue  # lane-private (or lane-invariant) scratch
            terms = certified.get(local)
            if terms is None:
                problem = "carries no disjointness certificate"
            elif not lanes_disjoint(terms):
                problem = f"has a certificate that does not hold: {terms}"
            else:
                continue
            findings.append(
                Finding(
                    "kernels.lane-store",
                    ERROR,
                    f"{context}:{lineno}",
                    f"lane store through {local} into a shared buffer"
                    f" {problem}",
                    "emit per-lane stores only through _Emitter._certify",
                )
            )
    return findings


def lint_kernel(
    kernel,
    *,
    published_env: Optional[Iterable[str]] = None,
    batched: bool = False,
    context: str = "",
) -> List[Finding]:
    """Lint a :class:`~repro.runtime.codegen.CompiledKernel`.

    Interpreter-fallback kernels (``source is None``) produce no
    findings — they have no emitted source to check.
    """
    source = getattr(kernel, "source", None)
    if source is None:
        return []
    name = context or (getattr(kernel, "key", "") or "kernel")[:12]
    return lint_kernel_source(
        source,
        published_env=published_env,
        batched=batched,
        context=name,
    )
