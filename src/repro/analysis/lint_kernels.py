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
    order, breaking cross-process reproducibility.  :func:`lint_order`
    points the same check at hand-written source — the ``repro.eqsat``
    engine, whose selected code must not move with the hash seed —
    where it also follows sets through names, attributes and returns.
``kernels.env-key``
    An ``env[...]`` read of a key the execution plan does not publish.
    Plans publish ``{name}.stride.{d}`` for ``d > 0`` per bound buffer
    (:func:`repro.runtime.plan.stride_env`) plus ``batch.size`` on the
    batched path; any other read raises ``KeyError`` at serve time.
``kernels.lane-store``
    Inside a lane region (``for _ in range(0, N, _LANES):`` — a block
    loop emitted as one array pass; under the batch, ``range(0, N, _w)``
    with ``_w = max(1, _ROWS // _B)``) every store into a buffer bound
    outside the region must carry its disjointness certificate, the
    bare ``('lanes-disjoint', local, terms)`` constant the emitter
    writes next to it, and the terms must re-check
    (:func:`repro.runtime.codegen.lanes_disjoint`).  A lane store
    without one means lanes may overwrite each other in an order the
    serial loop never would.
``kernels.unordered-fold``
    ``np.add.reduce``, ``np.sum`` or ``.sum(...)`` without an integer
    ``dtype``: a fold in numpy's order (pairwise), which rounds a float
    value unlike the loop it replaces.  DP4A's wrapping int32 fold is
    the ``_wrapsum`` helper.
``kernels.stale-widen``
    A MAC input widened once per call (``_w, _e = <isa>.widen(_b)`` in
    the preamble) must be a buffer the kernel never writes — by
    subscript assignment into its data or by a tile-store call.
    Otherwise a load after the write reads the copy made before it.
``kernels.stale-hoist``
    What a serial block loop's preheader builds once per call — a tile
    or shuffle stack (``_h<n> = ...``) — must read only buffers the
    kernel never writes, and a kernel constant (``_C<n>``, e.g. a
    literal broadcast) is never written.  Otherwise an iteration after
    the write reads what the buffer held before it, or the next call
    reads what this one left in the constant.

Interpreter-fallback kernels carry no source (``kernel.source is
None``) and are skipped — there is nothing static to check.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Set

from .findings import ERROR, Finding, apply_waivers, parse_waivers

__all__ = ["lint_kernel", "lint_kernel_source", "lint_order", "registry_rows"]

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


def _unordered(node: ast.expr, sets) -> Optional[str]:
    """What makes an expression an unordered collection, if anything:
    a set display or comprehension, a call that returns one, set
    algebra over one, or a name / attribute listed in ``sets``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        root = _call_root(node.func)
        if root in _UNORDERED_CALLS or f"{root}()" in sets:
            return f"{root}(...)"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _unordered(node.left, sets) or _unordered(node.right, sets)
    if isinstance(node, (ast.Name, ast.Attribute)) and _key(node) in sets:
        return f"the set {ast.unparse(node)}"
    return None


def _key(node: ast.expr) -> str:
    """How a binding is remembered: a name as itself, an attribute by
    ``.attr`` whatever object it hangs off (a function, in
    :func:`_set_names`, as ``name()``)."""
    return "." + node.attr if isinstance(node, ast.Attribute) else ast.unparse(node)


def _unordered_iteration(node: ast.AST, sets) -> Optional[str]:
    """The unordered collection a node walks in an order that escapes:
    a ``for`` / comprehension over one, or ``list``/``tuple``/``iter``/
    ``next``/``enumerate`` of one (``sorted`` and membership are fine)."""
    if isinstance(node, (ast.For, ast.comprehension)):
        return _unordered(node.iter, sets)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "tuple", "iter", "next", "enumerate"}
        and node.args
    ):
        return _unordered(node.args[0], sets)
    return None


def _order_finding(context: str, node: ast.AST, what: str) -> Finding:
    line = getattr(node, "lineno", None) or node.iter.lineno
    return Finding(
        "kernels.order-dependence",
        ERROR,
        f"{context}:{line}",
        f"iteration over {what} — element order depends on hash seeding",
        "iterate a sorted() or insertion-ordered collection instead",
    )


def _set_names(tree: ast.AST) -> Set[str]:
    """Names, attributes (as ``.attr``) and functions of a module that
    hold (return) a set: bound to an unordered expression somewhere, or
    annotated ``Set[...]`` / ``set`` / ``frozenset``."""

    def says_set(annotation: Optional[ast.expr]) -> bool:
        text = ast.unparse(annotation) if annotation is not None else ""
        return text.split("[")[0].split(".")[-1] in {"Set", "set", "frozenset"}

    sets: Set[str] = set()
    grew = True
    while grew:  # a set can be bound to a name that is itself a set
        before = len(sets)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if says_set(node.returns):
                    sets.add(node.name + "()")
                for arg in node.args.args + node.args.kwonlyargs:
                    if says_set(arg.annotation):
                        sets.add(arg.arg)
            elif isinstance(node, ast.AnnAssign):
                if says_set(node.annotation) or (
                    node.value is not None and _unordered(node.value, sets)
                ):
                    sets.add(_key(node.target))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                if _unordered(node.value, sets):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    sets.update(_key(t) for t in targets)
        grew = len(sets) > before
    return sets


#: hand-written modules whose results must not depend on the hash seed
ORDER_MODULES = tuple(
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "eqsat", name)
    for name in (
        "egraph.py", "ematch.py", "extract.py", "language.py",
        "pattern.py", "rules.py", "schedule.py", "sexpr.py",
    )
)


def lint_order(paths: Optional[Iterable[str]] = None) -> List[Finding]:
    """``kernels.order-dependence`` over source files (default: the
    ``repro.eqsat`` engine): a set walked where the order can reach a
    result.  ``# analysis: ignore[order-dependence]`` waives a line whose
    order provably cannot escape."""
    sources = {}
    for path in paths or ORDER_MODULES:
        with open(path, "r", encoding="utf-8") as handle:
            sources[os.path.basename(path)] = handle.read()
    trees = {name: ast.parse(text) for name, text in sources.items()}
    # attributes and functions are shared between modules, names are not
    found = {name: _set_names(tree) for name, tree in trees.items()}
    shared = {k for ks in found.values() for k in ks if k[0] == "." or k[-1] == ")"}
    findings: List[Finding] = []
    for context, tree in trees.items():
        sets = found[context] | shared
        walked = [
            _order_finding(context, node, what)
            for node in ast.walk(tree)
            for what in [_unordered_iteration(node, sets)]
            if what is not None
        ]
        findings.extend(
            apply_waivers(
                walked,
                parse_waivers(sources[context]),
                lambda finding: int(finding.site.rpartition(":")[2]),
            )
        )
    return findings


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

        # -- unordered folds -------------------------------------------------
        if isinstance(node, ast.Call) and _unordered_fold(node):
            findings.append(Finding(
                "kernels.unordered-fold", ERROR, f"{context}:{node.lineno}",
                f"{ast.unparse(node.func)}(...) sums in numpy's order, not the loop's",
                "fold float values in loop order; an int32 sum is _wrapsum",
            ))

        # -- unordered iteration ---------------------------------------------
        what = _unordered_iteration(node, ())
        if what is not None:
            findings.append(_order_finding(context, node, what))

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
    findings.extend(_lint_stale(tree, context))

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


def _unordered_fold(call: ast.Call) -> bool:
    """A sum whose order numpy picks, its ``dtype`` not an integer."""
    func = ast.unparse(call.func)
    dtype = [ast.unparse(k.value) for k in call.keywords if k.arg == "dtype"]
    return (func in ("np.add.reduce", "np.sum") or func.endswith(".sum")) and not (
        dtype and dtype[0].startswith(("np.int", "np.uint"))
    )


def _stored_through(node: ast.AST) -> Optional[str]:
    """The local a kernel statement stores through: ``local[...] = ...``,
    or ``core(_arena, local, ...)`` — a statement-level intrinsic call
    is a tile store."""
    if isinstance(node, ast.Assign):
        target = node.targets[0]
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            return target.value.id
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        args = node.value.args
        if len(args) > 1 and all(isinstance(a, ast.Name) for a in args[:2]):
            if args[0].id == "_arena":
                return args[1].id
    return None


def _lint_lane_stores(tree: ast.AST, context: str) -> List[Finding]:
    from ..runtime.codegen import lanes_disjoint

    findings: List[Finding] = []
    widths = {"_LANES"} | {  # a pass of lanes under the batch
        getattr(node.targets[0], "id", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and "_ROWS" in map(_call_root, ast.walk(node.value))
    }
    for region in ast.walk(tree):
        if not (
            isinstance(region, ast.For)
            and isinstance(region.iter, ast.Call)
            and _call_root(region.iter.func) == "range"
            and len(region.iter.args) == 3
            and isinstance(region.iter.args[2], ast.Name)
            and region.iter.args[2].id in widths
        ):
            continue
        bound = {"buffers"}  # the kernel's own name table, not a buffer
        certified: dict = {}
        stores: dict = {}
        for node in ast.walk(region):
            local = _stored_through(node)
            if local is not None:
                stores.setdefault(local, node.lineno)
            if isinstance(node, ast.Assign):
                bound.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Tuple
            ):
                try:
                    tag, local, terms = ast.literal_eval(node.value)
                except ValueError:
                    continue
                if tag == "lanes-disjoint":
                    certified[local] = terms
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


def _lint_stale(tree: ast.AST, context: str) -> List[Finding]:
    """``kernels.stale-widen`` and ``kernels.stale-hoist``: a copy made
    once per call of a buffer the kernel writes, or a written constant."""
    holds: dict = {}  # local -> the buffer it is bound to in the preamble
    widened: dict = {}  # buffer local -> line of its ``.widen(...)``
    sources: dict = {}  # widened-source local -> its buffer local
    hoisted: dict = {}  # stack local -> (line, the locals it reads)
    written: dict = {}  # local stored through -> line
    for node in ast.walk(tree):
        local = _stored_through(node)
        if local is not None:
            written.setdefault(local, node.lineno)
        if not isinstance(node, ast.Assign):
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name) and target.id.startswith("_h"):
            hoisted[target.id] = (node.lineno, {
                n.id for n in ast.walk(value) if isinstance(n, ast.Name)
            })
        if isinstance(value, ast.Attribute) and value.attr == "data":
            value = value.value  # _d = buffers['x'].data
        if isinstance(value, ast.Subscript) and _call_root(value.value) == "buffers":
            holds[ast.unparse(target)] = ast.unparse(value.slice)
        elif isinstance(value, ast.Call) and value.args:
            if ast.unparse(value.func).endswith(".widen"):
                source = ast.unparse(value.args[0])
                widened[source] = node.lineno
                if isinstance(target, ast.Tuple):
                    sources[ast.unparse(target.elts[0])] = source
    stored = {holds[k]: line for k, line in written.items() if k in holds}
    findings = [
        Finding(
            "kernels.stale-widen",
            ERROR,
            f"{context}:{lineno}",
            f"buffer {holds[local]} is widened once per call, but the kernel"
            f" writes it (line {stored[holds[local]]}): a load after that"
            " write reads the stale copy",
            "widen only inputs the statement never writes"
            " (_Emitter._operand_width)",
        )
        for local, lineno in widened.items()
        if holds.get(local) in stored
    ]
    for stack, (lineno, reads) in hoisted.items():
        for name in sorted(reads):
            buffer = holds.get(sources.get(name, name))
            if buffer in stored:
                findings.append(Finding(
                    "kernels.stale-hoist",
                    ERROR,
                    f"{context}:{lineno}",
                    f"{stack} is built once per call over buffer {buffer},"
                    f" but the kernel writes it (line {stored[buffer]}):"
                    " a later iteration reads the stale stack",
                    "hoist only over inputs the statement never writes"
                    " (_Emitter._plan_stacks)",
                ))
    findings.extend(
        Finding(
            "kernels.stale-hoist",
            ERROR,
            f"{context}:{lineno}",
            f"kernel constant {local} is written: the next call reads"
            " what this one left there",
            "hoist only values nothing writes into",
        )
        for local, lineno in written.items()
        if local[:2] == "_C" and local[2:].isdigit()
    )
    return findings


def registry_rows() -> List[tuple]:
    """``(accelerator, name, role, pure)`` per tensor intrinsic a kernel
    may call — the table its ``_C<n>(_arena, ...)`` cores come from —
    sorted (registration order is import order)."""
    from ..runtime import codegen  # noqa: F401  (imports every registrant)
    from ..targets.isa import REGISTRY

    return sorted(
        (entry.isa.name if entry.isa else "-", name, entry.role, entry.pure)
        for name, entry in REGISTRY.items()
    )


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
