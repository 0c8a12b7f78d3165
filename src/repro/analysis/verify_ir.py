"""IR well-formedness verification (lowered and tensorized statements).

``verify_ir`` walks a statement once and reports structural defects the
dynamic test suite can only catch by accident:

``ir.use-before-def``
    A :class:`~repro.ir.expr.Variable` read with no enclosing
    ``For``/``Let``/``LetStmt`` binding and no published env key
    (``{name}.stride.{d}``, ``batch.size``) to resolve it at run time.
``ir.env-stride-zero``
    A ``{name}.stride.0`` variable — :func:`repro.runtime.plan.stride_env`
    publishes strides for dimensions ``d > 0`` only, so this key can
    never resolve.
``ir.undeclared-buffer``
    A ``Store`` into a buffer that is neither realized nor bound by an
    enclosing ``Allocate`` (loads from unknown names are treated as
    external inputs and allowed).
``ir.allocate-shadow``
    A nested ``Allocate`` reusing an in-scope allocation's name.
``ir.out-of-bounds``
    A ``Load``/``Store`` whose index interval (over loop ranges and let
    bindings) provably escapes the buffer's constant flat extent.
``ir.let-aliases-store``
    A ``LetStmt`` binding a bare (uncast) vector ``Load`` of a buffer
    its body stores to: the interpreter binds a snapshot, which a
    compiled kernel only matches by copying its view.  No lowering
    emits the shape.
``ir.type-mismatch``
    A ``Store`` whose value kind (int vs float) disagrees with the
    buffer's declared element type; a bits-only disagreement is a
    warning (stores round/cast, e.g. f32 values into bf16 buffers).
``ir.unencodable-type``
    An accelerator-scheduled buffer whose element type has no
    e-graph encoding head (:data:`repro.hardboiled.encode._TYPE_HEADS`)
    — instruction selection could never map it.
``ir.accumulator-access``
    *(tensorized phase only)* a plain ``Load``/``Store`` on a buffer
    with an accelerator memory type; after selection those buffers are
    only legal as intrinsic operands (the ``*2Mem`` movement path).

``phase`` selects which rules apply: ``"lowered"`` statements still
carry plain stores into accelerator-scheduled buffers (selection has
not run), so the accumulator rule is deferred to ``"tensorized"``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from ..ir import expr as E
from ..ir import stmt as S
from ..ir.analysis import contains
from ..ir.types import DataType, TypeCode
from .findings import ERROR, WARNING, Finding, raise_on_errors

_STRIDE_RE = re.compile(r"^(?P<buf>.+)\.stride\.(?P<dim>\d+)$")

#: element types the e-graph encoder has heads for (kept in sync with
#: repro.hardboiled.encode._TYPE_HEADS by test_analysis)
ENCODABLE_TYPES: Set[Tuple[TypeCode, int]] = {
    (TypeCode.FLOAT, 64),
    (TypeCode.FLOAT, 32),
    (TypeCode.FLOAT, 16),
    (TypeCode.BFLOAT, 16),
    (TypeCode.INT, 8),
    (TypeCode.INT, 16),
    (TypeCode.INT, 32),
    (TypeCode.INT, 64),
    (TypeCode.UINT, 8),
    (TypeCode.UINT, 1),
}

_INT_KINDS = (TypeCode.INT, TypeCode.UINT)

Interval = Optional[Tuple[int, int]]


def _add(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] + b[1])


def _sub(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    return (a[0] - b[1], a[1] - b[0])


def _mul(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _union(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    return (min(a[0], b[0]), max(a[1], b[1]))


class _BufferInfo:
    """What the verifier knows about one declared buffer."""

    __slots__ = ("size", "dtype", "memory_type")

    def __init__(
        self,
        size: Optional[int],
        dtype: Optional[DataType],
        memory_type: S.MemoryType,
    ) -> None:
        self.size = size
        self.dtype = dtype
        self.memory_type = memory_type


def _const_size(extents) -> Optional[int]:
    size = 1
    for extent in extents:
        if isinstance(extent, E.IntImm):
            size *= extent.value
        else:
            return None
    return size


class _Verifier:
    def __init__(
        self,
        realizations,
        phase: str,
        context: str,
        allowed_env: Set[str],
        unmapped: Set[str],
    ) -> None:
        self.phase = phase
        self.context = context
        self.allowed_env = allowed_env
        #: accelerator stores selection legitimately left unmapped
        #: (strict=False / shallow saturation) — still in plain form
        self.unmapped = unmapped
        self.findings: List[Finding] = []
        #: in-scope value bindings (loop vars, lets) -> interval
        self.ranges: Dict[str, Interval] = {}
        self.bound: Set[str] = set()
        #: declared buffers currently in scope
        self.buffers: Dict[str, _BufferInfo] = {}
        self.open_allocs: Set[str] = set()
        self.path: List[str] = []
        #: >0 while traversing an intrinsic Call's arguments, where
        #: accumulator loads are the legal operand form
        self.in_intrinsic = 0
        if realizations:
            for name, info in realizations.items():
                dtype = None
                func = getattr(info, "func", None)
                if func is not None:
                    try:
                        dtype = func.dtype.element_of()
                    except Exception:
                        dtype = None
                self.buffers[name] = _BufferInfo(
                    _const_size(info.extents), dtype, info.memory_type
                )

    # -- reporting -----------------------------------------------------------

    def report(
        self, check: str, severity: str, message: str, hint: str = ""
    ) -> None:
        where = "/".join(self.path) or "<root>"
        self.findings.append(
            Finding(check, severity, f"{self.context}:{where}", message, hint)
        )

    # -- interval evaluation -------------------------------------------------

    def interval(self, e: E.Expr) -> Interval:
        if isinstance(e, E.IntImm):
            return (e.value, e.value)
        if isinstance(e, E.Variable):
            return self.ranges.get(e.name)
        if isinstance(e, E.Cast):
            return self.interval(e.value)
        if isinstance(e, E.Broadcast):
            return self.interval(e.value)
        if isinstance(e, E.Ramp):
            base = self.interval(e.base)
            span = _mul(
                self.interval(e.stride), (e.count - 1, e.count - 1)
            )
            return _union(base, _add(base, span))
        if isinstance(e, E.Select):
            return _union(
                self.interval(e.true_value), self.interval(e.false_value)
            )
        if isinstance(e, E.Let):
            saved = self.ranges.get(e.name)
            self.ranges[e.name] = self.interval(e.value)
            try:
                return self.interval(e.body)
            finally:
                if saved is None:
                    self.ranges.pop(e.name, None)
                else:
                    self.ranges[e.name] = saved
        name = type(e).__name__
        if name == "Add":
            return _add(self.interval(e.a), self.interval(e.b))
        if name == "Sub":
            return _sub(self.interval(e.a), self.interval(e.b))
        if name == "Mul":
            return _mul(self.interval(e.a), self.interval(e.b))
        if name == "Min":
            a, b = self.interval(e.a), self.interval(e.b)
            if a is None or b is None:
                return None
            return (min(a[0], b[0]), min(a[1], b[1]))
        if name == "Max":
            a, b = self.interval(e.a), self.interval(e.b)
            if a is None or b is None:
                return None
            return (max(a[0], b[0]), max(a[1], b[1]))
        if name == "Div":
            a, b = self.interval(e.a), self.interval(e.b)
            if (
                a is not None
                and b is not None
                and b[0] == b[1]
                and b[0] > 0
                and a[0] >= 0
            ):
                return (a[0] // b[0], a[1] // b[0])
            return None
        if name == "Mod":
            b = self.interval(e.b)
            if b is not None and b[0] == b[1] and b[0] > 0:
                return (0, b[0] - 1)
            return None
        return None

    # -- variable / buffer access checks -------------------------------------

    def check_variable(self, e: E.Variable) -> None:
        name = e.name
        if name in self.bound:
            return
        match = _STRIDE_RE.match(name)
        if match:
            if int(match.group("dim")) == 0:
                self.report(
                    "ir.env-stride-zero",
                    ERROR,
                    f"variable {name!r} reads a stride the execution plan"
                    " never publishes (stride_env covers dimensions > 0)",
                    "flatten storage against dimension-0 stride 1, or"
                    " publish the key explicitly",
                )
            return
        if name in self.allowed_env:
            return
        self.report(
            "ir.use-before-def",
            ERROR,
            f"variable {name!r} read with no enclosing binding",
            "bind it with For/Let/LetStmt or publish it in the plan env",
        )

    def check_access(self, name: str, index: E.Expr, *, is_store: bool,
                     value: Optional[E.Expr] = None) -> None:
        info = self.buffers.get(name)
        if info is None:
            if is_store:
                self.report(
                    "ir.undeclared-buffer",
                    ERROR,
                    f"store into {name!r}, which is neither realized nor"
                    " allocated in an enclosing scope",
                    "allocate the buffer or realize it before storing",
                )
            return
        if (
            self.phase == "tensorized"
            and info.memory_type.is_accelerator()
            and name not in self.unmapped
        ):
            legal = (
                isinstance(value, E.Call)
                and value.call_type == E.CallType.INTRINSIC
                if is_store
                else self.in_intrinsic > 0
            )
            if not legal:
                kind = "store into" if is_store else "load from"
                self.report(
                    "ir.accumulator-access",
                    ERROR,
                    f"plain {kind} accelerator buffer {name!r}"
                    f" ({info.memory_type.name}) after instruction"
                    " selection; accumulator state is only legal as an"
                    " intrinsic operand (whole-tile fill/mma values and"
                    " the *2Mem movement path)",
                    "route the access through the tile intrinsics",
                )
        if info.size is not None:
            iv = self.interval(index)
            if iv is not None and (iv[0] < 0 or iv[1] >= info.size):
                kind = "store" if is_store else "load"
                self.report(
                    "ir.out-of-bounds",
                    ERROR,
                    f"{kind} index range [{iv[0]}, {iv[1]}] escapes"
                    f" {name!r} (flat extent {info.size})",
                    "fix the flattened index arithmetic or the declared"
                    " extents",
                )
        if is_store and value is not None and info.dtype is not None:
            have = value.type.element_of()
            want = info.dtype
            have_int = have.code in _INT_KINDS
            want_int = want.code in _INT_KINDS
            if have_int != want_int:
                self.report(
                    "ir.type-mismatch",
                    ERROR,
                    f"store of {have} value into {name!r} declared {want}"
                    " (int/float kind mismatch)",
                    "insert an explicit Cast at the store site",
                )
            elif (have.code, have.bits) != (want.code, want.bits):
                self.report(
                    "ir.type-mismatch",
                    WARNING,
                    f"store of {have} value into {name!r} declared {want}"
                    " (store-time rounding applies)",
                )

    def check_encodable(self, name: str, info: _BufferInfo) -> None:
        if not info.memory_type.is_accelerator() or info.dtype is None:
            return
        key = (info.dtype.code, info.dtype.bits)
        if key not in ENCODABLE_TYPES:
            self.report(
                "ir.unencodable-type",
                ERROR,
                f"accelerator buffer {name!r} has element type"
                f" {info.dtype} with no e-graph encoding head;"
                " instruction selection cannot map it",
                "schedule the buffer on host memory or use an encodable"
                " element type",
            )

    # -- traversal -----------------------------------------------------------

    def visit_expr(self, e: E.Expr) -> None:
        if isinstance(e, E.Variable):
            self.check_variable(e)
            return
        if isinstance(e, E.Load):
            self.check_access(e.name, e.index, is_store=False)
            self.visit_expr(e.index)
            return
        if isinstance(e, E.Let):
            self.visit_expr(e.value)
            saved = self.ranges.get(e.name)
            was_bound = e.name in self.bound
            self.ranges[e.name] = self.interval(e.value)
            self.bound.add(e.name)
            try:
                self.visit_expr(e.body)
            finally:
                if not was_bound:
                    self.bound.discard(e.name)
                if saved is None:
                    self.ranges.pop(e.name, None)
                else:
                    self.ranges[e.name] = saved
            return
        if (
            isinstance(e, E.Call)
            and e.call_type == E.CallType.INTRINSIC
        ):
            self.in_intrinsic += 1
            try:
                for arg in e.args:
                    self.visit_expr(arg)
            finally:
                self.in_intrinsic -= 1
            return
        for child in e.children():
            self.visit_expr(child)

    def visit_stmt(self, s: S.Stmt) -> None:
        if isinstance(s, S.Store):
            self.path.append(f"Store({s.name})")
            try:
                self.check_access(
                    s.name, s.index, is_store=True, value=s.value
                )
                self.visit_expr(s.index)
                self.visit_expr(s.value)
            finally:
                self.path.pop()
            return
        if isinstance(s, S.For):
            self.visit_expr(s.min_expr)
            self.visit_expr(s.extent)
            lo = self.interval(s.min_expr)
            extent = self.interval(s.extent)
            rng: Interval = None
            if lo is not None and extent is not None:
                rng = (lo[0], lo[1] + extent[1] - 1)
            saved = self.ranges.get(s.name)
            was_bound = s.name in self.bound
            self.ranges[s.name] = rng
            self.bound.add(s.name)
            self.path.append(f"For({s.name})")
            try:
                self.visit_stmt(s.body)
            finally:
                self.path.pop()
                if not was_bound:
                    self.bound.discard(s.name)
                if saved is None:
                    self.ranges.pop(s.name, None)
                else:
                    self.ranges[s.name] = saved
            return
        if isinstance(s, S.LetStmt):
            self.visit_expr(s.value)
            value = s.value
            if (
                isinstance(value, E.Load)
                and value.type.lanes > 1
                and contains(
                    s.body,
                    lambda n: isinstance(n, S.Store)
                    and n.name == value.name,
                )
            ):
                self.report(
                    "ir.let-aliases-store",
                    ERROR,
                    f"let {s.name!r} binds a bare vector load of"
                    f" {value.name!r}, which its body stores to (a"
                    " snapshot the compiled view must copy)",
                    "bind a computed value (e.g. a Cast of the load)",
                )
            saved = self.ranges.get(s.name)
            was_bound = s.name in self.bound
            self.ranges[s.name] = self.interval(s.value)
            self.bound.add(s.name)
            self.path.append(f"Let({s.name})")
            try:
                self.visit_stmt(s.body)
            finally:
                self.path.pop()
                if not was_bound:
                    self.bound.discard(s.name)
                if saved is None:
                    self.ranges.pop(s.name, None)
                else:
                    self.ranges[s.name] = saved
            return
        if isinstance(s, S.Allocate):
            for extent in s.extents:
                self.visit_expr(extent)
            shadowed = self.buffers.get(s.name)
            if s.name in self.open_allocs:
                self.report(
                    "ir.allocate-shadow",
                    WARNING,
                    f"Allocate({s.name!r}) shadows an enclosing allocation"
                    " of the same name",
                    "rename the inner buffer",
                )
            info = _BufferInfo(
                _const_size(s.extents),
                s.dtype.element_of(),
                s.memory_type,
            )
            self.check_encodable(s.name, info)
            self.buffers[s.name] = info
            was_open = s.name in self.open_allocs
            self.open_allocs.add(s.name)
            self.path.append(f"Allocate({s.name})")
            try:
                self.visit_stmt(s.body)
            finally:
                self.path.pop()
                if not was_open:
                    self.open_allocs.discard(s.name)
                if shadowed is None:
                    self.buffers.pop(s.name, None)
                else:
                    self.buffers[s.name] = shadowed
            return
        if isinstance(s, S.IfThenElse):
            self.visit_expr(s.condition)
            self.visit_stmt(s.then_case)
            if s.else_case is not None:
                self.visit_stmt(s.else_case)
            return
        for child in s.children():
            if isinstance(child, E.Expr):
                self.visit_expr(child)
            else:
                self.visit_stmt(child)

    def run(self, stmt: S.Stmt) -> List[Finding]:
        for name, info in self.buffers.items():
            self.check_encodable(name, info)
        self.visit_stmt(stmt)
        return self.findings


def verify_ir(
    stmt: S.Stmt,
    realizations=None,
    *,
    phase: str = "lowered",
    context: str = "stmt",
    allowed_env: Optional[Set[str]] = None,
    unmapped: Optional[Set[str]] = None,
) -> List[Finding]:
    """Verify one statement; returns findings (empty = well-formed).

    ``realizations`` is the ``Lowered.realizations`` dict (optional —
    without it, buffer declarations come only from ``Allocate`` nodes
    and stores into unknown names are reported).  ``phase`` is
    ``"lowered"`` or ``"tensorized"``; the accumulator-access rule only
    applies after instruction selection.  ``unmapped`` names
    accelerator stores a non-strict selection left in plain form — they
    are exempt from the accumulator rule (the interpreter fallback
    executes them), not from bounds/type/scope checks.
    """
    if phase not in ("lowered", "tensorized"):
        raise ValueError(f"unknown phase {phase!r}")
    env = {"batch.size"}
    if allowed_env:
        env |= set(allowed_env)
    verifier = _Verifier(
        realizations, phase, context, env, set(unmapped or ())
    )
    return verifier.run(stmt)


def check_ir(
    stmt: S.Stmt,
    realizations=None,
    *,
    phase: str = "lowered",
    context: str = "stmt",
    allowed_env: Optional[Set[str]] = None,
    unmapped: Optional[Set[str]] = None,
) -> List[Finding]:
    """Gate form of :func:`verify_ir`: raise on error-severity findings."""
    findings = verify_ir(
        stmt,
        realizations,
        phase=phase,
        context=context,
        allowed_env=allowed_env,
        unmapped=unmapped,
    )
    return raise_on_errors(f"verify_ir[{phase}] {context}", findings)
