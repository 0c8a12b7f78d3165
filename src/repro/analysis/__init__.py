"""Static verification: catch whole defect classes before anything runs.

Four analyzers over four layers of the stack, one diagnostic currency
(:class:`Finding`), one CLI (``python -m repro.analysis``):

================  =====================================================
analyzer          defect classes
================  =====================================================
:mod:`.verify_ir`        use-before-def, out-of-bounds indices, scope
                         and type violations, illegal accumulator
                         access in lowered/tensorized IR
:mod:`.lint_rules`       unbound RHS variables, impure guards, wrong
                         delta-safety classification, shadowed/dead
                         rewrite rules
:mod:`.lint_kernels`     arena take/give leaks, nondeterminism, and
                         unpublished env keys in emitted kernel source;
                         hash-order dependence in the ``eqsat`` engine
:mod:`.lint_concurrency` guarded-by discipline violations in the
                         serving/runtime locking
================  =====================================================

Gates: ``lower(..., verify=True)``, ``select_instructions(...,
verify=True)``, and the warm-start artifact restore
(:func:`repro.service.compile.warm_select`, default **on**) all call
:func:`check_ir`; a stale or corrupt artifact therefore fails
verification and recompiles cold instead of poisoning the serving
process.
"""

from .findings import (
    ERROR,
    WARNING,
    AnalysisError,
    Finding,
    apply_waivers,
    errors,
    format_findings,
    parse_waivers,
    raise_on_errors,
    warnings,
)
from .lint_concurrency import (
    DEFAULT_MODULES,
    lint_concurrency,
    lint_file,
    lint_source,
)
from .lint_kernels import lint_kernel, lint_kernel_source, lint_order
from .lint_rules import lint_family, lint_rule, lint_rules
from .sweep import FIG6_APPS, QUICK_APPS, analyze_app, sweep
from .verify_ir import check_ir, verify_ir

__all__ = [
    "ERROR",
    "WARNING",
    "AnalysisError",
    "Finding",
    "apply_waivers",
    "errors",
    "format_findings",
    "parse_waivers",
    "raise_on_errors",
    "verify_ir",
    "check_ir",
    "lint_rules",
    "lint_rule",
    "lint_family",
    "lint_kernel",
    "lint_kernel_source",
    "lint_order",
    "lint_concurrency",
    "lint_file",
    "lint_source",
    "DEFAULT_MODULES",
    "analyze_app",
    "sweep",
    "QUICK_APPS",
    "FIG6_APPS",
]
