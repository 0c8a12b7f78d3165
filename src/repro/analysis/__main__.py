"""CLI: ``python -m repro.analysis [--all | sections...]``.

Sections:

* ``rules`` — soundness lint over every registered rewrite family, and
  the hash-order lint over the ``repro.eqsat`` engine that runs them
* ``concurrency`` — guarded-by discipline in the serving/runtime modules
* ``ir`` / ``kernels`` — compile the analysis app set and verify the
  lowered + tensorized IR and the emitted (scalar and batched) kernels

``--all`` (also the default with no sections) runs everything.
``--fig6`` widens the app set from the quick pair to the full fig-6
suite.  The ``kernels`` section first prints the intrinsic registry
(name, accelerator, role, purity — the cores a kernel may call), then
each kernel's loop report (a batched one's as ``<app>[<v>]/batched``):
which data-parallel loops run as one lane-vectorised pass, and why the
others stayed Python loops; and one row per MAC call site: whether each
of A and B is ``widened once per call`` (an input the kernel only
reads), reaches the core ``narrow`` (the buffer's own float16 / int8
elements), or why it is widened first.  Exit status is 1 when any
error-severity finding survives, 0 otherwise (warnings never fail the
gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .findings import Finding, errors, format_findings, warnings
from .lint_concurrency import lint_concurrency
from .lint_kernels import lint_order, registry_rows
from .lint_rules import lint_rules
from .sweep import FIG6_APPS, QUICK_APPS, VARIANTS, _analyze


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static verification over the compile/serve stack",
    )
    parser.add_argument(
        "sections",
        nargs="*",
        metavar="section",
        help="rules | concurrency | ir | kernels (default: all)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every analyzer"
    )
    parser.add_argument(
        "--fig6",
        action="store_true",
        help="verify the full fig-6 app suite (slower) instead of the"
        " quick pair",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    args = parser.parse_args(argv)

    valid = {"rules", "concurrency", "ir", "kernels"}
    sections = set(args.sections)
    unknown = sections - valid
    if unknown:
        parser.error(f"unknown section(s) {sorted(unknown)}")
    if args.all or not sections:
        sections = {"rules", "concurrency", "ir", "kernels"}

    findings: List[Finding] = []
    loops: List[tuple] = []
    macs: List[tuple] = []
    if "rules" in sections:
        findings.extend(lint_rules())
        findings.extend(lint_order())
    if "concurrency" in sections:
        findings.extend(lint_concurrency())
    if sections & {"ir", "kernels"}:
        # one sweep covers both: verify_ir on the lowered/tensorized
        # statements and the kernel lint on their emitted source
        for name, params in FIG6_APPS if args.fig6 else QUICK_APPS:
            for variant in VARIANTS:
                found, label, *kernels = _analyze(name, params, variant)
                findings.extend(found)
                for tag, kernel in zip(("", "/batched"), kernels):
                    if kernel is not None:
                        loops.extend((label + tag,) + r for r in kernel.loops)
                        macs.extend((label + tag,) + r for r in kernel.macs)

    if args.json:
        print(
            json.dumps(
                [f.__dict__ for f in findings], indent=2, sort_keys=True
            )
        )
    else:
        if findings:
            print(format_findings(findings))
        if "kernels" in sections:
            for isa, name, role, pure in registry_rows():
                print(
                    f"intrinsic {name}: {isa} {role},"
                    f" {'pure' if pure else 'mutates its buffer'}"
                )
            for label, var, extent, status in loops:
                print(f"loop {label}: {var} x{extent}: {status}")
            for label, intrinsic, a, b in macs:
                print(f"mac {label}: {intrinsic}: A {a}, B {b}")

    n_errors = len(errors(findings))
    n_warnings = len(warnings(findings))
    print(
        f"repro.analysis: {len(sections)} section(s),"
        f" {n_errors} error(s), {n_warnings} warning(s)"
    )
    return 1 if n_errors else 0


if __name__ == "__main__":
    sys.exit(main())
