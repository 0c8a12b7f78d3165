"""Whole-pipeline analysis sweeps: verify and lint real applications.

``analyze_app`` runs one fig-6 application through the full static
pipeline — lower, verify the lowered IR, saturate every accelerator
store and check its e-graph's invariants, select instructions (tensor
variant), verify the tensorized IR, compile the scalar kernel and lint
its source against the plan's published env, then attempt the
batch-axis kernels (every buffer stacked; as served) and lint those.
``sweep`` fans it over an app list; the clean-run self-test is built
on it.  The CLI walks the same
table through ``_analyze``, which also hands back each scalar and
batched kernel, and prints their ``CompiledKernel.loops`` and ``.macs``
reports next to the findings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .findings import ERROR, Finding
from .lint_kernels import lint_kernel
from .verify_ir import verify_ir

#: (module name, params) — small instances for the CLI's quick gate
QUICK_APPS: Sequence[Tuple[str, Dict]] = (
    ("conv1d", {"taps": 8, "rows": 1}),
    ("matmul", {"n": 32}),
)

#: the fig-6 suite at the test sizes used across the repo's test suite
FIG6_APPS: Sequence[Tuple[str, Dict]] = (
    ("conv1d", {"taps": 16, "rows": 1}),
    ("conv2d", {"taps": 16, "width": 512, "rows": 4}),
    ("downsample", {"taps": 16, "width": 256, "rows": 4}),
    ("upsample", {"width": 256, "rows": 2}),
    ("matmul", {"n": 64}),
    ("conv_layer", {"rows": 2}),
    ("attention", {"length": 128}),
)

VARIANTS = ("cuda", "tensor")

#: the benchmark catalog's kernels outside the fig-6 suite, whose rows
#: ``--fig6`` prints (and the golden file pins) too: ``(label, module,
#: builder, variant or None, params)``
PINNED_KERNELS: Sequence[Tuple[str, str, str, Optional[str], Dict]] = (
    ("resample.build_pass[tensor]", "resample", "build_pass", "tensor",
     {"in_size": 256, "out_size": 57, "columns": 32}),
    ("matmul.build_amx", "matmul", "build_amx", None, {}),
    ("matmul.build_amx[vnni]", "matmul", "build_amx", None,
     {"layout": "vnni"}),
    ("matmul.build_int8", "matmul", "build_int8", None, {"tiles": 2}),
    ("conv_layer.build_int8", "conv_layer", "build_int8", None,
     {"width": 16, "rows": 1}),
)


def analyze_app(
    module_name: str,
    params: Optional[Dict] = None,
    variant: str = "tensor",
) -> List[Finding]:
    """Run every applicable analyzer over one application."""
    return _analyze(module_name, params, variant)[0]


def _analyze(module_name, params, variant, builder="build", label=""):
    """:func:`analyze_app`, plus the label, scalar and batched kernels;
    ``builder`` names the app's build function (a ``None`` variant is
    not passed: AMX and DP4A builders take none)."""
    import importlib

    from ..hardboiled import TileExtractor, select_instructions
    from ..lowering import lower
    from ..runtime.buffer import Buffer
    from ..runtime.codegen import (
        CodegenError,
        compile_batched_stmt,
        compile_stmt,
    )
    from ..runtime.kernel_cache import fingerprint_stmt
    from ..runtime.plan import bind_inputs, stride_env

    module = importlib.import_module(f"repro.apps.{module_name}")
    variants = () if variant is None else (variant,)
    app = getattr(module, builder)(*variants, **(params or {}))
    label = label or f"{module_name}[{variant}]"
    findings: List[Finding] = []

    lowered = lower(app.output)
    findings.extend(
        verify_ir(
            lowered.stmt,
            lowered.realizations,
            phase="lowered",
            context=label,
        )
    )
    if variant != "cuda":
        # every store's saturated e-graph must come out sound
        extractor = TileExtractor(lowered)
        for kind, store in extractor.prepared_stores():
            egraph, _, _ = extractor.saturate(kind, store)
            findings.extend(
                Finding(
                    "eqsat.invariant",
                    ERROR,
                    f"{label}/{store.name}",
                    problem,
                    "EGraph.rebuild left the e-graph inconsistent",
                )
                for problem in egraph.check_invariants()
            )
        lowered, _ = select_instructions(lowered, strict=True)
        findings.extend(
            verify_ir(
                lowered.stmt,
                lowered.realizations,
                phase="tensorized",
                context=label,
            )
        )

    # published env keys for the exact buffers a run would bind
    buffers, _ = bind_inputs(app.inputs)
    output = app.output
    info = lowered.realizations[output.name]
    from ..ir import as_int

    buffers[output.name] = Buffer(
        output.name,
        output.dtype.element_of(),
        tuple(as_int(e) for e in info.extents),
        is_external=True,
    )
    published = set(stride_env(buffers))

    kernel = compile_stmt(
        lowered.stmt, key=fingerprint_stmt(lowered.stmt)
    )
    findings.extend(
        lint_kernel(
            kernel, published_env=published, context=f"{label}/kernel"
        )
    )

    # every buffer stacked, then as served (the kernel handed back):
    # the first input per request, the weights shared
    served = frozenset((next(iter(buffers)), output.name))
    for stacked in (frozenset(buffers), served):
        try:
            batched = compile_batched_stmt(lowered.stmt, stacked)
        except CodegenError:
            batched = None  # unbatchable split: the looped path serves it
            continue
        findings.extend(lint_kernel(
            batched, published_env=published, batched=True,
            context=f"{label}/bkernel",
        ))
    return findings, label, kernel, batched


def sweep(
    apps: Sequence[Tuple[str, Dict]] = QUICK_APPS,
    variants: Sequence[str] = VARIANTS,
) -> List[Finding]:
    """Analyze every (app, variant) combination; returns all findings."""
    findings: List[Finding] = []
    for module_name, params in apps:
        for variant in variants:
            findings.extend(analyze_app(module_name, params, variant))
    return findings
