"""Warm-start compilation: skip saturation *and* codegen on a hit.

The cold path (what every process used to pay) is::

    lower() -> select_instructions() -> compile_stmt() -> run

``select_instructions`` runs equality saturation per accelerator store
and dominates compile time; ``compile_stmt`` emits the NumPy kernel.
The warm path keys the *pre-selection* lowered statement (plus rule-set
fingerprint, backend, and device — see :mod:`.fingerprint`) into an
:class:`~.store.ArtifactStore` and, on a hit, restores the tensorized
statement and the ready-to-exec kernel directly::

    lower() -> [artifact hit] -> run

Misses fall through to the real compiler and persist what it produced,
so the first process to compile a pipeline warms every later one.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..hardboiled import SelectionError, SelectionReport, select_instructions
from ..lowering.pipeline import Lowered
from ..runtime.codegen import (
    CodegenError,
    CompiledKernel,
    compile_stmt,
    deserialize_kernel,
    serialize_kernel,
)
from ..runtime.executor import CompiledPipeline, KernelCache, _check_backend
from ..runtime.kernel_cache import fingerprint_stmt
from .fingerprint import ArtifactKey
from .store import PICKLE_LOAD_ERRORS, ArtifactStore, CompileArtifact


@dataclass
class WarmCompileResult:
    """Outcome of one warm-start compile."""

    #: the tensorized (post-selection) pipeline
    lowered: Lowered
    #: selection report; ``artifact_cache`` is ``"hit"`` or ``"miss"``
    report: SelectionReport
    #: re-hydrated (hit) or freshly compiled (miss) kernel; None for
    #: the interpret backend and for interpreter-fallback statements
    kernel: Optional[CompiledKernel]
    #: the key the artifact was looked up / stored under
    key: ArtifactKey

    @property
    def hit(self) -> bool:
        return self.report.artifact_cache == "hit"


def _strict_check(report: SelectionReport) -> None:
    if not report.all_mapped:
        failed = [
            row["name"] for row in report.store_rows() if not row["mapped"]
        ]
        raise SelectionError(
            "instruction selection failed for accelerator-scheduled"
            f" stores into {failed} — no lowering rule matched"
        )


def warm_select(
    lowered: Lowered,
    store: ArtifactStore,
    *,
    backend: str = "interpret",
    device: object = "host",
    iterations: int = 14,
    strict: bool = True,
    verify: bool = True,
) -> WarmCompileResult:
    """Instruction selection through the artifact store.

    On a hit the saturation and codegen stages are skipped entirely;
    on a miss they run and the result is persisted (atomically) so the
    next process hits.  ``strict`` behaves exactly as in
    :func:`repro.hardboiled.select_instructions` — a restored artifact
    whose recorded selection left stores unmapped raises
    :class:`SelectionError` just as the live compiler would.

    ``verify`` (default **on**) runs the static IR verifier
    (:mod:`repro.analysis`) over the restored tensorized statement.  A
    stale or corrupt artifact — one whose statement no longer passes
    well-formedness — is demoted to a miss and recompiled cold instead
    of being handed to the user's kernel; verification costs
    milliseconds against a multi-second cold compile (asserted by
    ``tests/test_analysis.py``).
    """
    backend = _check_backend(backend)
    key = ArtifactKey.for_lowered(
        lowered, backend=backend, device=device, iterations=iterations
    )
    start = time.perf_counter()
    artifact = store.get(key)
    if artifact is not None and artifact.kernel is not None:
        try:
            kernel = deserialize_kernel(artifact.kernel)
        except (CodegenError, *PICKLE_LOAD_ERRORS):
            # format drift or a torn/bit-rotted payload the pickle layer
            # could not catch: the whole artifact is stale — demote the
            # lookup to a miss and recompile cold (overwriting it)
            # rather than crashing warm starts
            store.demote_hit(key)
            artifact = None
            kernel = None
    else:
        kernel = None
    if artifact is not None and verify:
        from ..analysis import errors, verify_ir

        findings = verify_ir(
            artifact.stmt,
            lowered.realizations,
            phase="tensorized",
            context=f"artifact:{key.digest[:12]}",
            unmapped={
                row["name"]
                for row in artifact.store_rows
                if not row.get("mapped")
            },
        )
        if errors(findings):
            # the restored statement fails static verification — same
            # treatment as a torn payload: demote and recompile cold
            store.demote_hit(key)
            artifact = None
            kernel = None
    if artifact is not None:
        restore_seconds = time.perf_counter() - start
        tensorized = dataclasses.replace(lowered, stmt=artifact.stmt)
        tensorized.pass_seconds = dict(lowered.pass_seconds)
        tensorized.pass_seconds["artifact_restore"] = restore_seconds
        report = SelectionReport(
            artifact_cache="hit",
            artifact_key=key.digest,
            restore_seconds=restore_seconds,
            restored_stores=[dict(r) for r in artifact.store_rows],
        )
        if strict:
            _strict_check(report)
        return WarmCompileResult(tensorized, report, kernel, key)

    # -- miss: run the real compiler, then persist its output ----------------
    tensorized, report = select_instructions(
        lowered, iterations=iterations, strict=strict, verify=verify
    )
    kernel = None
    kernel_payload = None
    if backend == "compile":
        kernel = compile_stmt(
            tensorized.stmt, key=fingerprint_stmt(tensorized.stmt)
        )
        kernel_payload = serialize_kernel(kernel)
    cold_seconds = time.perf_counter() - start
    report.artifact_cache = "miss"
    report.artifact_key = key.digest
    store.try_put(
        key,
        CompileArtifact(
            key_digest=key.digest,
            key=key,
            stmt=tensorized.stmt,
            store_rows=report.store_rows(),
            kernel=kernel_payload,
            cold_eqsat_seconds=report.eqsat_seconds,
            cold_seconds=cold_seconds,
        ),
    )
    return WarmCompileResult(tensorized, report, kernel, key)


def compile_lowered(
    lowered: Lowered,
    store: ArtifactStore,
    *,
    backend: str = "interpret",
    device: object = "host",
    iterations: int = 14,
    strict: bool = True,
    verify: bool = True,
    kernel_cache: Optional[KernelCache] = None,
) -> Tuple[CompiledPipeline, SelectionReport]:
    """Warm-start a lowered pipeline into a ready :class:`CompiledPipeline`.

    The returned pipeline's kernel cache is pre-seeded with the restored
    (or just-compiled) kernel, so its first ``run`` on the compiled
    backend executes immediately — no saturation, no codegen.
    ``verify`` gates restored artifacts through the static IR verifier
    (see :func:`warm_select`).
    """
    result = warm_select(
        lowered,
        store,
        backend=backend,
        device=device,
        iterations=iterations,
        strict=strict,
        verify=verify,
    )
    pipeline = CompiledPipeline(
        result.lowered, backend=backend, kernel_cache=kernel_cache
    )
    # batch-axis kernel variants compiled by this pipeline persist into
    # (and restore from) the same store, so a warm process skips their
    # codegen too — see CompiledPipeline.kernel
    pipeline.artifact_store = store
    if result.kernel is not None:
        pipeline.seed_kernel(result.kernel)
    return pipeline, result.report


def warm_compile(
    lowered: Lowered,
    cache_dir: str,
    *,
    backend: str = "interpret",
    device: object = "host",
    iterations: int = 14,
    strict: bool = True,
    verify: bool = True,
) -> Tuple[CompiledPipeline, SelectionReport]:
    """:func:`compile_lowered` with the store opened from a directory.

    The single entry point every ``cache_dir=`` parameter in the
    codebase routes through (``App.compile``, ``compile_tensorized``,
    the self-compiling apps), so warm-path defaults live in one place —
    including the default-on static verification of restored artifacts.
    """
    return compile_lowered(
        lowered,
        ArtifactStore(cache_dir),
        backend=backend,
        device=device,
        iterations=iterations,
        strict=strict,
        verify=verify,
    )
