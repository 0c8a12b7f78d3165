"""Warm-start compile service: cold vs. warm over the fig-6 workloads.

Cold (what every process used to pay): lower, equality-saturate every
accelerator store, extract, and run NumPy codegen.  Warm (this PR): the
same ``compile_lowered`` call finds the artifact a previous compile
persisted — keyed on the pre-selection statement fingerprint, the
rule-set fingerprint, backend, and device — and restores the tensorized
statement plus the ready-to-exec kernel, skipping saturation *and*
codegen entirely.

Asserted: every cold compile misses and every warm one hits, every
workload's pipeline output is bit-identical cold vs. warm on *both*
execution backends, and the parallel ``BatchCompiler`` misses on its
first batch and hits on its second.  The per-workload compile times are
printed, not asserted: warm-start speed is tracked end to end by
``benchmarks/perf`` (``warm_miss_catalog_ms`` / ``warm_hit_catalog_ms``).

Run directly::

    python -m benchmarks.bench_warm_start           # the fig-6 sweep
    python -m benchmarks.bench_warm_start --smoke   # small sizes (CI)
"""

from __future__ import annotations

import argparse
import tempfile
import time

import numpy as np

from repro.apps import conv1d
from repro.lowering import lower
from repro.service import (
    ArtifactStore,
    BatchCompiler,
    CompileJob,
    compile_lowered,
    ruleset_fingerprint,
)

from .harness import artifact_row, print_artifact_report, print_header

#: the fig-6 compile-time sweep (bench_fig6_compile_time.KERNEL_SIZES)
KERNEL_SIZES = [8, 32, 56, 96, 160, 256]
SMOKE_SIZES = [8, 16]


def compile_suite(sizes, store, expect):
    """Compile every workload through ``store``; returns per-workload
    ``(seconds, report, {backend: output})`` and asserts each compile
    took the ``expect`` ("hit"/"miss") path."""
    results = {}
    for taps in sizes:
        app = conv1d.build("tensor", taps=taps, rows=1)
        lowered = lower(app.output)
        start = time.perf_counter()
        pipeline, report = compile_lowered(
            lowered, store, backend="compile", strict=True
        )
        seconds = time.perf_counter() - start
        assert report.artifact_cache == expect, (
            f"taps={taps}: expected artifact-cache {expect},"
            f" got {report.artifact_cache}"
        )
        assert report.all_mapped
        outputs = {
            backend: pipeline.run(app.inputs, backend=backend)
            for backend in ("compile", "interpret")
        }
        results[taps] = (seconds, report, outputs)
    return results


def race(sizes):
    """One cold sweep then one warm sweep over a fresh store."""
    # one-time per-process key ingredient, paid before either sweep so
    # neither side is billed for it (a real serving process pays it
    # once, then amortizes it over every pipeline it compiles)
    ruleset_fingerprint()
    with tempfile.TemporaryDirectory(prefix="repro-warm-start-") as root:
        cold_store = ArtifactStore(root)
        cold = compile_suite(sizes, cold_store, expect="miss")
        # a fresh ArtifactStore over the same directory stands in for a
        # fresh process: no in-memory state survives except the
        # process-wide rule/kernel caches, which the warm path never
        # consults anyway (it restores instead of compiling)
        warm_store = ArtifactStore(root)
        warm = compile_suite(sizes, warm_store, expect="hit")

        rows = []
        for taps in sizes:
            cold_s, cold_report, cold_out = cold[taps]
            warm_s, warm_report, warm_out = warm[taps]
            for backend in ("compile", "interpret"):
                assert np.array_equal(
                    cold_out[backend], warm_out[backend]
                ), f"taps={taps}: {backend} outputs differ cold vs. warm"
            rows.append(artifact_row(f"conv1d k={taps} cold", cold_report, cold_s))
            rows.append(artifact_row(f"conv1d k={taps} warm", warm_report, warm_s))
        return rows, warm_store


def batch_race(sizes, max_workers=4):
    """The parallel batch driver: first batch misses, second batch hits."""
    jobs = [
        CompileJob.make("conv1d", taps=taps, rows=1) for taps in sizes
    ]
    with tempfile.TemporaryDirectory(prefix="repro-batch-") as root:
        compiler = BatchCompiler(root, max_workers=max_workers)
        first = compiler.compile_many(jobs)
        second = compiler.compile_many(jobs)
    for result in first.results + second.results:
        assert result.ok, f"{result.job.label}: {result.error}"
        assert result.all_mapped
    assert first.misses == len(jobs), first.summary()
    assert second.hits == len(jobs), second.summary()
    return first, second


def report(rows, store, first, second) -> None:
    print_header(
        "Warm-start compile service — cold vs. warm over the fig-6"
        " conv1d suite (end-to-end compile wall-clock)"
    )
    print_artifact_report(rows, store)
    print()
    print("parallel batch driver (worker processes, shared store):")
    for label, batch in (("first batch", first), ("second batch", second)):
        s = batch.summary()
        print(
            f"  {label}: {s['jobs']} jobs, {s['misses']} misses,"
            f" {s['hits']} hits, wall {s['wall_seconds'] * 1e3:.1f} ms"
            f" (worker-side {s['worker_seconds'] * 1e3:.1f} ms)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the same checks on small workloads (CI-safe)",
    )
    args = parser.parse_args()
    sizes, max_workers = (
        (SMOKE_SIZES, 2) if args.smoke else (KERNEL_SIZES, 4)
    )
    rows, store = race(sizes)
    first, second = batch_race(sizes, max_workers=max_workers)
    report(rows, store, first, second)
    print("warm start ok: cold and warm outputs bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
