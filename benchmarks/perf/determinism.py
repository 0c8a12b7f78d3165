"""``--check-determinism``: counts made by the program must repeat
exactly — twice in one process and once in a fresh one — before they
are published as counts."""

from __future__ import annotations

import shutil
import tempfile
from typing import Dict, List, Tuple

from repro.service import ArtifactStore

from .bench import cold_probe
from .catalog import WORKLOADS
from .compile_phases import (
    lowering_values,
    selection_values,
    store_bytes,
    store_pass,
)
from .phase import PhaseResult, add
from .exec_phase import modelled_speedups
from .metrics import COUNT_METRICS
from .spans import NullRecorder
from .stats import geomean


def count_metrics(name: str, workdir: str) -> Tuple[Dict[str, float], List[str]]:
    """Every count metric of one workload, from one catalog compile
    through a fresh store plus the perf-model pairs."""
    workload = WORKLOADS[name]
    result = PhaseResult()
    values: Dict[str, float] = {}
    root = tempfile.mkdtemp(prefix="counts-", dir=workdir)
    try:
        _, _, compiled, cache = store_pass(
            workload, ArtifactStore(root), "miss", NullRecorder(), 0, result
        )
        values["store.artifact_bytes"] = store_bytes(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for entry in compiled:
        selection_values(entry.report, values)
        lowering_values(entry.lowered, values)
        pipeline = entry.pipeline
        kernel = cache.get(pipeline.lowered, key=pipeline.cache_key)
        add(values, "codegen.source_bytes", len(kernel.source or ""))
    speedups, counters = modelled_speedups(workload, result)
    values["interpreter.tensor_macs"] = counters["tensor_macs"]
    values["interpreter.bytes_moved"] = counters["bytes_moved"]
    values["modeled_speedup_geomean"] = geomean(speedups.values())
    for pair, speedup in speedups.items():
        values[f"perfmodel.speedup.{pair}"] = speedup
    return {m: values.get(m, 0.0) for m in COUNT_METRICS}, result.failures


def check(names, workdir: str) -> dict:
    """``{workload: {"counts", "unstable_counts", "failures"}}``; an
    unstable count is listed, not published."""
    report = {}
    for name in names:
        first, failures = count_metrics(name, workdir)
        second, _ = count_metrics(name, workdir)
        third = cold_probe(name, counts=True)["counts"]
        unstable = sorted(
            m for m in COUNT_METRICS
            if not first[m] == second[m] == third.get(m)
        )
        report[name] = {
            "counts": {m: v for m, v in first.items() if m not in unstable},
            "unstable_counts": {
                m: [first[m], second[m], third.get(m)] for m in unstable
            },
            "failures": failures,
        }
    return report
