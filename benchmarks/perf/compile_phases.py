"""``compile_cold`` and ``compile_warm``: the Fig. 6 question.

Cold: ``build -> lower -> select_instructions(strict) -> compile_stmt``
per program, fresh ``KernelCache``, no store.  Warm: the same catalog
through ``service.compile_lowered`` into a fresh ``ArtifactStore``
(miss pass) and again through a new store object on the same directory
(hit pass), so the store is written and read by the same round.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
from functools import lru_cache
from typing import Dict, List, NamedTuple

import numpy as np

from repro.analysis import verify_ir
from repro.eqsat import EGraph, extract_best, run_phased
from repro.hardboiled import (
    Encoder,
    TileExtractor,
    amx_rules,
    axiomatic_rules,
    dp4a_rules,
    hardboiled_cost_model,
    select_instructions,
    supporting_rules,
    wmma_rules,
)
from repro.ir.analysis import collect_stores
from repro.ir.visitor import count_nodes
from repro.lowering import lower
from repro.runtime.codegen import deserialize_kernel
from repro.runtime.kernel_cache import KernelCache, fingerprint_stmt
from repro.service import ArtifactKey, ArtifactStore, compile_lowered

from .catalog import Program, Workload
from .phase import PERF, Phase, PhaseResult, add, keep_max
from .stats import low, median, share

@lru_cache(maxsize=None)
def _rules_for(kind: str):
    """(main, supporting) rule tuples for the per-store probes, built
    once so each rule's compiled query is reused like the selector's."""
    app_rules = {"amx": amx_rules, "wmma": wmma_rules, "dp4a": dp4a_rules}
    return (
        tuple(axiomatic_rules()[0]) + tuple(app_rules[kind]()[0]),
        tuple(supporting_rules()[0]),
    )


def probe_stores(lowered, rec) -> None:
    """Encode / saturate / extract each accelerator store once more,
    from outside, to time the two steps ``SelectionReport`` does not
    split out (``probe.encode``, ``probe.extract``).  Probe spans repeat
    work the selector already did, so they hang under their own
    ``select.probe`` span, outside the compile's timed span."""
    extractor = TileExtractor(lowered)
    with rec.span("select.probe"):
        for store in collect_stores(lowered.stmt):
            prepared = extractor.prepare_store(store)
            if prepared is None:
                continue
            kind, wrapped = prepared
            egraph = EGraph()
            with rec.span("probe.encode"):
                root = Encoder(egraph).stmt(wrapped)
            with rec.span("probe.saturate"):
                run_phased(egraph, *_rules_for(kind), iterations=14)
            with rec.span("probe.extract"):
                extract_best(egraph, root, hardboiled_cost_model())


def selection_values(report, values: Dict[str, float]) -> None:
    """Counts and timings a live ``SelectionReport`` already carries."""
    profile = report.eqsat_profile
    add(values, "eqsat.saturate_ms", profile.get("total_s", 0.0) * 1e3)
    add(values, "eqsat.match_ms", profile.get("match_s", 0.0) * 1e3)
    add(values, "eqsat.apply_ms", profile.get("apply_s", 0.0) * 1e3)
    add(values, "eqsat.rebuild_ms", profile.get("rebuild_s", 0.0) * 1e3)
    add(values, "eqsat.matches", profile.get("matches", 0))
    add(values, "eqsat.delta_rounds", profile.get("delta_rounds", 0))
    add(values, "eqsat.full_rounds", profile.get("full_rounds", 0))
    add(
        values,
        "hardboiled.decode_postprocess_ms",
        (report.total_seconds - report.eqsat_seconds) * 1e3,
    )
    add(values, "hardboiled.stores", report.num_stores)
    add(values, "hardboiled.mapped", report.num_mapped)
    for selection in report.selections:
        keep_max(values, "eqsat.enodes_max", selection.egraph_nodes)
        keep_max(values, "eqsat.eclasses_max", selection.egraph_classes)


def lowering_values(lowered, values: Dict[str, float]) -> None:
    for name in ("build", "flatten", "vectorize", "simplify"):
        add(
            values,
            f"lowering.pass_{name}_ms",
            lowered.pass_seconds.get(name, 0.0) * 1e3,
        )
    add(values, "lowering.stmt_nodes", count_nodes(lowered.stmt))


def compile_program(program: Program, cache: KernelCache, rec, shared):
    """One cold compile; returns ``(app, lowered, tensorized, report,
    kernel)``.  Raises whatever the compiler raises."""
    with rec.span("compile", shared=shared):
        with rec.span("build"):
            app = program.job.build_app()
        with rec.span("lower"):
            lowered = lower(app.output)
        with rec.span("select_instructions"):
            tensorized, report = select_instructions(lowered, strict=True)
        with rec.span("fingerprint_stmt"):
            key = fingerprint_stmt(tensorized.stmt)
        with rec.span("compile_stmt"):
            kernel = cache.get(tensorized, key=key)
    return app, lowered, tensorized, report, kernel


class Cold(Phase):
    """``compile_cold``: the unit is one pass over the catalog."""

    def __init__(self, workload: Workload) -> None:
        super().__init__()
        self.workload = workload
        self.catalog_ms: List[float] = []
        self.slowest_ms: List[float] = []
        self.per_program: Dict[str, List[float]] = {
            p.name: [] for p in workload.programs
        }

    def unit(self, rec, values) -> None:
        result = self.result
        gc.collect()
        cache = KernelCache()
        pass_id = len(self.catalog_ms)
        times = []
        for program in self.workload.programs:
            result.attempted += 1
            start = PERF()
            try:
                _, lowered, _, report, kernel = compile_program(
                    program, cache, rec, f"{program.name}#{pass_id}"
                )
            except Exception as exc:
                result.fail(f"compile_cold {program.name}: {exc!r}")
                continue
            times.append((PERF() - start) * 1e3)
            self.per_program[program.name].append(times[-1])
            if not report.all_mapped:
                result.fail(f"compile_cold {program.name}: unmapped store")
            if rec.enabled:
                selection_values(report, values)
                lowering_values(lowered, values)
                add(values, "codegen.source_bytes", len(kernel.source or ""))
                add(values, "codegen.fallback_kernels", kernel.is_fallback)
                probe_stores(lowered, rec)
        if times:
            self.catalog_ms.append(sum(times))
            self.slowest_ms.append(max(times))
        if rec.enabled:
            values["kernel_cache.misses"] = cache.stats()["misses"]

    def primary_value(self) -> float:
        return low(self.catalog_ms)

    def finish(self, traced: bool) -> PhaseResult:
        result = self.result
        passes = len(self.catalog_ms)
        result.e2e["compile_catalog_ms"] = (low(self.catalog_ms), passes)
        result.e2e["compile_slowest_ms"] = (low(self.slowest_ms), passes)
        result.detail["compile_catalog_ms_median"] = median(self.catalog_ms)
        result.detail["compile_ms_by_program"] = {
            name: low(times) for name, times in self.per_program.items()
        }
        if traced:
            m = self.layer_lows()
            span = lambda name: m.get("span." + name, 0.0)
            result.layer.update(
                {k: v for k, v in m.items() if not k.startswith("span.")}
            )
            del result.layer["hardboiled.mapped"]
            result.layer.update(
                {
                    "frontend.build_ms": span("build"),
                    "lowering.lower_ms": span("lower"),
                    "hardboiled.select_ms": span("select_instructions"),
                    "hardboiled.encode_ms": span("probe.encode"),
                    "eqsat.extract_ms": span("probe.extract"),
                    "hardboiled.mapped_share": share(
                        m.get("hardboiled.mapped", 0.0),
                        m.get("hardboiled.stores", 0.0),
                    ),
                    "codegen.compile_stmt_ms": span("compile_stmt"),
                    "kernel_cache.fingerprint_ms": span("fingerprint_stmt"),
                }
            )
        return result


class Compiled(NamedTuple):
    """One program through ``compile_lowered``."""

    program: Program
    app: object
    lowered: object
    pipeline: object
    report: object


def store_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


def store_pass(workload, store, expect, rec, round_id, result):
    """One pass of the catalog through ``compile_lowered``; returns
    ``(pass ms, call-only ms, [Compiled], the pass's KernelCache)``."""
    cache = KernelCache()
    compiled = []
    call_ms = 0.0
    start = PERF()
    for program in workload.programs:
        result.attempted += 1
        try:
            with rec.span(
                f"compile.{expect}", shared=f"{program.name}#{round_id}"
            ):
                with rec.span("build"):
                    app = program.job.build_app()
                with rec.span("lower"):
                    lowered = lower(app.output)
                called = PERF()
                with rec.span(f"compile_lowered.{expect}"):
                    pipeline, report = compile_lowered(
                        lowered,
                        store,
                        backend="compile",
                        strict=True,
                        kernel_cache=cache,
                    )
                    # the restored (or fresh) kernel is seeded: resolving
                    # it must be a cache hit, never a second codegen
                    cache.get(pipeline.lowered, key=pipeline.cache_key)
                call_ms += (PERF() - called) * 1e3
        except Exception as exc:
            result.fail(f"compile_warm {expect} {program.name}: {exc!r}")
            continue
        if report.artifact_cache != expect:
            result.fail(
                f"compile_warm {program.name}: expected {expect},"
                f" got {report.artifact_cache}"
            )
        compiled.append(Compiled(program, app, lowered, pipeline, report))
    if cache.stats()["misses"]:
        result.fail(f"compile_warm {expect}: a seeded kernel was recompiled")
    return (PERF() - start) * 1e3, call_ms, compiled, cache


def probe_restore(store, lowered, rec) -> None:
    """Time the three steps of a hit from outside: ``get``,
    ``verify_ir`` on the restored statement, ``deserialize_kernel``."""
    key = ArtifactKey.for_lowered(lowered, backend="compile")
    with rec.span("restore.probe"):
        with rec.span("probe.store_get"):
            artifact = store.get(key)
        with rec.span("probe.verify_ir"):
            verify_ir(
                artifact.stmt, lowered.realizations, phase="tensorized"
            )
        if artifact.kernel is not None:
            with rec.span("probe.deserialize_kernel"):
                deserialize_kernel(artifact.kernel)


class Warm(Phase):
    """``compile_warm``: the unit is one round, a miss pass then a hit
    pass.  ``expected`` maps program name to the cold pipeline's B=1
    output on the app's bundled inputs; restored pipelines must match
    it bitwise."""

    def __init__(
        self, workload: Workload, workdir: str, expected: Dict[str, np.ndarray]
    ) -> None:
        super().__init__()
        self.workload = workload
        self.workdir = workdir
        self.expected = expected
        self.miss_ms: List[float] = []
        self.hit_ms: List[float] = []

    def unit(self, rec, values) -> None:
        result = self.result
        gc.collect()
        round_id = len(self.miss_ms)
        root = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            miss_store = ArtifactStore(root)
            ms, miss_call, _, _ = store_pass(
                self.workload, miss_store, "miss", rec, round_id, result
            )
            self.miss_ms.append(ms)
            artifact_bytes = store_bytes(root)
            # a new store object on the same directory stands in for a
            # fresh process: nothing in memory survives the miss pass
            hit_store = ArtifactStore(root)
            ms, hit_call, compiled, cache = store_pass(
                self.workload, hit_store, "hit", rec, round_id, result
            )
            self.hit_ms.append(ms)
            if rec.enabled:
                miss_stats = miss_store.stats.as_dict()
                hit_stats = hit_store.stats.as_dict()
                values.update(
                    {
                        "compile.warm_miss_ms": miss_call,
                        "compile.warm_hit_ms": hit_call,
                        "compile.restore_ms": 1e3 * sum(
                            c.report.restore_seconds for c in compiled
                        ),
                        "store.put_ms": miss_stats["store_seconds"] * 1e3,
                        "store.get_ms": hit_stats["load_seconds"] * 1e3,
                        "store.artifact_bytes": artifact_bytes,
                        "store.hits": hit_stats["hits"],
                        "store.misses": miss_stats["misses"],
                        "store.stale": miss_stats["stale"] + hit_stats["stale"],
                        "kernel_cache.hits": cache.stats()["hits"],
                    }
                )
                probe_store = ArtifactStore(root)
                for entry in compiled:
                    probe_restore(probe_store, entry.lowered, rec)
            # outside the timed passes: cold and restored pipelines agree
            for entry in compiled:
                want = self.expected.get(entry.program.name)
                if want is None:  # already failed in exec prepare
                    continue
                out = entry.pipeline.run(entry.app.inputs)
                if not np.array_equal(out, want):
                    result.fail(
                        f"compile_warm {entry.program.name}: restored pipeline"
                        " output differs from the cold pipeline"
                    )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def primary_value(self) -> float:
        return low(self.hit_ms)

    def finish(self, traced: bool) -> PhaseResult:
        result = self.result
        rounds = len(self.miss_ms)
        result.e2e["warm_miss_catalog_ms"] = (low(self.miss_ms), rounds)
        result.e2e["warm_hit_catalog_ms"] = (low(self.hit_ms), rounds)
        result.detail["warm_catalog_ms_median"] = {
            "miss": median(self.miss_ms), "hit": median(self.hit_ms)
        }
        if traced:
            m = self.layer_lows()
            result.layer.update(
                {k: v for k, v in m.items() if not k.startswith("span.")}
            )
            result.layer["analysis.verify_ir_ms"] = m.get(
                "span.probe.verify_ir", 0.0
            )
            result.detail["warm_spans_ms"] = {
                k[5:]: v for k, v in m.items() if k.startswith("span.")
            }
        return result
