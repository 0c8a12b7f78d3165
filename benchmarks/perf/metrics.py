"""The benchmark's named metrics: the source ``BENCHMARK.json`` is
written from (``python -m benchmarks.perf manifest``)."""

from __future__ import annotations

from .catalog import KINDS, PAIR_NAMES, WORKLOADS

#: the five phases of every run; a run cycles through them in order
PHASES = (
    "compile_cold", "compile_warm", "exec_inproc", "serve_paced", "serve_burst",
)

RUN_SECONDS = 45

#: (name, unit, better, bound, phase, definition)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "all",
     "cold-process import + first catalog pass, input generation, exec"
     " warm-up, store prefill + pool spawn + warm-up rounds"),
    ("peak_rss_mb", "MB", "lower", 0.10, "all",
     "ru_maxrss of the benchmark process plus its reaped children"),
    ("compile_catalog_ms", "ms", "lower", 0.25, "compile_cold",
     "lower quartile over passes of the summed per-program cold compile"),
    ("compile_slowest_ms", "ms", "lower", 0.25, "compile_cold",
     "lower quartile over passes of the slowest program of the pass"),
    ("warm_miss_catalog_ms", "ms", "lower", 0.25, "compile_warm",
     "lower quartile over rounds of the miss pass"),
    ("warm_hit_catalog_ms", "ms", "lower", 0.25, "compile_warm",
     "lower quartile over rounds of the hit pass, build + lower included"),
    ("exec_b1_ms_geomean", "ms", "lower", 0.25, "exec_inproc",
     "geometric mean over programs of the lower-quartile plan.run time"),
    ("exec_b32_ms_per_req_geomean", "ms", "lower", 0.25, "exec_inproc",
     "geometric mean over programs of the lower-quartile B=32 call / 32"),
    ("interp_ms_geomean", "ms", "lower", 0.25, "exec_inproc",
     "geometric mean over programs of the lower-quartile interpreter run"),
    ("modeled_speedup_geomean", "x", "higher", 0.0, "exec_inproc",
     "geometric mean over the pairs of modelled A100 time cuda / tensor"),
    ("latency_ms_p50", "ms", "lower", 0.25, "serve_paced",
     "lower quartile over one-second slices of the slice's median"
     " due -> done latency"),
    ("latency_ms_p90", "ms", "lower", 0.25, "serve_paced",
     "lower quartile over one-second slices of the slice's 90th"
     " percentile"),
    ("throughput_rps", "1/s", "higher", 0.25, "serve_burst",
     "upper quartile over windows of requests / window wall time"),
)

_MS = ("ms", "lower")
_US = ("us", "lower")
_COUNT = ("count", "lower")

#: (name, unit, better)
PER_LAYER = (
    ("frontend.build_ms", *_MS),
    ("lowering.lower_ms", *_MS),
    ("lowering.pass_build_ms", *_MS),
    ("lowering.pass_flatten_ms", *_MS),
    ("lowering.pass_vectorize_ms", *_MS),
    ("lowering.pass_simplify_ms", *_MS),
    ("lowering.stmt_nodes", *_COUNT),
    ("hardboiled.select_ms", *_MS),
    ("hardboiled.encode_ms", *_MS),
    ("hardboiled.decode_postprocess_ms", *_MS),
    ("hardboiled.stores", *_COUNT),
    ("hardboiled.mapped_share", "ratio", "higher"),
    ("eqsat.saturate_ms", *_MS),
    ("eqsat.match_ms", *_MS),
    ("eqsat.apply_ms", *_MS),
    ("eqsat.rebuild_ms", *_MS),
    ("eqsat.extract_ms", *_MS),
    ("eqsat.matches", *_COUNT),
    ("eqsat.delta_rounds", *_COUNT),
    ("eqsat.full_rounds", *_COUNT),
    ("eqsat.enodes_max", *_COUNT),
    ("eqsat.eclasses_max", *_COUNT),
    ("codegen.compile_stmt_ms", *_MS),
    ("codegen.compile_batched_stmt_ms", *_MS),
    ("codegen.source_bytes", "bytes", "lower"),
    ("codegen.batched_source_bytes", "bytes", "lower"),
    ("codegen.fallback_kernels", *_COUNT),
    ("kernel_cache.fingerprint_ms", *_MS),
    ("kernel_cache.hits", "count", "higher"),
    ("kernel_cache.misses", *_COUNT),
    ("plan.first_run_ms", *_MS),
    *((f"plan.run_ms.{kind}", *_MS) for kind in KINDS),
    *((f"plan.batched_run_ms.{kind}", *_MS) for kind in KINDS),
    ("plan.buffer_reuse_share", "ratio", "higher"),
    ("plan.memo_hit_share", "ratio", "higher"),
    ("plan.rebinds", *_COUNT),
    *((f"interpreter.run_ms.{kind}", *_MS) for kind in KINDS),
    ("interpreter.tensor_macs", *_COUNT),
    ("interpreter.bytes_moved", "bytes", "lower"),
    ("targets.amx_tdpbf16ps_us", *_US),
    ("targets.wmma_mma_sync_us", *_US),
    ("targets.dp4a_mac_us", *_US),
    *((f"perfmodel.speedup.{name}", "x", "higher") for name in PAIR_NAMES),
    ("analysis.verify_ir_ms", *_MS),
    ("store.put_ms", *_MS),
    ("store.get_ms", *_MS),
    ("store.artifact_bytes", "bytes", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", *_COUNT),
    ("store.stale", *_COUNT),
    ("compile.warm_hit_ms", *_MS),
    ("compile.warm_miss_ms", *_MS),
    ("compile.restore_ms", *_MS),
    ("batch.prefill_s", "s", "lower"),
    ("shm.plan_frame_us", *_US),
    ("shm.write_frame_us", *_US),
    ("shm.read_frame_us", *_US),
    ("shm.frame_bytes", "bytes", "lower"),
    ("shm.dedup_share", "ratio", "higher"),
    ("shm.batches", "count", "higher"),
    ("shm.pipe_batches", *_COUNT),
    ("shm.fallbacks", *_COUNT),
    ("shm.ring_full_events", *_COUNT),
    ("supervisor.spawn_ready_s", "s", "lower"),
    ("supervisor.pool_rtt_ms_b1", *_MS),
    ("supervisor.pool_rtt_ms_b8", *_MS),
    ("supervisor.retries", *_COUNT),
    ("supervisor.restarts", *_COUNT),
    ("supervisor.crashes", *_COUNT),
    ("router.submit_us", *_US),
    ("router.flushes", *_COUNT),
    ("router.batch_mean", "count", "higher"),
    ("router.paced_batch_mean", *_COUNT),
    ("router.largest_flush", "count", "higher"),
    ("router.queue_wait_ms", *_MS),
    ("router.latency_ms_p99", *_MS),
    ("router.slo_share", "ratio", "higher"),
    ("router.generator_late_ms_max", *_MS),
    ("router.shed", *_COUNT),
    ("router.expired", *_COUNT),
    ("router.rejected", *_COUNT),
    ("serve.run_many_ms_per_req", *_MS),
    *(
        (f"trace.overhead_share.{phase}", "ratio", "lower")
        for phase in PHASES
    ),
)

E2E_NAMES = tuple(m[0] for m in END_TO_END)
E2E_UNITS = {m[0]: m[1] for m in END_TO_END}
LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
LAYER_UNITS = {m[0]: m[1] for m in PER_LAYER}

#: metrics that are counts made by the program: they must repeat
#: exactly (``--check-determinism``).  ``store.artifact_bytes`` is not
#: among them: pickle memoizes by object identity, so a fresh process
#: writes the ``apps`` artifacts 3 bytes larger than a warm one.
COUNT_METRICS = (
    "eqsat.matches",
    "eqsat.delta_rounds",
    "eqsat.full_rounds",
    "eqsat.enodes_max",
    "eqsat.eclasses_max",
    "lowering.stmt_nodes",
    "hardboiled.stores",
    "codegen.source_bytes",
    "interpreter.tensor_macs",
    "interpreter.bytes_moved",
    "modeled_speedup_geomean",
    *(f"perfmodel.speedup.{name}" for name in PAIR_NAMES),
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
