"""One run: one workload through set-up and all five phases."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict

import numpy as np

from . import compile_phases, exec_phase, serve_phases
from .catalog import WORKLOADS
from .phase import PhaseResult
from .metrics import E2E_NAMES, E2E_UNITS, LAYER_NAMES, LAYER_UNITS
from .spans import NullRecorder, Recorder, format_self_times
from .stats import median

PERF = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")

def cold_probe(workload: str, counts: bool = False) -> dict:
    """Import the program and compile the catalog once in a fresh
    process; returns what that process printed."""
    command = [sys.executable, RUN_PY, "cold-probe", "--workload", workload]
    if counts:
        command.append("--counts")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=170, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serving": dict(
            serve_phases.ROUTER_CONFIG,
            rate_rps=serve_phases.RATE,
            slo_ms=serve_phases.SLO_MS,
            window_per_job=serve_phases.WINDOW,
            request_pool_per_job=serve_phases.POOL,
        ),
        "exec": {
            "batch": exec_phase.BATCH,
            "b1_per_round": exec_phase.B1_PER_ROUND,
        },
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def make_phases(workload, items, expected, ctx, workdir) -> dict:
    return {
        "compile_cold": compile_phases.Cold(workload),
        "compile_warm": compile_phases.Warm(workload, workdir, expected),
        "exec_inproc": exec_phase.Exec(workload, items),
        "serve_paced": serve_phases.Paced(ctx),
        "serve_burst": serve_phases.Burst(ctx),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out_dir: str,
) -> dict:
    """Set up, then cycle through the five phases — one step of each
    per cycle — until ``seconds`` have passed; ``smoke`` stops after
    one cycle.  A traced run alternates untraced and traced cycles, so
    the recorder's overhead is measured against the same stretch of
    wall time."""
    workload = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    rec = Recorder() if trace else NullRecorder()
    total = PhaseResult()
    setup: Dict[str, float] = {}
    bring_up_s, prefill_s = [], []
    try:
        setup["cold_process_s"] = median(
            cold_probe(name)["seconds"]
            for _ in range(1 if (trace or smoke) else 3)
        )
        items, setup["exec_warmup_s"] = exec_phase.prepare(
            workload, rng, NullRecorder(), total
        )
        expected = {item.program.name: item.expected[0] for item in items}
        start = PERF()
        ctx = serve_phases.ServeContext(workload, rng)
        setup["serve_inputs_s"] = PERF() - start

        groups = [make_phases(workload, items, expected, ctx, workdir)]
        if trace:
            groups.append(make_phases(workload, items, expected, ctx, workdir))
        if smoke:
            for phases in groups:
                for phase in phases.values():
                    phase.step_seconds = 0.0
        cycle = 0
        deadline = PERF() + (0.0 if smoke else seconds)
        while cycle < len(groups) or PERF() < deadline:
            phases = groups[cycle % len(groups)]
            step_rec = rec if phases is groups[-1] else NullRecorder()
            for phase in ("compile_cold", "compile_warm", "exec_inproc"):
                phases[phase].step(step_rec)
            router, cache_dir, took, prefill = serve_phases.bring_up(
                ctx, workdir
            )
            bring_up_s.append(took)
            prefill_s.append(prefill)
            try:
                phases["serve_paced"].step(step_rec, router)
                phases["serve_burst"].step(step_rec, router)
            finally:
                serve_phases.tear_down(router, cache_dir, total)
            cycle += 1
        setup["serve_bring_up_s"] = median(bring_up_s)

        tables = {}
        for phase_name, phase in groups[-1].items():
            part = phase.finish(trace)
            if trace:
                plain = groups[0][phase_name]
                base, now = plain.primary_value(), phase.primary_value()
                if phase.primary_is_rate:
                    base, now = now, base
                part.layer[f"trace.overhead_share.{phase_name}"] = (
                    now / base - 1.0 if base else 0.0
                )
                part.attempted += plain.result.attempted
                part.failures.extend(plain.result.failures)
                tables[phase_name] = format_self_times(
                    rec.self_times(phase.ranges)
                )
            total.e2e.update(part.e2e)
            total.layer.update(part.layer)
            total.detail.update(part.detail)
            total.attempted += part.attempted
            total.failures.extend(part.failures)
        if trace:
            total.layer["batch.prefill_s"] = median(prefill_s)
            total.layer.update(serve_phases.serving_probes(ctx, workdir, rec))
            if serve_phases.leaked_segments():
                total.fail("leaked shm segments after the probes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    total.e2e["setup_s"] = (sum(setup.values()), len(bring_up_s))
    total.e2e["peak_rss_mb"] = (peak_rss_mb(), 1)
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "cycles": cycle,
        "provenance": provenance(seed),
        "programs": [p.job.label for p in workload.programs],
        "setup_parts_s": setup,
        "attempted": total.attempted,
        "failed": len(total.failures),
        "failures": total.failures[:20],
        "detail": total.detail,
    }
    if trace:
        layer = total.layer
        rtt1 = layer.get("supervisor.pool_rtt_ms_b1", 0.0)
        rtt8 = layer.get("supervisor.pool_rtt_ms_b8", 0.0)
        batch = min(8.0, max(1.0, layer.get("router.paced_batch_mean", 1.0)))
        # a difference of two probes, not a span: p50 latency minus the
        # pool round trip at the batch size the paced windows observed
        layer["router.queue_wait_ms"] = total.e2e["latency_ms_p50"][0] - (
            rtt1 + (rtt8 - rtt1) * (batch - 1.0) / 7.0
        )
        # a layer or kind this workload does not exercise reads 0
        record["per_layer"] = {
            metric: {
                "value": float(layer.get(metric, 0.0)),
                "unit": LAYER_UNITS[metric],
            }
            for metric in LAYER_NAMES
        }
        record["self_time_tables"] = tables
        trace_path = os.path.join(out_dir, f"trace-{name}.json")
        rec.dump(
            trace_path, {"workload": name, "seed": seed, "seconds": seconds}
        )
        record["trace_file"] = trace_path
    else:
        record["end_to_end"] = {
            metric: {
                "value": float(total.e2e[metric][0]),
                "unit": E2E_UNITS[metric],
                "samples": total.e2e[metric][1],
            }
            for metric in E2E_NAMES
        }
    record["correct"] = record["failed"] == 0
    return record


def contract_line(record: dict) -> str:
    """The last line of standard output the driver reads."""
    metrics = record.get("per_layer") or record["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in metrics.items()
            },
        }
    )


def print_record(record: dict) -> None:
    print(
        f"== workload {record['workload']}  seed"
        f" {record['provenance']['seed']}  trace {int(record['trace'])}"
        f"  commit {record['provenance']['commit'][:12]} =="
    )
    for name, m in record.get("end_to_end", {}).items():
        print(
            f"  {name:<30} {m['value']:>14.4f} {m['unit']:<6}"
            f" n={m['samples']}"
        )
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<36} {m['value']:>16.4f} {m['unit']}")
    for phase, table in record.get("self_time_tables", {}).items():
        print(f"-- self time, {phase} --")
        print(table)
    paced = record["detail"].get("paced")
    if paced:
        print(
            f"  open loop: {paced['offered']} requests at"
            f" {paced['rate_rps']:.0f}/s, generator at most"
            f" {paced['generator_late_ms_max']:.2f} ms late"
        )
    if "per_layer" in record:
        print(
            "  router.queue_wait_ms is a difference of probes"
            " (latency p50 - pool round trip), not a span"
        )
    print(
        f"  {record['cycles']} cycles  attempted {record['attempted']}"
        f"  failed {record['failed']}  setup parts {record['setup_parts_s']}"
    )
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
