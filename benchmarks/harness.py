"""Shared helpers for the paper-reproduction benchmarks.

Each benchmark compiles the real pipelines (including HARDBOILED's EqSat
instruction selection, whose wall-clock time is genuinely measured),
executes them on the simulators to collect op/byte counters, and feeds
the counters into the roofline device model to produce paper-style
tables.  Absolute times are model estimates; the qualitative shape
(winner, bound type, crossovers) is asserted.

Two kinds of numbers appear in the reports:

* *modeled* times (:func:`measure`) come from counters collected on the
  instrumented interpreter backend and the roofline device model;
* *host wall-clock* times (:func:`wallclock`, :func:`backend_speedup`)
  time the simulation itself on this machine, and exist to compare the
  interpreter backend against the compiled NumPy backend
  (``backend="compile"``) end to end.
"""

from __future__ import annotations

import time

from repro.perfmodel import PerfModel, TimeBreakdown, format_table


def measure(app, device) -> TimeBreakdown:
    """Run an app and model its full-size runtime on ``device``."""
    out, counters = app.run_and_measure()
    model = PerfModel(device)
    return model.estimate(counters, kernels=app.kernels)


def wallclock(app, backend: str, repeats: int = 3) -> float:
    """Best-of-``repeats`` host seconds for one run on ``backend``.

    A warm-up run is taken first so one-time costs (kernel compilation
    on the compiled backend) are not billed to the steady state — the
    kernel cache makes every later run a cache hit.
    """
    app.run(backend=backend)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        app.run(backend=backend)
        best = min(best, time.perf_counter() - start)
    return best


def backend_speedup(app, repeats: int = 3):
    """(interpreter_s, compiled_s, speedup) host wall-clock for an app."""
    interp_s = wallclock(app, "interpret", repeats)
    compiled_s = wallclock(app, "compile", repeats)
    return interp_s, compiled_s, interp_s / compiled_s


def backend_report(apps, repeats: int = 3):
    """Wall-clock rows ``[name, interp, compiled, speedup]`` for apps.

    ``apps`` is an iterable of (label, app) pairs; returns (rows,
    speedups-by-label) ready for :func:`repro.perfmodel.format_table`.
    """
    rows = []
    speedups = {}
    for label, app in apps:
        interp_s, compiled_s, ratio = backend_speedup(app, repeats)
        speedups[label] = ratio
        rows.append(
            [
                label,
                f"{interp_s * 1e3:.1f} ms",
                f"{compiled_s * 1e3:.2f} ms",
                f"{ratio:.1f}x",
            ]
        )
    return rows, speedups


def both_variants(module, device, **params):
    """(cuda_time, tensor_time, tensor_report) for one workload."""
    cuda_app = module.build("cuda", **params)
    tensor_app = module.build("tensor", **params)
    cuda_t = measure(cuda_app, device)
    tensor_t = measure(tensor_app, device)
    return cuda_t, tensor_t, tensor_app.report


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def eqsat_profile_row(label, profile) -> list:
    """One report row from a saturation profile dict.

    ``profile`` is ``ScheduleStats.profile()`` /
    ``SelectionReport.eqsat_profile``: total/match/apply/rebuild seconds
    plus delta/full round and match counters.
    """
    return [
        label,
        f"{profile.get('total_s', 0.0) * 1e3:.2f} ms",
        f"{profile.get('match_s', 0.0) * 1e3:.2f} ms",
        f"{profile.get('apply_s', 0.0) * 1e3:.2f} ms",
        f"{profile.get('rebuild_s', 0.0) * 1e3:.2f} ms",
        int(profile.get("delta_rounds", 0)),
        int(profile.get("full_rounds", 0)),
        int(profile.get("matches", 0)),
    ]


EQSAT_PROFILE_HEADER = [
    "workload",
    "eqsat total",
    "match",
    "apply",
    "rebuild",
    "delta rounds",
    "full rounds",
    "matches",
]


def print_eqsat_profile(rows) -> None:
    """Print a match/apply/rebuild breakdown table for saturation runs,
    so perf work has a profile to point at."""
    print(format_table(EQSAT_PROFILE_HEADER, rows))


# -- warm-start (artifact cache) telemetry -------------------------------------

ARTIFACT_HEADER = [
    "workload",
    "cache",
    "compile",
    "eqsat",
    "restore",
    "stores",
]


def artifact_row(label, report, seconds) -> list:
    """One warm-start report row from a ``SelectionReport``.

    ``report.artifact_cache`` says which path ran ("hit" restored the
    artifact, "miss" paid saturation + codegen); ``seconds`` is the
    caller-measured end-to-end compile wall-clock.
    """
    return [
        label,
        report.artifact_cache or "-",
        f"{seconds * 1e3:.2f} ms",
        f"{report.eqsat_seconds * 1e3:.2f} ms",
        f"{report.restore_seconds * 1e3:.2f} ms",
        f"{report.num_mapped}/{report.num_stores}",
    ]


def print_artifact_report(rows, store=None) -> None:
    """Print per-workload artifact-cache rows plus store counters."""
    print(format_table(ARTIFACT_HEADER, rows))
    if store is not None:
        stats = store.stats
        print(
            f"store: {stats.hits} hits, {stats.misses} misses"
            f" ({stats.stale} stale), {stats.writes} writes,"
            f" load {stats.load_seconds * 1e3:.2f} ms /"
            f" write {stats.store_seconds * 1e3:.2f} ms"
        )
