"""Serving-stack parity, zero-copy, recovery and overload gates.

What every serving path must keep, whatever it costs in wall-clock
(the tracked serving numbers are ``throughput_rps`` and
``latency_ms_p50`` of ``benchmarks/perf``, ``BENCHMARK.json``):

* default / ``--smoke``: over the fig-6 conv1d suite on the compile
  backend, a multi-worker :class:`~repro.service.Server` over
  per-worker execution plans, and the batch-axis kernel (one stacked
  ``[B, ...]`` call per bucket), are bit-identical to the per-call
  ``run()`` loop; ``run_many`` on the interpreter is bit-identical to
  the sequential interpreter loop;
* ``--faulted``: serving under a 10% injected kernel-failure rate
  answers every request, bit-identically when it answers, with retries
  and circuit-breaker degradation absorbing the storm;
* ``--mixed-shapes``: the :class:`~repro.service.Router` serves an
  interleaved multi-shape stream bit-identically, and after warm-up
  every tensor payload rides the shared-memory rings, none the pipe;
* ``--overload``: at 2x offered load the shedder engages, nothing
  fails outright, and already-expired requests fail fast without ever
  occupying a worker.

``--smoke`` shrinks each mode to a CI-sized run.  Run directly::

    python -m benchmarks.bench_serving_throughput --smoke
    python -m benchmarks.bench_serving_throughput --faulted
    python -m benchmarks.bench_serving_throughput --mixed-shapes --smoke
    python -m benchmarks.bench_serving_throughput --overload --smoke
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.apps import conv1d
from repro.apps.common import f16_random
from repro.service import CompileJob, Router, Server
from repro.service.shm import available as shm_available

from .harness import print_header

#: the fig-6 compile-time sweep (bench_fig6_compile_time.KERNEL_SIZES)
KERNEL_SIZES = [8, 32, 56, 96, 160, 256]
SMOKE_SIZES = [8, 16]
WORKERS = 4
BATCH = 32


def build_requests(app, count: int, seed: int = 7):
    """``count`` same-shaped request maps: fresh image, same filter.

    This is the serving shape the plan path is built for — per-request
    data varies, the filter (and therefore the Toeplitz operands the
    kernel derives from it) repeats.
    """
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(count):
        requests.append(
            {
                key: (
                    f16_random(rng, value.shape)
                    if key.name == "I"
                    else value
                )
                for key, value in app.inputs.items()
            }
        )
    return requests


def requests_for(taps: int) -> int:
    """Batch sizes scaled so each workload carries comparable work."""
    return max(6, 192 // taps)


def served_parity(sizes, workers=WORKERS):
    """A multi-worker :class:`Server` (second batch, every worker's
    plan bound) is bit-identical to the per-call ``run()`` loop."""
    for taps in sizes:
        app = conv1d.build("tensor", taps=taps, rows=1)
        app.backend = "compile"
        pipeline = app.compile()
        requests = build_requests(app, requests_for(taps))
        naive_out = [pipeline.run(request) for request in requests]
        with Server(pipeline, workers=workers) as server:
            server.run_many(requests)  # bind every worker's plan
            served_out = server.run_many(requests)
        for a, b in zip(naive_out, served_out):
            assert np.array_equal(a, b), (
                f"taps={taps}: served output differs from naive run()"
            )


def interpreter_parity(sizes, workers=2, requests_each=2):
    """``run_many`` on the interpreter backend (counters disabled) is
    bit-identical to the sequential interpreter loop."""
    for taps in sizes:
        app = conv1d.build("tensor", taps=taps, rows=1)
        pipeline = app.compile()
        requests = build_requests(app, requests_each, seed=11)
        sequential = [
            pipeline.run(request, backend="interpret")
            for request in requests
        ]
        batched = pipeline.run_many(
            requests, workers=workers, backend="interpret"
        )
        for a, b in zip(sequential, batched):
            assert np.array_equal(a, b), (
                f"taps={taps}: interpreter run_many differs from run()"
            )


def batch_axis_parity(sizes, batch=BATCH, workers=WORKERS):
    """One stacked batch-axis kernel call is bit-identical to the
    looped multi-worker ``run_many`` over the same bucket."""
    for taps in sizes:
        app = conv1d.build("tensor", taps=taps, rows=1)
        app.backend = "compile"
        pipeline = app.compile()
        requests = build_requests(app, batch, seed=13)
        looped_out = pipeline.run_many(
            requests, batch_axis=False, workers=workers
        )
        batched_out = pipeline.run_many(requests, batch_axis=True)
        for a, b in zip(looped_out, batched_out):
            assert np.array_equal(a, b), (
                f"taps={taps}: batch-axis output differs from looped"
                " run_many"
            )


#: --faulted smoke: per-visit probability of an injected kernel failure
FAULT_RATE = 0.10
#: chosen so the very first kernel visit fires (fraction 0.013 < 0.10)
#: — the smoke provably exercises a fault on every run
FAULT_SEED = 49


def faulted_smoke(sizes, workers=2, rate=FAULT_RATE, seed=FAULT_SEED):
    """Serve the suite under a ``rate`` injected-kernel-failure storm.

    Graceful-degradation gate: every request is answered (no silent
    drops), answered outputs are bit-identical to the unfaulted run,
    failures surfacing to callers stay rare (the retry budget and the
    breaker's interpreter fallback absorb the storm), and the server's
    stats() prove recovery work actually happened.
    """
    from repro.runtime.executor import RequestError
    from repro.service import faults
    from repro.service.faults import FaultPlan, FaultSpec

    print_header(
        "Faulted serving smoke — "
        f"{rate:.0%} injected kernel-failure rate, {workers} workers,"
        " retries + circuit-breaker degradation"
    )
    total_fired = total_errors = total_requests = 0
    for taps in sizes:
        app = conv1d.build("tensor", taps=taps, rows=1)
        app.backend = "compile"
        pipeline = app.compile()
        requests = build_requests(app, requests_for(taps), seed=17)
        expected = [pipeline.run(request) for request in requests]
        plan = FaultPlan(
            seed=seed, specs=[FaultSpec("raise-in-kernel", rate=rate)]
        )
        with Server(
            pipeline, workers=workers, retries=2, breaker_threshold=3
        ) as server:
            with faults.active(plan):
                outputs = server.run_many(requests, on_error="return")
            stats = server.stats()
        assert len(outputs) == len(requests), "requests silently dropped"
        errors = 0
        for reference, output in zip(expected, outputs):
            if isinstance(output, RequestError):
                errors += 1
                continue
            assert np.array_equal(output, reference), (
                f"taps={taps}: faulted serving output differs from the"
                " unfaulted run"
            )
        recovered = stats["retries"] > 0 or stats["degraded"]
        assert stats["failures"] == 0 or recovered, (
            f"taps={taps}: failures happened but no recovery path ran"
        )
        total_fired += plan.fired()
        total_errors += errors
        total_requests += len(requests)
        print(
            f"  conv1d k={taps}: {len(requests)} requests,"
            f" {plan.fired()} faults fired, {stats['retries']} retries,"
            f" degraded={stats['degraded']}"
            f" (backend breaker trips={stats['breakers']['backend']['trips']}),"
            f" {errors} surfaced errors"
        )
    assert total_fired > 0, "fault plan never fired — smoke proved nothing"
    # graceful: the retry budget + degradation absorb almost everything
    assert total_errors <= max(1, total_requests // 10), (
        f"{total_errors}/{total_requests} requests failed — degradation"
        " is not graceful"
    )
    print(
        f"faulted smoke ok: {total_fired} faults over {total_requests}"
        f" requests, {total_errors} surfaced"
    )


# -- mixed-shape router parity -------------------------------------------------

#: conv1d kernel sizes for the mixed-shape stream — each size is a
#: distinct shape signature, so each forms its own serving bucket
MIXED_SIZES = [32, 96, 160]
MIXED_SMOKE_SIZES = [8, 16]
MIXED_REQUESTS = 32
MIXED_SMOKE_REQUESTS = 4


def build_named_requests(app, count, seed=23):
    """Like :func:`build_requests`, but keyed by parameter *name* —
    the wire-facing serving idiom the shm frame codec carries (object
    keys are pipe-only traffic).  The filter array is the same object
    across requests, so the codec writes it into the frame once."""
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(count):
        requests.append(
            {
                key.name: (
                    f16_random(rng, value.shape)
                    if key.name == "I"
                    else value
                )
                for key, value in app.inputs.items()
            }
        )
    return requests


def _route_stream(router, stream, timeout=300.0):
    """Submit the whole interleaved stream, then resolve in order."""
    futures = [router.submit(job, inputs) for job, inputs in stream]
    return [future.result(timeout=timeout) for future in futures]


def _transport_totals(stats):
    """Sum the per-pool payload counters across the router."""
    totals = {"shm_requests": 0, "pipe_payloads": 0}
    for pool in stats["pools"].values():
        for key in totals:
            totals[key] += pool["transport"][key]
    return totals


def mixed_shapes(sizes, per_app, workers=1):
    """Bitwise parity + the zero-copy contract over a mixed stream.

    The stream interleaves request ``i`` of every shape, then ``i+1``
    — adjacent requests never share a bucket, which is exactly the
    traffic the router's bucketing exists to untangle.  Round 1 warms
    every worker (plans bind; the shm handshake rides alongside the
    first pipe dispatch).  Round 2 is the measured round: on a host
    with shared memory, *every* tensor payload must cross on the rings
    and *none* over the pickling pipe — asserted on the transport
    counter deltas between the rounds.
    """
    print_header(
        "Mixed-shape router — interleaved multi-shape stream,"
        f" {workers} worker(s) per bucketed pool, zero-copy contract"
    )
    # the cuda variant skips equality saturation, so worker processes
    # start fast
    jobs = [
        CompileJob.make("conv1d", "cuda", taps=taps, rows=1)
        for taps in sizes
    ]
    per_job = {}
    expected = {}
    for job in jobs:
        app = job.build_app()
        per_job[job] = build_named_requests(app, per_app)
        app.backend = "compile"
        pipeline = app.compile()
        expected[job] = [pipeline.run(request) for request in per_job[job]]
    stream = [
        (job, per_job[job][index])
        for index in range(per_app)
        for job in jobs
    ]
    with Router(jobs, workers=workers, max_batch=per_app) as router:
        rounds = [_route_stream(router, stream)]
        before = _transport_totals(router.stats())
        rounds.append(_route_stream(router, stream))
        stats = router.stats()
    after = _transport_totals(stats)
    for label, results in zip(("warm round", "measured round"), rounds):
        seen = {job: 0 for job in jobs}
        for (job, _), output in zip(stream, results):
            assert np.array_equal(output, expected[job][seen[job]]), (
                f"{label}: routed output for {job.label} request"
                f" {seen[job]} differs from the single-process reference"
            )
            seen[job] += 1
    assert stats["failed"] == 0, "mixed stream surfaced failures"
    assert len(stats["buckets"]) == len(jobs), (
        f"expected one bucket per shape, got {len(stats['buckets'])}"
    )
    if not shm_available():
        print(
            "mixed-shape ok: parity held (shared memory unavailable"
            " here — zero-copy contract not exercised)"
        )
        return
    pipe_delta = after["pipe_payloads"] - before["pipe_payloads"]
    shm_delta = after["shm_requests"] - before["shm_requests"]
    assert pipe_delta == 0, (
        f"{pipe_delta} payload(s) were pickled over the pipe after"
        " warm-up — the shm path is not zero-copy end to end"
    )
    assert shm_delta == len(stream), (
        f"only {shm_delta}/{len(stream)} measured requests rode"
        " shared memory"
    )
    print(
        f"mixed-shape ok: {len(stream)} requests/round, measured round"
        f" {shm_delta} over shm, 0 over pipe"
    )


# -- overload (shed-not-collapse) gate ----------------------------------------

#: conv1d kernel size for the overload run (fast worker start)
OVERLOAD_TAPS = 8
#: per-request latency budget (seconds) — the SLO goodput is measured
#: against; a request that cannot meet it expires instead of occupying
#: a worker
OVERLOAD_BUDGET = 0.5
#: requests submitted with an already-spent budget: they must expire
#: before ever reaching a worker
OVERLOAD_TINY = 10
#: a budget this small is spent before the flusher can run
TINY_BUDGET = 1e-6


def _paced_round(router, job, warm, rate, duration, tiny_every=None):
    """Offer an open-loop paced stream at ``rate`` req/s for
    ``duration`` seconds; returns the per-class outcome counts.

    Half interactive / half best-effort; every request carries the
    ``OVERLOAD_BUDGET`` latency budget.  With ``tiny_every`` set,
    every Nth request instead carries an already-spent budget (on the
    interactive lane, so the shedder cannot drop it before the expiry
    path runs).
    """
    from repro.service import DeadlineExceeded, ShedError
    from repro.service.serve import RejectedError

    interval = 1.0 / rate
    shed_at_admission = 0
    futures = []
    tiny_futures = []
    index = 0
    start = time.perf_counter()
    next_at = start
    while time.perf_counter() - start < duration:
        now = time.perf_counter()
        if now < next_at:
            time.sleep(min(next_at - now, 0.001))
            continue
        next_at += interval
        index += 1
        is_tiny = tiny_every is not None and index % tiny_every == 0
        priority = (
            "interactive" if is_tiny or index % 2 else "best-effort"
        )
        try:
            future = router.submit(
                job,
                warm[index % len(warm)],
                deadline=TINY_BUDGET if is_tiny else OVERLOAD_BUDGET,
                priority=priority,
            )
        except (ShedError, RejectedError):
            shed_at_admission += 1
            continue
        (tiny_futures if is_tiny else futures).append(future)
    # resolve everything offered this round before measuring: goodput
    # counts only requests that met their budget end to end
    completed = expired = shed_queued = failed = 0
    for future in futures:
        error = future.exception(timeout=120)
        if error is None:
            completed += 1
        elif isinstance(error, DeadlineExceeded):
            expired += 1
        elif isinstance(error, ShedError):
            # admitted, then dropped from its bucket by the shedder:
            # overload control working, not a failure
            shed_queued += 1
        else:
            failed += 1
    tiny_expired = sum(
        1
        for future in tiny_futures
        if isinstance(future.exception(timeout=120), DeadlineExceeded)
    )
    elapsed = time.perf_counter() - start
    return {
        "offered": index,
        "completed": completed,
        "expired": expired,
        "failed": failed,
        "shed_at_admission": shed_at_admission,
        "shed_queued": shed_queued,
        "tiny": len(tiny_futures),
        "tiny_expired": tiny_expired,
        "goodput": completed / elapsed,
    }


def overload(smoke=False, workers=2):
    """Shed-not-collapse at 2x offered load.

    Capacity is the goodput of an open-loop paced round at a
    sustainable rate (bootstrapped from a closed-loop run); the gate
    round offers the same traffic at 2x that rate plus a cohort of
    already-expired (tiny-budget) requests.  Asserted: nothing fails
    outright, the shedder provably engaged, every tiny-budget request
    expired, and no expired request ever occupied a worker (zero
    deadline kills).
    """
    duration = 1.0 if smoke else 2.0
    print_header(
        "Overload gate — open-loop 2x offered load vs. paced capacity,"
        f" {workers} workers, CoDel-style shedding,"
        f" {OVERLOAD_BUDGET:.2f}s budgets"
    )
    job = CompileJob.make("conv1d", "cuda", taps=OVERLOAD_TAPS, rows=1)
    app = job.build_app()
    warm = build_named_requests(app, 64, seed=31)
    with Router(
        [job],
        workers=workers,
        max_batch=4,
        # the longest a bucket waits behind busy workers (at 2x load
        # they all are); with one idle it leaves at once
        flush_interval=0.002,
        shed_target=0.02,
        shed_interval=0.05,
        bucket_cap=64,
    ) as router:
        router.run_many(job, warm[:16])  # plans bind, shm handshakes
        start = time.perf_counter()
        router.run_many(job, warm)
        bootstrap = len(warm) / (time.perf_counter() - start)

        capacity = _paced_round(router, job, warm, bootstrap, duration)[
            "goodput"
        ]
        before_shed = router.stats()["shed"]
        gate = _paced_round(
            router,
            job,
            warm,
            2.0 * capacity,
            duration,
            tiny_every=max(1, int(duration * 2.0 * capacity) // OVERLOAD_TINY),
        )
        stats = router.stats()
    shed = stats["shed"] - before_shed
    (pool_stats,) = stats["pools"].values()
    print(
        f"2x round at {2 * capacity:.0f} req/s: offered"
        f" {gate['offered']}, {gate['completed']} completed,"
        f" {gate['expired']} expired, {shed} shed"
        f" ({gate['shed_at_admission']} at admission,"
        f" {gate['shed_queued']} from the queue), {gate['failed']}"
        f" failed, tiny-budget {gate['tiny_expired']}/{gate['tiny']}"
        " expired"
    )
    assert gate["failed"] == 0, (
        f"{gate['failed']} requests failed outright under overload"
    )
    assert gate["tiny"] and gate["tiny_expired"] == gate["tiny"], (
        f"only {gate['tiny_expired']}/{gate['tiny']} already-expired"
        " requests failed fast with DeadlineExceeded"
    )
    assert pool_stats["deadline_kills"] == 0, (
        f"{pool_stats['deadline_kills']} expired batches occupied a"
        " worker — expiry must happen before dispatch"
    )
    assert shed >= 1, (
        "2x offered load never engaged the shedder — overload control"
        " is not doing anything"
    )
    print("overload gate ok")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized workloads"
    )
    parser.add_argument(
        "--faulted",
        action="store_true",
        help=f"serve under a {FAULT_RATE:.0%} injected kernel-failure"
        " rate",
    )
    parser.add_argument(
        "--mixed-shapes",
        action="store_true",
        help="route an interleaved multi-shape stream: parity and the"
        " zero-copy shm contract",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="shed-not-collapse gate at 2x offered load",
    )
    args = parser.parse_args()
    if args.overload:
        overload(smoke=args.smoke)
    elif args.mixed_shapes:
        if args.smoke:
            mixed_shapes(MIXED_SMOKE_SIZES, MIXED_SMOKE_REQUESTS)
        else:
            mixed_shapes(MIXED_SIZES, MIXED_REQUESTS, workers=2)
    elif args.faulted:
        faulted_smoke(SMOKE_SIZES)
    else:
        sizes = SMOKE_SIZES if args.smoke else KERNEL_SIZES
        workers = 2 if args.smoke else WORKERS
        print_header(
            "Serving parity — naive run() loop vs. Server plans vs."
            f" batch-axis kernel, conv1d k={sizes}, {workers} workers"
        )
        served_parity(sizes, workers=workers)
        interpreter_parity(SMOKE_SIZES)
        batch_axis_parity(
            sizes, batch=8 if args.smoke else BATCH, workers=workers
        )
        print("serving parity ok: every path bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
