"""``serve_paced`` and ``serve_burst``: the same ``Router`` at light
load (open loop) and saturated (closed loop).

One worker process per job, ``cache_dir`` pre-filled by
``BatchCompiler``, ``max_batch=8``, ``flush_interval=5 ms``,
``transport="auto"``; requests are keyed by name, round-robin over the
jobs so adjacent requests never share a bucket.  Load comes from one
generator thread, sized for two cores.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time
from typing import Dict, List

import numpy as np

from repro.service import (
    BatchCompiler,
    Router,
    Server,
    ShmRing,
    WorkerPool,
    leaked_segments,
)
from repro.service.shm import plan_frame, read_frame, write_frame

from .catalog import Workload
from .phase import PERF, Phase, PhaseResult
from .exec_phase import make_requests
from .stats import geomean, high, low, median, percentile, share

RATE = 200.0  # req/s offered by the open loop
SLO_MS = 50.0  # due -> done limit for slo_share
WINDOW = 192  # closed-loop requests per job per window
POOL = 48  # distinct requests per job, reused round-robin
ROUTER_CONFIG = dict(
    workers=1, max_batch=8, flush_interval=0.005, transport="auto"
)


class ServeContext:
    """Requests and in-process expected outputs for the serving jobs."""

    def __init__(self, workload: Workload, rng) -> None:
        self.jobs = list(workload.serve_jobs)
        self.requests: List[List[dict]] = []
        self.expected: List[List[np.ndarray]] = []
        self.pipelines = []
        for job in self.jobs:
            app = job.build_app()
            app.backend = "compile"
            pipeline = app.compile()
            requests = make_requests(rng, app.inputs, POOL, by_name=True)
            plan = pipeline.plan()
            self.pipelines.append(pipeline)
            self.requests.append(requests)
            self.expected.append([plan.run(r) for r in requests])
        #: (job index, request index) per stream position
        self.stream = [
            (j, r) for r in range(POOL) for j in range(len(self.jobs))
        ]

    def check(self, result: PhaseResult, position: int, future, what: str):
        """One served output, bitwise against the in-process result;
        errors, shed, rejected and expired requests all count."""
        j, r = self.stream[position % len(self.stream)]
        result.attempted += 1
        try:
            out = future.result(timeout=60)
        except Exception as exc:
            result.fail(f"{what} request {position}: {exc!r}")
            return False
        if not np.array_equal(out, self.expected[j][r]):
            result.fail(f"{what} request {position}: output differs")
            return False
        return True

    def submit(self, router: Router, position: int):
        j, r = self.stream[position % len(self.stream)]
        return router.submit(self.jobs[j], self.requests[j][r])


def bring_up(ctx: ServeContext, workdir: str):
    """Prefill the store, spawn the pools, run two warm-up rounds.
    Returns ``(router, cache_dir, seconds, prefill seconds)``."""
    start = PERF()
    cache_dir = tempfile.mkdtemp(prefix="serve-store-", dir=workdir)
    report = BatchCompiler(cache_dir, max_workers=2).compile_many(ctx.jobs)
    for job_result in report.results:
        if not job_result.ok:
            raise RuntimeError(f"prefill {job_result.job.label}: {job_result.error}")
    router = Router(ctx.jobs, cache_dir=cache_dir, **ROUTER_CONFIG)
    try:
        for _ in range(2):
            futures = [
                ctx.submit(router, p) for p in range(16 * len(ctx.jobs))
            ]
            for future in futures:
                future.result(timeout=120)
    except BaseException:
        router.close()
        raise
    return router, cache_dir, PERF() - start, report.wall_seconds


def tear_down(router, cache_dir: str, result: PhaseResult) -> None:
    router.close()
    shutil.rmtree(cache_dir, ignore_errors=True)
    orphans = multiprocessing.active_children()
    if orphans:
        result.fail(f"orphan worker processes after close: {orphans}")
    if leaked_segments():
        result.fail(f"leaked shm segments: {leaked_segments()}")


class Paced(Phase):
    """``serve_paced``: the unit is a ``WINDOW_S``-second open-loop
    window at ``RATE``.  Each request is timed from when it was *due*,
    so a stall is charged to every request it delays."""

    WINDOW_S = 2.0
    step_seconds = 0.0  # one window per cycle

    def __init__(self, ctx: ServeContext) -> None:
        super().__init__()
        self.ctx = ctx
        #: per one-second slice: the slice's latencies in ms
        self.slices: List[List[float]] = []
        self.done: List[float] = []
        self.offered = 0
        self.submit_us: List[float] = []
        self.late_max = 0.0
        self.delta: Dict[str, float] = {}

    def unit(self, rec, values, router) -> None:
        ctx, result = self.ctx, self.result
        count = max(1, int(RATE * self.WINDOW_S))
        latency: List[float] = [None] * count
        futures = []
        before = router.stats()
        start = PERF() + 0.05

        def on_done(position, due, span):
            def callback(_future):
                now = PERF()
                latency[position] = (now - due) * 1e3
                rec.close(span, now)
            return callback

        for position in range(count):
            due = start + position / RATE
            while True:
                now = PERF()
                if now >= due:
                    break
                time.sleep(min(due - now, 0.001))
            self.late_max = max(self.late_max, (now - due) * 1e3)
            span = rec.open("request", shared=position, start=due)
            with rec.span("Router.submit", parent=span):
                entered = PERF()
                future = ctx.submit(router, position)
                self.submit_us.append((PERF() - entered) * 1e6)
            future.add_done_callback(on_done(position, due, span))
            futures.append(future)
        ok = [
            ctx.check(result, position, future, "serve_paced")
            for position, future in enumerate(futures)
        ]
        self.offered += count
        # a future can resolve a moment before its done callback runs
        ok = [good and ms is not None for ms, good in zip(latency, ok)]
        self.done += [ms for ms, good in zip(latency, ok) if good]
        # one-second slices: a host stall lands in one slice, not in
        # the window
        per_slice = int(RATE)
        for i in range(0, count, per_slice):
            chunk = [
                ms for ms, good in zip(
                    latency[i:i + per_slice], ok[i:i + per_slice]
                ) if good
            ]
            if len(chunk) >= per_slice // 2:
                self.slices.append(chunk)
        for key, amount in _router_delta(before, router.stats()).items():
            self.delta[key] = self.delta.get(key, 0) + amount

    def primary_value(self) -> float:
        return low(median(s) for s in self.slices or [self.done])

    def finish(self, traced: bool) -> PhaseResult:
        result = self.result
        done, slices = self.done, self.slices or [self.done]
        result.e2e["latency_ms_p50"] = (self.primary_value(), len(done))
        result.e2e["latency_ms_p90"] = (
            low(percentile(s, 90) for s in slices), len(done),
        )
        within = share(sum(1 for ms in done if ms <= SLO_MS), self.offered)
        result.detail["paced"] = {
            "rate_rps": RATE,
            "offered": self.offered,
            "generator_late_ms_max": self.late_max,
            "slo_share": within,
            "all_requests_ms": {
                "p50": median(done),
                "p90": percentile(done, 90),
            },
        }
        if traced:
            result.layer.update(
                {
                    "router.submit_us": median(self.submit_us),
                    "router.latency_ms_p99": percentile(done, 99),
                    "router.slo_share": within,
                    "router.generator_late_ms_max": self.late_max,
                    "router.paced_batch_mean": share(
                        self.delta["completed"], self.delta["flushes"]
                    ),
                    "router.shed": self.delta["shed"],
                    "router.expired": self.delta["expired"],
                    "router.rejected": self.delta["rejected"],
                }
            )
        return result


class Burst(Phase):
    """``serve_burst``: the unit is one closed-loop window; one client
    submits a whole interleaved window and waits for all of it."""

    primary_is_rate = True
    #: twice the other phases': saturating both cores, the window rate
    #: is the noisiest sample in the run
    step_seconds = 1.6

    def __init__(self, ctx: ServeContext) -> None:
        super().__init__()
        self.ctx = ctx
        self.rates: List[float] = []
        self.delta: Dict[str, float] = {}
        self.largest_flush = 0

    def unit(self, rec, values, router) -> None:
        ctx, result = self.ctx, self.result
        size = WINDOW * len(ctx.jobs)
        before = router.stats()
        with rec.span("burst.window", shared=len(self.rates)):
            start = PERF()
            futures = [ctx.submit(router, p) for p in range(size)]
            for future in futures:
                try:
                    future.result(timeout=120)
                except Exception:
                    pass  # counted by check() below
            self.rates.append(size / (PERF() - start))
        for position, future in enumerate(futures):
            ctx.check(result, position, future, "serve_burst")
        after = router.stats()
        for key, amount in _router_delta(before, after).items():
            self.delta[key] = self.delta.get(key, 0) + amount
        self.largest_flush = max(
            [self.largest_flush]
            + [b["largest_flush"] for b in after["buckets"]]
        )

    def primary_value(self) -> float:
        return high(self.rates)

    def finish(self, traced: bool) -> PhaseResult:
        result = self.result
        result.e2e["throughput_rps"] = (high(self.rates), len(self.rates))
        result.detail["throughput_rps_median"] = median(self.rates)
        result.detail["throughput_rps_windows"] = self.rates
        if traced:
            delta = self.delta
            result.layer.update(
                {k: v for k, v in delta.items() if k.split(".")[0] in
                 ("shm", "supervisor")}
            )
            result.layer.update(
                {
                    "router.flushes": delta["flushes"],
                    "router.batch_mean": share(
                        delta["completed"], delta["flushes"]
                    ),
                    "router.largest_flush": self.largest_flush,
                }
            )
        return result


def _counters(stats: dict) -> Dict[str, float]:
    """The cumulative counters of ``Router.stats()`` the phases read,
    summed over buckets and pools."""
    pools = list(stats["pools"].values())
    transport = lambda key: sum(p["transport"][key] for p in pools)
    return {
        "completed": stats["completed"],
        "shed": stats["shed"],
        "expired": stats["expired"],
        "rejected": stats["rejected"],
        "flushes": sum(b["flushes"] for b in stats["buckets"]),
        "shm.batches": transport("shm_batches"),
        "shm.pipe_batches": transport("pipe_batches"),
        "shm.fallbacks": transport("shm_fallbacks"),
        "shm.ring_full_events": sum(
            ring["full_events"]
            for p in pools
            for ring in p["transport"]["rings"]
        ),
        "supervisor.retries": sum(p["retries"] for p in pools),
        "supervisor.restarts": sum(p["restarts"] for p in pools),
        "supervisor.crashes": sum(p["crashes"] for p in pools),
    }


def _router_delta(before: dict, after: dict) -> Dict[str, float]:
    """What a window added to the router's and its pools' counters."""
    was, now = _counters(before), _counters(after)
    return {key: now[key] - was[key] for key in now}


def serving_probes(ctx: ServeContext, workdir: str, rec) -> Dict[str, float]:
    """Per-layer probes below the router, each from outside: the frame
    codec on an in-process ring pair, one ``WorkerPool`` per job driven
    directly, and the thread ``Server`` on the same jobs."""
    layer: Dict[str, float] = {}
    layer.update(_shm_probe(ctx, rec))
    layer.update(_pool_probe(ctx, workdir, rec))
    per_request = []
    for pipeline, requests in zip(ctx.pipelines, ctx.requests):
        with Server(pipeline, workers=1) as server:
            server.run_many(requests[:8])
            samples = []
            for _ in range(10):
                start = PERF()
                server.run_many(requests[:8])
                samples.append((PERF() - start) * 1e3 / 8)
        per_request.append(median(samples))
    layer["serve.run_many_ms_per_req"] = geomean(per_request)
    return layer


def _shm_probe(ctx: ServeContext, rec) -> Dict[str, float]:
    plan_us, write_us, read_us = [], [], []
    frame_bytes = 0
    naive_bytes = 0
    plans = [plan_frame(requests[:8]) for requests in ctx.requests]
    ring = ShmRing.create(2, max(plan.length for plan in plans))
    peer = ShmRing.attach(ring.spec)
    try:
        for requests, plan in zip(ctx.requests, plans):
            batch = requests[:8]
            frame_bytes += plan.length
            naive_bytes += sum(a.nbytes for r in batch for a in r.values())
            p_us, w_us, r_us = [], [], []
            for _ in range(50):
                start = PERF()
                with rec.span("plan_frame"):
                    plan = plan_frame(batch)
                planned = PERF()
                with rec.span("write_frame"):
                    slot = write_frame(ring, plan)
                written = PERF()
                with rec.span("read_frame"):
                    read_frame(peer, slot, plan.meta)
                done = PERF()
                peer.release(slot)
                p_us.append((planned - start) * 1e6)
                w_us.append((written - planned) * 1e6)
                r_us.append((done - written) * 1e6)
            plan_us.append(median(p_us))
            write_us.append(median(w_us))
            read_us.append(median(r_us))
    finally:
        peer.close()
        ring.destroy()
    return {
        "shm.plan_frame_us": geomean(plan_us),
        "shm.write_frame_us": geomean(write_us),
        "shm.read_frame_us": geomean(read_us),
        "shm.frame_bytes": frame_bytes,
        # computed from tensor sizes: bytes a shared weight did not cross
        "shm.dedup_share": 1.0 - share(frame_bytes, naive_bytes),
    }


def _pool_probe(ctx: ServeContext, workdir: str, rec) -> Dict[str, float]:
    cache_dir = tempfile.mkdtemp(prefix="pool-store-", dir=workdir)
    ready_s, rtt_b1, rtt_b8 = [], [], []
    try:
        BatchCompiler(cache_dir, max_workers=2).compile_many(ctx.jobs)
        for job, requests in zip(ctx.jobs, ctx.requests):
            start = PERF()
            pool = WorkerPool(
                job, workers=1, cache_dir=cache_dir, batch_max=8
            )
            try:
                pool.submit(requests[0]).result(timeout=120)
                ready_s.append(PERF() - start)
                pool.submit_many(requests[:8])[-1].result(timeout=120)
                for batch, samples, repeats in (
                    (requests[:1], rtt_b1, 40),
                    (requests[:8], rtt_b8, 20),
                ):
                    times = []
                    for _ in range(repeats):
                        with rec.span("WorkerPool.submit_many"):
                            start = PERF()
                            futures = pool.submit_many(batch)
                            for future in futures:
                                future.result(timeout=120)
                            times.append((PERF() - start) * 1e3)
                    samples.append(median(times))
            finally:
                pool.close()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "supervisor.spawn_ready_s": median(ready_s),
        "supervisor.pool_rtt_ms_b1": geomean(rtt_b1),
        "supervisor.pool_rtt_ms_b8": geomean(rtt_b8),
    }
