"""Chaos-soak harness: randomized fault compositions + invariants.

The deterministic fault harness (:mod:`repro.service.faults`) injects
*point* faults — one mode, one site, chosen by the test.  Production
failure is messier: faults compose, land mid-batch, overlap a rolling
restart, and hit requests whose deadline budgets are half spent.  This
module (driven by ``tests/test_chaos.py``, ``pytest -m chaos``) closes
that gap with a seeded soak:

* :func:`random_fault_plan` draws a random composition of every fault
  mode (kill / hang / raise / corrupt-artifact / corrupt-shm-slot /
  slow-io / io-error / alloc-fail) from one integer seed — same seed,
  same plan, bit for bit;
* :func:`run_soak` drives a long mixed stream (two shape buckets,
  random deadline budgets, priority classes, and idempotence flags)
  through a fully armed :class:`~repro.service.router.Router` while
  the plan fires, optionally rolling-restarts the pools mid-stream,
  then gracefully drains;
* the invariant checker asserts what must hold *no matter what the
  fault plan did*:

  1. every submitted request reaches exactly one terminal outcome
     (result, typed failure, shed, rejection, or expiry — never an
     unresolved future, never two verdicts);
  2. every success is bitwise identical to the single-process
     unfaulted reference;
  3. at-most-once holds for ``idempotent=False`` requests (checked
     against the pools' dispatch event logs);
  4. stats obey conservation: ``offered == completed + failed +
     rejected + shed + expired`` with nothing left pending, every
     bucket's ``flush_reasons`` sum to its ``flushes``, and the
     harness's own per-request ledger matches the router's counters;
  5. teardown leaves no orphan worker processes and no leaked
     ``/dev/shm`` segments.

A failed invariant is a bug in the serving stack, not in the plan —
the report carries the seed, so every violation replays exactly.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service import shm as shm_transport
from repro.service.batch import CompileJob
from repro.service.faults import FaultPlan, FaultSpec
from repro.service.router import Router, job_fingerprint
from repro.service.serve import RejectedError, ShedError
from repro.service.supervisor import DeadlineExceeded

__all__ = [
    "SoakReport",
    "default_jobs",
    "random_fault_plan",
    "run_soak",
]

#: modes safe to draw with a firing *rate* — they are transient (the
#: request retries) or absorbed by a subsystem (store quarantine, frame
#: CRC), so any composition still converges
_RATE_MODES = (
    "raise-in-kernel",
    "alloc-fail",
    "corrupt-artifact",
    "corrupt-shm-slot",
    "slow-io",
    "io-error",
)

#: modes that take a worker down (or wedge it) — drawn with pinned
#: visit indices and an incarnation scope so a random plan cannot put
#: every future incarnation into a crash loop
_DISRUPTIVE_MODES = ("kill-worker", "hang-kernel")

#: a budget this small is spent before any flusher pass can run — the
#: soak uses it to prove expired requests never reach a worker
TINY_BUDGET = 1e-6


def default_jobs() -> List[CompileJob]:
    """Two fast-starting conv1d shapes: two buckets, one app."""
    return [
        CompileJob.make("conv1d", "cuda", taps=8, rows=1),
        CompileJob.make("conv1d", "cuda", taps=16, rows=1),
    ]


def random_fault_plan(
    seed: int,
    max_specs: int = 3,
    modes: Optional[Sequence[str]] = None,
) -> FaultPlan:
    """Draw a reproducible random composition of fault specs.

    Disruptive modes (kill/hang) get pinned visit indices and an
    incarnation scope; transient modes get a bounded rate and fire
    cap.  The draw is a pure function of ``seed``.
    """
    rng = random.Random(f"chaos-plan-{seed}")
    specs: List[FaultSpec] = []
    for _ in range(rng.randint(1, max_specs)):
        mode = rng.choice(list(modes) if modes else list(_RATE_MODES + _DISRUPTIVE_MODES))
        if mode in _DISRUPTIVE_MODES:
            visits = tuple(
                sorted({rng.randint(0, 6) for _ in range(rng.randint(1, 2))})
            )
            spec = FaultSpec(
                mode,
                visits=visits,
                seconds=0.25 if mode == "hang-kernel" else None,
                scope={"incarnation": rng.randint(0, 1)},
            )
        else:
            spec = FaultSpec(
                mode,
                rate=rng.choice([0.02, 0.05, 0.1]),
                max_fires=rng.randint(1, 4),
                seconds=0.02 if mode == "slow-io" else None,
            )
        specs.append(spec)
    return FaultPlan(seed=seed, specs=specs)


@dataclass
class _StreamItem:
    """One request of the soak workload, with its reference output."""

    job_key: str
    inputs: dict
    reference: np.ndarray
    deadline: Optional[float]
    priority: str
    idempotent: bool


@dataclass
class SoakReport:
    """Everything one soak did, and every invariant it violated."""

    seed: int
    plan: List[str]
    action: Optional[str]
    submitted: int
    completed: int
    failed: int
    rejected: int
    shed: int
    expired: int
    drained: bool
    elapsed: float
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _build_requests(app, count: int, np_rng) -> List[dict]:
    """Serving-idiom requests: fresh data for the first input param,
    the app's own arrays (same objects — shared weights) for the rest."""
    params = list(app.inputs.items())
    requests = []
    for _ in range(count):
        request = {}
        for position, (param, array) in enumerate(params):
            if position == 0:
                fresh = np_rng.standard_normal(array.shape)
                request[param.name] = fresh.astype(array.dtype)
            else:
                request[param.name] = array
        requests.append(request)
    return requests


def _build_stream(
    seed: int, jobs: Sequence[CompileJob], count: int, pool_size: int = 6
) -> List[_StreamItem]:
    """The mixed workload: random job, deadline class, priority, and
    idempotence per item; references from unfaulted in-process runs."""
    py_rng = random.Random(f"chaos-stream-{seed}")
    np_rng = np.random.default_rng(seed)
    per_job: Dict[str, Tuple[List[dict], List[np.ndarray]]] = {}
    for job in jobs:
        app = job.build_app()
        app.backend = job.backend
        requests = _build_requests(app, pool_size, np_rng)
        pipeline = app.compile()
        references = [pipeline.run(request) for request in requests]
        per_job[job_fingerprint(job)] = (requests, references)
    keys = list(per_job)
    stream: List[_StreamItem] = []
    for index in range(count):
        job_key = py_rng.choice(keys)
        requests, references = per_job[job_key]
        which = index % len(requests)
        draw = py_rng.random()
        if draw < 0.12:
            deadline: Optional[float] = TINY_BUDGET  # must expire
        elif draw < 0.3:
            deadline = 5.0
        else:
            deadline = None
        stream.append(
            _StreamItem(
                job_key=job_key,
                inputs=requests[which],
                reference=references[which],
                deadline=deadline,
                priority=(
                    "interactive"
                    if py_rng.random() < 0.7
                    else "best-effort"
                ),
                idempotent=py_rng.random() < 0.9,
            )
        )
    # the expired-never-dispatched invariant needs witnesses: make sure
    # every stream carries at least two tiny-budget requests
    tiny = sum(1 for item in stream if item.deadline == TINY_BUDGET)
    for index in (0, len(stream) // 2):
        if tiny >= 2:
            break
        if stream[index].deadline != TINY_BUDGET:
            stream[index].deadline = TINY_BUDGET
            tiny += 1
    return stream


def _check_events(pool, violations: List[str], label: str) -> None:
    """Pool-side invariants from the lifecycle event log: exactly one
    terminal event per request id, at-most-once dispatch for
    ``idempotent=False``."""
    terminal: Dict[int, int] = {}
    dispatches: Dict[int, int] = {}
    non_idempotent: set = set()
    for event in pool.event_log():
        kind, rid = event[0], event[1]
        if kind == "dispatch":
            dispatches[rid] = dispatches.get(rid, 0) + 1
            if not event[2]:
                non_idempotent.add(rid)
        elif kind in ("complete", "fail", "expire"):
            terminal[rid] = terminal.get(rid, 0) + 1
    for rid, times in terminal.items():
        if times != 1:
            violations.append(
                f"{label}: request {rid} reached {times} terminal"
                f" outcomes (expected exactly 1)"
            )
    for rid in non_idempotent:
        if dispatches.get(rid, 0) > 1:
            violations.append(
                f"{label}: idempotent=False request {rid} dispatched"
                f" {dispatches[rid]} times (at-most-once violated)"
            )


def _check_hygiene(violations: List[str], grace: float = 8.0) -> None:
    """No orphan worker processes, no leaked shm segments."""
    deadline = time.monotonic() + grace
    while True:
        orphans = [
            process.name
            for process in multiprocessing.active_children()
            if process.name.startswith("repro-worker")
        ]
        leaked = shm_transport.leaked_segments()
        if not orphans and not leaked:
            return
        if time.monotonic() >= deadline:
            if orphans:
                violations.append(f"orphan worker processes: {orphans}")
            if leaked:
                violations.append(f"leaked shm segments: {leaked}")
            return
        time.sleep(0.05)


def run_soak(
    seed: int,
    cache_dir: Optional[str] = None,
    requests_total: int = 40,
    workers: int = 2,
    jobs: Optional[Sequence[CompileJob]] = None,
    drain_timeout: float = 180.0,
) -> SoakReport:
    """One seeded chaos soak: workload + faults + lifecycle + checks.

    Deterministic in its inputs: the fault plan, workload, priorities,
    deadlines, and the mid-stream lifecycle action are all drawn from
    ``seed``.  Returns a :class:`SoakReport`; ``report.ok`` is the
    pass/fail verdict and ``report.violations`` names each broken
    invariant.
    """
    jobs = list(jobs) if jobs is not None else default_jobs()
    plan = random_fault_plan(seed)
    stream = _build_stream(seed, jobs, requests_total)
    py_rng = random.Random(f"chaos-actions-{seed}")
    action = "rolling-restart" if py_rng.random() < 0.35 else None
    started = time.monotonic()
    violations: List[str] = []

    router = Router(
        jobs,
        workers=workers,
        cache_dir=cache_dir,
        fault_plan=plan,
        retries=3,
        max_batch=4,
        flush_interval=0.002,  # longest hold, behind busy workers only
        bucket_cap=24,
        shed_target=0.05,
        shed_interval=0.05,
        hang_grace=2.0,
        record_events=True,
    )
    futures: List[Tuple[_StreamItem, object]] = []
    counts = {"shed": 0, "rejected": 0}
    tiny_outcomes: List[Tuple[int, str]] = []
    try:
        halfway = len(stream) // 2
        for index, item in enumerate(stream):
            if action == "rolling-restart" and index == halfway:
                try:
                    router.rolling_restart(timeout=90.0)
                except Exception as exc:  # noqa: BLE001 - verdict below
                    violations.append(f"rolling restart failed: {exc!r}")
            try:
                future = router.submit(
                    item.job_key,
                    item.inputs,
                    deadline=item.deadline,
                    idempotent=item.idempotent,
                    priority=item.priority,
                )
            except ShedError:
                counts["shed"] += 1
                continue
            except RejectedError:
                counts["rejected"] += 1
                continue
            futures.append((item, future))
            time.sleep(py_rng.random() * 0.002)
        drained = router.drain(timeout=drain_timeout)
        if not drained:
            violations.append(
                f"drain did not complete within {drain_timeout}s"
            )
        counts["completed"] = counts["failed"] = counts["expired"] = 0
        for index, (item, future) in enumerate(futures):
            try:
                output = future.result(timeout=30.0)
            except FutureTimeoutError:
                violations.append(
                    f"request {index} never reached a terminal outcome"
                )
                continue
            except DeadlineExceeded:
                counts["expired"] += 1
                if item.deadline == TINY_BUDGET:
                    tiny_outcomes.append((index, "expired"))
                continue
            except ShedError:
                counts["shed"] += 1
                continue
            except Exception:  # noqa: BLE001 - any typed failure is terminal
                counts["failed"] += 1
                if item.deadline == TINY_BUDGET:
                    tiny_outcomes.append((index, "failed"))
                continue
            counts["completed"] += 1
            if item.deadline == TINY_BUDGET:
                tiny_outcomes.append((index, "ok"))
            if not np.array_equal(output, item.reference):
                violations.append(
                    f"request {index} output differs from the"
                    f" single-process reference (parity violated)"
                )
        stats = router.stats()
        pools = router.pools()
    finally:
        router.close(timeout=30.0)

    # tiny-budget requests that were admitted must expire — completing
    # or failing would mean an already-expired request reached a worker
    for index, outcome in tiny_outcomes:
        if outcome != "expired":
            violations.append(
                f"tiny-budget request {index} ended {outcome!r}"
                f" instead of expiring before dispatch"
            )
    # conservation: the router's ledger balances, and matches ours
    offered = stats["offered"]
    accounted = (
        stats["completed"]
        + stats["failed"]
        + stats["rejected"]
        + stats["shed"]
        + stats["expired"]
    )
    if offered != accounted or stats["pending"] != 0:
        violations.append(
            f"stats conservation violated: offered={offered},"
            f" accounted={accounted}, pending={stats['pending']}"
        )
    for bucket in stats["buckets"]:
        if sum(bucket["flush_reasons"].values()) != bucket["flushes"]:
            violations.append(
                f"bucket {bucket['signature']}: {bucket['flushes']}"
                f" flushes, reasons {bucket['flush_reasons']}"
            )
    for key in ("completed", "failed", "expired"):
        if counts[key] != stats[key]:
            violations.append(
                f"harness counted {counts[key]} {key} but the router"
                f" reports {stats[key]}"
            )
    if counts["shed"] != stats["shed"] or (
        counts["rejected"] != stats["rejected"]
    ):
        violations.append(
            f"harness shed/rejected ({counts['shed']}/"
            f"{counts['rejected']}) disagree with the router"
            f" ({stats['shed']}/{stats['rejected']})"
        )
    for key, pool in pools.items():
        _check_events(pool, violations, f"pool {key[:8]}")
    _check_hygiene(violations)

    return SoakReport(
        seed=seed,
        plan=[spec.label for spec in plan.specs],
        action=action,
        submitted=len(futures),
        completed=counts["completed"],
        failed=counts["failed"],
        rejected=counts["rejected"],
        shed=counts["shed"],
        expired=counts["expired"],
        drained=drained,
        elapsed=time.monotonic() - started,
        violations=violations,
    )
