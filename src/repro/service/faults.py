"""Deterministic, seed-driven fault injection for the serving tier.

Every recovery path in the service layer — worker restart, request
retry, circuit-breaker degradation, artifact quarantine — is only
trustworthy if the failure that exercises it is *reproducible*.  This
module provides that: a :class:`FaultPlan` is a picklable, seeded
description of which faults fire at which visits to which runtime
seams, and two runs with the same plan and the same visit sequence
inject exactly the same faults.

The runtime seams call :func:`repro.runtime.faultpoints.fire` (a no-op
by default); :func:`install` hooks the plan into it for this process.
Worker processes re-install the plan themselves
(:mod:`repro.service.supervisor` passes it down), with a *scope* that
records the worker id and incarnation — so a spec can target "the
first life of any worker" and a restarted worker does not re-fire it.

Fault modes
-----------

======================  ==============  ==================================
mode                    default site    effect when it fires
======================  ==============  ==================================
``raise-in-kernel``     kernel.compile  raises :class:`InjectedKernelError`
``hang-kernel``         kernel.compile  sleeps ``seconds`` (default 30)
``kill-worker``         kernel.compile  ``os._exit(KILL_EXIT_CODE)``
``alloc-fail``          arena.alloc     raises :class:`InjectedAllocFailure`
                                        (a ``MemoryError``)
``corrupt-artifact``    store.read      deterministically flips bytes of
                                        the file about to be read
``slow-io``             store.read      sleeps ``seconds`` (default 0.05)
``io-error``            store.read      raises :class:`InjectedIOError`
                                        (an ``OSError``; the store's
                                        bounded retry absorbs transients)
``corrupt-shm-slot``    shm.read        deterministically flips bytes of
                                        the shared-memory frame being
                                        read, after the reader mapped it
                                        but before its CRC check — a
                                        checksummed ring must reject it
======================  ==============  ==================================

Example::

    from repro.service import faults
    from repro.service.faults import FaultPlan, FaultSpec

    plan = FaultPlan(seed=7, specs=[
        FaultSpec("raise-in-kernel", rate=0.10),       # 10% of visits
        FaultSpec("kill-worker", visits=(2,),          # 3rd kernel call,
                  scope={"incarnation": 0}),           # original workers only
    ])
    with faults.active(plan):
        server.run_many(requests)          # recovery paths exercised
    print(plan.stats())                    # what actually fired
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..runtime import faultpoints

#: exit status used by an injected worker kill — distinguishable from a
#: real segfault (negative signal codes) and from a clean exit (0)
KILL_EXIT_CODE = 66

MODES = (
    "raise-in-kernel",
    "hang-kernel",
    "kill-worker",
    "alloc-fail",
    "corrupt-artifact",
    "slow-io",
    "io-error",
    "corrupt-shm-slot",
)

#: where each mode attaches unless the spec names a site explicitly
DEFAULT_SITES = {
    "raise-in-kernel": "kernel.compile",
    "hang-kernel": "kernel.compile",
    "kill-worker": "kernel.compile",
    "alloc-fail": "arena.alloc",
    "corrupt-artifact": "store.read",
    "slow-io": "store.read",
    "io-error": "store.read",
    "corrupt-shm-slot": "shm.read",
}

#: per-mode default sleep for the time-based faults
DEFAULT_SECONDS = {"hang-kernel": 30.0, "slow-io": 0.05}


class InjectedFault(RuntimeError):
    """Base class of every error raised by an injected fault."""


class InjectedKernelError(InjectedFault):
    """An injected in-kernel failure (``raise-in-kernel``)."""


class InjectedAllocFailure(InjectedFault, MemoryError):
    """An injected allocation failure (``alloc-fail``)."""


class InjectedIOError(InjectedFault, OSError):
    """An injected (transient) IO error (``io-error``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a mode, where it attaches, and when it fires.

    ``visits`` pins firing to exact visit indices of the site (0-based,
    counted per spec) — the precise form tests want.  Without it,
    ``rate`` is the per-visit firing probability, decided by a seeded
    hash so the pattern is identical on every run.  ``max_fires`` caps
    total fires either way.  ``scope`` restricts the spec to processes
    whose install-time scope matches every given key (e.g.
    ``{"worker": 0}`` or ``{"incarnation": 0}``).
    """

    mode: str
    site: Optional[str] = None
    rate: float = 1.0
    visits: Optional[Tuple[int, ...]] = None
    max_fires: Optional[int] = None
    seconds: Optional[float] = None
    scope: Optional[dict] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {MODES}"
            )
        if self.visits is not None:
            object.__setattr__(
                self, "visits", tuple(int(v) for v in self.visits)
            )

    @property
    def resolved_site(self) -> str:
        return self.site or DEFAULT_SITES[self.mode]

    @property
    def resolved_seconds(self) -> float:
        if self.seconds is not None:
            return self.seconds
        return DEFAULT_SECONDS.get(self.mode, 0.05)

    @property
    def label(self) -> str:
        """A compact one-line description for soak reports and logs."""
        bits = [f"{self.mode}@{self.resolved_site}"]
        if self.visits is not None:
            bits.append(f"visits={list(self.visits)}")
        else:
            bits.append(f"rate={self.rate:g}")
        if self.max_fires is not None:
            bits.append(f"max_fires={self.max_fires}")
        if self.mode in DEFAULT_SECONDS:
            bits.append(f"seconds={self.resolved_seconds:g}")
        if self.scope:
            bits.append(f"scope={self.scope}")
        return " ".join(bits)


class FaultPlan:
    """A seeded, reproducible set of :class:`FaultSpec` injections.

    Picklable (it crosses the process boundary into supervised
    workers); visit counters and the fire log are per-process state and
    reset on unpickle, so every worker incarnation starts from visit 0
    — which is what makes restarts deterministic.
    """

    def __init__(self, seed: int = 0, specs: Sequence[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {type(spec)!r}")
        self._reset_state()

    def _reset_state(self) -> None:
        # construction / unpickle time: the plan is not yet visible to
        # other threads, so the guarded fields may be seeded unlocked
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._visits = [0] * len(self.specs)  # analysis: ignore[guarded-by]
        # guarded-by: _lock
        self._fires = [0] * len(self.specs)  # analysis: ignore[guarded-by]
        #: every fault that fired: (site, mode, visit index)
        # guarded-by: _lock
        self.log: List[Tuple[str, str, int]] = []  # analysis: ignore[guarded-by]

    def __getstate__(self):
        return {"seed": self.seed, "specs": self.specs}

    def __setstate__(self, state):
        self.seed = state["seed"]
        self.specs = state["specs"]
        self._reset_state()

    def __repr__(self) -> str:
        with self._lock:
            fired = sum(self._fires)
        return (
            f"FaultPlan(seed={self.seed}, specs={len(self.specs)},"
            f" fired={fired})"
        )

    # -- firing decision -----------------------------------------------------

    def _fraction(self, index: int, visit: int) -> float:
        """A stable pseudo-random fraction in [0, 1) for one visit."""
        digest = hashlib.sha256(
            f"{self.seed}:{index}:{visit}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def fire(
        self, site: str, scope: Optional[dict] = None, **context
    ) -> None:
        """Visit ``site``; execute every matching spec that decides to fire."""
        for index, spec in enumerate(self.specs):
            if spec.resolved_site != site:
                continue
            if spec.scope:
                probe = scope or {}
                if any(probe.get(k) != v for k, v in spec.scope.items()):
                    continue
            with self._lock:
                visit = self._visits[index]
                self._visits[index] += 1
                if (
                    spec.max_fires is not None
                    and self._fires[index] >= spec.max_fires
                ):
                    continue
                if spec.visits is not None:
                    should = visit in spec.visits
                else:
                    should = (
                        spec.rate >= 1.0
                        or self._fraction(index, visit) < spec.rate
                    )
                if not should:
                    continue
                self._fires[index] += 1
                self.log.append((site, spec.mode, visit))
            self._execute(spec, site, visit, context)

    # -- fault behaviors -----------------------------------------------------

    def _execute(
        self, spec: FaultSpec, site: str, visit: int, context: dict
    ) -> None:
        label = f"injected {spec.mode} at {site}#{visit}"
        if spec.mode == "raise-in-kernel":
            raise InjectedKernelError(label)
        if spec.mode == "alloc-fail":
            raise InjectedAllocFailure(label)
        if spec.mode == "io-error":
            raise InjectedIOError(label)
        if spec.mode in ("hang-kernel", "slow-io"):
            time.sleep(spec.resolved_seconds)
            return
        if spec.mode == "kill-worker":
            os._exit(KILL_EXIT_CODE)
        if spec.mode == "corrupt-artifact":
            self._corrupt_file(context.get("path"), visit)
        if spec.mode == "corrupt-shm-slot":
            self._corrupt_slot(context.get("buf"), visit)

    def _corrupt_slot(self, buf, visit: int) -> None:
        """Deterministically flip a run of bytes in a mapped
        shared-memory frame (a writable uint8 view, or absent)."""
        if buf is None or getattr(buf, "size", 0) == 0:
            return
        garbage = hashlib.sha256(
            f"{self.seed}:corrupt-shm:{visit}".encode("utf-8")
        ).digest()
        offset = buf.size // 3
        span = min(len(garbage), buf.size - offset)
        # XOR with a non-zero mask guarantees the bytes change
        import numpy as np

        mask = bytes((g | 0x01) for g in garbage[:span])
        try:
            buf[offset:offset + span] ^= np.frombuffer(mask, dtype=np.uint8)
        except (TypeError, ValueError):  # read-only or exotic view
            return

    def _corrupt_file(self, path: Optional[str], visit: int) -> None:
        """Deterministically flip a run of bytes in ``path`` (if present)."""
        if not path:
            return
        try:
            size = os.path.getsize(path)
        except OSError:
            return
        if size == 0:
            return
        garbage = hashlib.sha256(
            f"{self.seed}:corrupt:{visit}".encode("utf-8")
        ).digest()
        offset = size // 3
        try:
            with open(path, "r+b") as handle:
                handle.seek(offset)
                original = handle.read(len(garbage))
                handle.seek(offset)
                # XOR with a non-zero mask guarantees the bytes change
                handle.write(
                    bytes(
                        b ^ (g | 0x01)
                        for b, g in zip(original, garbage)
                    )
                )
        except OSError:
            return

    # -- telemetry -----------------------------------------------------------

    def fired(self, mode: Optional[str] = None) -> int:
        """Total fires, optionally restricted to one mode."""
        with self._lock:
            if mode is None:
                return sum(self._fires)
            return sum(1 for _, m, _ in self.log if m == mode)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "visits": list(self._visits),
                "fires": list(self._fires),
                "log": list(self.log),
            }


# -- process-wide installation --------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_SCOPE: Optional[dict] = None


def _dispatch(site: str, **context) -> None:
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site, scope=_SCOPE, **context)


def install(plan: FaultPlan, scope: Optional[dict] = None) -> FaultPlan:
    """Activate ``plan`` for this process (replacing any active plan).

    ``scope`` labels this process for spec matching — the supervisor
    installs ``{"worker": id, "incarnation": n}`` inside each worker.
    """
    global _ACTIVE, _SCOPE
    _ACTIVE = plan
    _SCOPE = dict(scope) if scope else None
    faultpoints._fire = _dispatch
    return plan


def uninstall() -> None:
    """Deactivate fault injection for this process."""
    global _ACTIVE, _SCOPE
    _ACTIVE = None
    _SCOPE = None
    faultpoints._fire = None


@contextmanager
def active(
    plan: FaultPlan, scope: Optional[dict] = None
) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    install(plan, scope=scope)
    try:
        yield plan
    finally:
        uninstall()


# -- degraded-mode primitive ----------------------------------------------------


@dataclass
class CircuitBreaker:
    """Trip after ``threshold`` *consecutive* failures; stay open.

    ``Server`` guards its compiled backend with one: while closed, the
    fast path is tried and a success resets the failure streak; once
    open, callers route the degraded path until :meth:`reset`.
    Thread-safe; every transition is counted so ``stats()`` can prove
    a trip happened.
    """

    threshold: int = 3
    name: str = ""
    consecutive_failures: int = 0  # guarded-by: _lock
    total_failures: int = 0  # guarded-by: _lock
    trips: int = 0  # guarded-by: _lock
    open: bool = False  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def allow(self) -> bool:
        """Whether the protected path should be attempted."""
        with self._lock:
            return not self.open

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count a failure; returns True when *this* failure trips it."""
        with self._lock:
            self.consecutive_failures += 1
            self.total_failures += 1
            if not self.open and self.consecutive_failures >= self.threshold:
                self.open = True
                self.trips += 1
                return True
            return False

    def reset(self) -> None:
        """Close the breaker (an operator action; trips stay counted)."""
        with self._lock:
            self.open = False
            self.consecutive_failures = 0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "open": self.open,
                "trips": self.trips,
                "consecutive_failures": self.consecutive_failures,
                "total_failures": self.total_failures,
                "threshold": self.threshold,
            }
