"""Low-level fault-point indirection.

The runtime's failure-injection seams (``ExecutionPlan.run``,
``BufferArena.take``, the artifact store's read/write paths) all route
through :func:`fire`.  By default it is a no-op costing one global
check; :mod:`repro.service.faults` installs an active
:class:`~repro.service.faults.FaultPlan` here, which turns each seam
into a deterministic injection site.

This module deliberately lives *below* the service layer and imports
nothing, so runtime modules can call :func:`fire` without creating an
import cycle with :mod:`repro.service`.

Sites currently wired:

========================  ====================================================
``kernel.compile``        before a compiled-kernel invocation (plan, batched
                          plan, and ``CompiledPipeline.run``)
``kernel.interpret``      before an interpreter execution of the statement
``arena.alloc``           inside ``BufferArena.take`` (flat and ``batch=`` stacked)
``store.read``            before an artifact/kernel payload is read from disk
``store.write``           before an artifact/kernel payload is persisted
``shm.read``              after a shared-memory frame is mapped by its reader,
                          before the CRC check (``ShmRing.read``); context
                          carries the writable payload view as ``buf``
``shm.write``             before a shared-memory frame is published
                          (``ShmRing.publish``), before its CRC is computed
========================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Optional

#: the active plan's fire callable, or None (no injection).  Installed
#: and cleared by ``repro.service.faults.install``/``uninstall``.
_fire: Optional[Callable[..., None]] = None


def fire(site: str, **context) -> None:
    """Visit the fault point ``site``; a no-op unless a plan is active.

    An active plan may raise (injected error), sleep (injected hang or
    slow IO), mutate on-disk state (injected corruption), or kill the
    process (injected worker crash) — see
    :class:`repro.service.faults.FaultPlan`.
    """
    hook = _fire
    if hook is not None:
        hook(site, **context)


def active() -> bool:
    """Whether a fault plan is currently installed in this process."""
    return _fire is not None
