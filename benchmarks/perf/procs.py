"""Leave no process behind: every path out of ``run.py`` ends here.

The program's pools stop and join their own workers, but
``multiprocessing`` starts one helper nobody joins: the resource
tracker that ``SharedMemory`` registers segments with.  It only ends
when its pipe closes, i.e. *after* the benchmark has exited, and then
lingers as an orphan until init reaps it.  So the benchmark makes
itself the reaper of everything below it, and before it exits stops the
tracker, ends whatever else is left and waits for each.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Orphaned descendants (a worker's own helper, say) re-parent to
    this process instead of init, so ``reap_all`` sees them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass  # not Linux: only direct children are reaped


def raise_on_sigterm() -> None:
    """A ``kill`` from outside unwinds through the ``finally`` blocks
    instead of ending the process above its children."""

    def handler(_signum, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGTERM, handler)


def children() -> List[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_resource_tracker() -> None:
    """Close the tracker's pipe and wait for it; a no-op if it never
    started (or on an interpreter without the private hook)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def reap_all(grace: float = 5.0) -> List[int]:
    """Stop the tracker, then end and wait for every remaining child.
    Returns the pids that had to be signalled — after a clean run, none."""
    stop_resource_tracker()
    signalled = set()
    deadline = time.monotonic() + grace
    while True:
        left = children()
        if not left:
            return sorted(signalled)
        hard = time.monotonic() >= deadline
        for pid in left:
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    continue
            except ChildProcessError:
                continue
            if hard or pid not in signalled:
                signalled.add(pid)
                try:
                    os.kill(pid, signal.SIGKILL if hard else signal.SIGTERM)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
