"""Memoization of compiled NumPy kernels keyed on the lowered statement.

Compiling a lowered statement to Python source (see :mod:`.codegen`) is
cheap but not free, and production pipelines re-realize the same
schedule thousands of times.  The cache key is a *structural*
fingerprint of the lowered statement tree: two ``lower()`` calls over
the same Func DAG with the same schedule produce equal statements and
therefore hit the same cached kernel, while any schedule change (a
different split factor, vector width, storage annotation, ...) alters
the statement and misses.

The IR is built from frozen dataclasses whose ``repr`` is complete and
deterministic (every field, recursively, including dtypes and loop
kinds), so hashing the repr is a stable fingerprint without a bespoke
serializer.

The cache lives in memory only.  Kernels reach disk — and a *fresh
process* — through one format: the checksummed, quarantining
:class:`~repro.service.store.ArtifactStore` a pipeline may have wired,
consulted by :meth:`CompiledPipeline.kernel
<repro.runtime.executor.CompiledPipeline.kernel>` between this cache
and codegen.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional

from ..ir import Stmt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..lowering.pipeline import Lowered
    from .codegen import CompiledKernel


def fingerprint_stmt(stmt: Stmt) -> str:
    """A stable content hash of a lowered statement tree."""
    return hashlib.sha256(repr(stmt).encode("utf-8")).hexdigest()


def batched_key(key: str, stacked) -> str:
    """The batch-aware cache key for a batch-axis kernel variant.

    A statement has one scalar kernel but potentially several batched
    variants — one per shared/stacked input split (e.g. shared weights
    vs. a B=1 bucket where everything is shared) — so the stacked-name
    set is folded into the key alongside the statement fingerprint.
    """
    digest = hashlib.sha256(
        "\x00".join(sorted(stacked)).encode("utf-8")
    ).hexdigest()
    return f"{key}-b{digest[:16]}"


class KernelCache:
    """An in-memory LRU of compiled kernels with hit/miss accounting.

    Thread-safe: the LRU and its counters are guarded by a lock, so any
    number of serving workers (``run_many`` plans, the plan each
    :class:`repro.service.Server` worker thread holds) may share one cache —
    including the process-wide default.  Codegen itself runs outside
    the lock; two threads racing on the same miss simply compile
    equivalent kernels and the last ``put`` wins.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.hits = 0  # guarded-by: _lock
        #: lookups the memory tier could not serve: the caller restored
        #: the kernel from an artifact store or ran codegen
        self.misses = 0  # guarded-by: _lock
        # guarded-by: _lock
        self._kernels: "OrderedDict[str, CompiledKernel]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)

    def clear(self) -> None:
        """Drop every kernel and reset the counters."""
        with self._lock:
            self._kernels.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits / misses / entries."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._kernels),
            }

    def lookup(self, key: str) -> Optional["CompiledKernel"]:
        """The kernel under ``key`` or None, without counting."""
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is not None:
                self._kernels.move_to_end(key)
            return kernel

    def fetch(self, key: str) -> Optional["CompiledKernel"]:
        """:meth:`lookup`, counted as a hit or a miss — on a miss the
        caller builds the kernel and puts it."""
        with self._lock:
            kernel = self.lookup(key)
            if kernel is None:
                self.misses += 1
            else:
                self.hits += 1
            return kernel

    def put(self, key: str, kernel: "CompiledKernel") -> None:
        """Install a kernel (e.g. one restored from a compile artifact)."""
        with self._lock:
            self._kernels[key] = kernel
            self._kernels.move_to_end(key)
            while len(self._kernels) > self.maxsize:
                self._kernels.popitem(last=False)

    def get(
        self, lowered: "Lowered", key: Optional[str] = None
    ) -> "CompiledKernel":
        """The per-request kernel for ``lowered.stmt``, compiling on miss
        — no artifact store between (that is ``CompiledPipeline.kernel``).

        Callers that run repeatedly should precompute ``key`` once
        (:func:`fingerprint_stmt` walks the whole statement repr).
        """
        from .codegen import compile_stmt

        if key is None:
            key = fingerprint_stmt(lowered.stmt)
        kernel = self.fetch(key)
        if kernel is None:
            # compile outside the lock: codegen is slow and pure, so
            # racing threads at worst duplicate work, never block every
            # other pipeline in the process behind one compile
            kernel = compile_stmt(lowered.stmt, key=key)
            self.put(key, kernel)
        return kernel


#: process-wide cache used by :class:`repro.runtime.executor.CompiledPipeline`
#: unless a private cache is passed in.
DEFAULT_CACHE = KernelCache()
