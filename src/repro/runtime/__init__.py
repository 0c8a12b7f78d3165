"""Execution runtime: buffers, the two backends, counters.

Two execution backends share one lowered-IR contract: the instrumented
tree-walking :class:`Interpreter` and the compiled NumPy backend in
:mod:`.codegen` (memoized by :class:`.kernel_cache.KernelCache`).
"""

from .buffer import Buffer
from .counters import Counters
from .interpreter import INTRINSICS, Interpreter, memory_level
from .kernel_cache import DEFAULT_CACHE, KernelCache, fingerprint_stmt
from .plan import BufferArena, ExecutionPlan

__all__ = [
    "Buffer",
    "BufferArena",
    "Counters",
    "DEFAULT_CACHE",
    "ExecutionPlan",
    "INTRINSICS",
    "Interpreter",
    "KernelCache",
    "fingerprint_stmt",
    "memory_level",
]
