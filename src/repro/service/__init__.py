"""The warm-start compile service (compile once, serve many).

Every process used to pay full equality-saturation and codegen cost
from scratch; this package adds the persistence and batching layer on
top of the compiler:

* :mod:`.fingerprint` — content-addressed artifact keys: pre-selection
  statement fingerprint x rule-set fingerprint x backend x device.
* :mod:`.store` — the on-disk :class:`ArtifactStore`: atomic writes,
  stale/corrupt artifacts rejected on read, safe for any number of
  concurrent compilers.
* :mod:`.compile` — :func:`warm_select` / :func:`compile_lowered`: the
  hit path restores the tensorized statement and the generated NumPy
  kernel, skipping saturation *and* codegen entirely.
* :mod:`.batch` — :class:`BatchCompiler`: precompile a catalog of apps
  into one shared store over worker processes.
* :mod:`.serve` — :class:`Server`: the execution-side counterpart —
  persistent worker threads, each running every request on one warm
  :class:`~repro.runtime.plan.ExecutionPlan`, with retries, admission
  control, and a breaker that degrades to the equivalent interpreter;
  also the request record and error types all front ends share.
* :mod:`.supervisor` — :class:`WorkerPool`: crash-isolated worker
  *processes* supervised over pipes — heartbeats, deadlines, automatic
  restarts, and bounded re-dispatch of in-flight requests.
* :mod:`.shm` — :class:`ShmRing`: the zero-copy shared-memory data
  plane under the pool — fixed-slot ring buffers with seqlock handoff
  and checksummed tensor frames, falling back to the pipe gracefully.
* :mod:`.router` — :class:`Router`: the mixed-stream front end —
  buckets requests by (app fingerprint, shape signature, backend),
  micro-batches each bucket into the batch-axis kernels, and reports
  per-bucket p50/p99 latency and throughput.
* :mod:`.faults` — the deterministic fault-injection harness
  (:class:`FaultPlan`) and the :class:`CircuitBreaker` primitive the
  serving tier degrades with.

Quick tour::

    from repro.lowering import lower
    from repro.service import ArtifactStore, compile_lowered

    store = ArtifactStore("/var/cache/repro-artifacts")
    pipeline, report = compile_lowered(
        lower(out), store, backend="compile", strict=True
    )
    print(report.artifact_cache)      # "miss" the first time, then "hit"
    result = pipeline.run(inputs)     # kernel already seeded on a hit
"""

from .batch import BatchCompiler, BatchReport, CompileJob, JobResult, compile_one
from .compile import (
    WarmCompileResult,
    compile_lowered,
    warm_compile,
    warm_select,
)
from .fingerprint import (
    ArtifactKey,
    fingerprint_families,
    rule_fingerprint,
    ruleset_fingerprint,
)
from .faults import CircuitBreaker, FaultPlan, FaultSpec, InjectedFault
from .serve import RejectedError, Server, ServerClosed, ShedError
from .store import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactStore,
    CompileArtifact,
    StoreStats,
)
from .router import Router, job_fingerprint, shape_signature
from .shm import (
    ShmCorruption,
    ShmRing,
    ShmRingSpec,
    ShmUnavailable,
    leaked_segments,
)
from .supervisor import (
    DeadlineExceeded,
    RemoteError,
    WorkerCrashed,
    WorkerInitFailed,
    WorkerPool,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactKey",
    "ArtifactStore",
    "BatchCompiler",
    "BatchReport",
    "CircuitBreaker",
    "CompileArtifact",
    "CompileJob",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JobResult",
    "RejectedError",
    "RemoteError",
    "Router",
    "Server",
    "ServerClosed",
    "ShedError",
    "ShmCorruption",
    "ShmRing",
    "ShmRingSpec",
    "ShmUnavailable",
    "StoreStats",
    "WarmCompileResult",
    "WorkerCrashed",
    "WorkerInitFailed",
    "WorkerPool",
    "compile_lowered",
    "compile_one",
    "fingerprint_families",
    "job_fingerprint",
    "leaked_segments",
    "rule_fingerprint",
    "ruleset_fingerprint",
    "shape_signature",
    "warm_compile",
    "warm_select",
]
