"""The on-disk compile-artifact store.

One artifact is the complete output of the expensive half of a compile:
the post-selection **tensorized statement** (so a fresh process skips
equality saturation) and, for the compiled backend, the generated
**kernel payload** — NumPy source plus injected constants (so codegen
is skipped too).  Artifacts are content-addressed by
:class:`~.fingerprint.ArtifactKey`; every other kernel a pipeline
compiles (its batch-axis variants, and the per-request kernel of a
pipeline with no selection to cache) is a standalone payload under its
digested kernel-cache key.  The layout::

    <root>/<digest[:2]>/<digest>.artifact       (checksummed pickle)
    <root>/<digest[:2]>/<digest>.kernel         (checksummed pickle)
    <root>/quarantine/                          (corrupt payloads, kept)

Writes are atomic — the payload is written to a temp file in the same
directory and ``os.replace``-d into place — so concurrent compilers
(the :class:`~.batch.BatchCompiler` worker processes, or independent
services sharing a network volume) can merge into one store without a
lock and without ever exposing a torn artifact.

Reads are **hardened** for serving-tier robustness:

* every payload is framed with a SHA-256 checksum
  (:func:`frame_blob`), verified before any bytes reach the pickle
  layer — bit rot and torn writes surface as a typed rejection, never
  as undefined unpickling behavior;
* rejected artifacts (bad checksum, format/key mismatch, stale kernel
  format) are moved into a ``quarantine/`` directory instead of being
  silently unlinked, so an operator can inspect what corrupted — and
  the ``quarantined`` counter in :class:`StoreStats` proves it
  happened;
* transient IO errors are retried a bounded number of times
  (``io_attempts``, short linear backoff) before the lookup degrades to
  a miss — a flaky network mount costs a retry, not a cold compile.

Every read/write passes the ``store.read`` / ``store.write`` fault
points (:mod:`repro.runtime.faultpoints`), so corruption, slow IO, and
transient errors are all injectable by a deterministic
:class:`~.faults.FaultPlan`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..ir import Stmt
from ..runtime.faultpoints import fire
from .fingerprint import ArtifactKey

#: everything a pickled payload written by another (possibly newer or
#: older) process can throw while being loaded or re-hydrated: torn
#: bytes, renamed classes/modules, format drift.
PICKLE_LOAD_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    OSError,
    KeyError,
    IndexError,
    AttributeError,
    ImportError,
    SyntaxError,
    ValueError,
    TypeError,
)


#: header of every checksummed payload file: magic + format byte
FRAME_MAGIC = b"RPROF\x01"


class ChecksumError(ValueError):
    """A framed payload failed its integrity check (torn or bit-rotted)."""


def frame_blob(blob: bytes) -> bytes:
    """Wrap ``blob`` in the checksummed on-disk frame.

    Layout: ``FRAME_MAGIC + sha256(blob) + blob``.  The checksum lets
    readers distinguish a torn or bit-rotted file from a valid payload
    *before* handing bytes to the pickle layer — corruption becomes a
    typed :class:`ChecksumError` instead of undefined unpickling
    behavior.
    """
    return FRAME_MAGIC + hashlib.sha256(blob).digest() + blob


def unframe_blob(data: bytes) -> bytes:
    """Verify and strip the frame written by :func:`frame_blob`.

    Raises :class:`ChecksumError` on a missing/unknown header or a
    checksum mismatch — never returns unverified bytes.
    """
    header = len(FRAME_MAGIC)
    if len(data) < header + 32 or not data.startswith(FRAME_MAGIC):
        raise ChecksumError("missing or unknown payload frame header")
    digest = data[header : header + 32]
    blob = data[header + 32 :]
    if hashlib.sha256(blob).digest() != digest:
        raise ChecksumError("payload checksum mismatch (corrupt file)")
    return blob


def sharded_path(root: str, key: str, suffix: str) -> str:
    """``<root>/<key[:2]>/<key><suffix>`` — the shared content-addressed
    disk layout (two-level sharding keeps directories small)."""
    return os.path.join(root, key[:2], key + suffix)


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically (temp file + rename).

    Readers either see the old contents or the new contents, never a
    torn write — concurrent writers simply race on who renames last.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


#: bump when the artifact layout changes — or when the engine that
#: selected the stored statement does, which the key cannot see (it
#: hashes the rules, not the code that runs them); old artifacts become
#: misses (v2: payloads are checksum-framed, rejects are quarantined;
#: v3: congruence-complete e-graph and id-free extraction tie-breaks —
#: selected statements moved)
ARTIFACT_FORMAT_VERSION = 3

#: subdirectory of the store root holding rejected payloads
QUARANTINE_DIRNAME = "quarantine"


@dataclass
class CompileArtifact:
    """Everything a warm start needs, decoupled from the live process."""

    #: the digest of the key this artifact was stored under
    key_digest: str
    #: the four key components, for post-load validation
    key: ArtifactKey
    #: the post-selection (tensorized) statement
    stmt: Stmt
    #: per-store selection outcome rows ``{"name", "kind", "mapped"}``
    store_rows: List[Dict[str, object]] = field(default_factory=list)
    #: :func:`repro.runtime.codegen.serialize_kernel` payload, or None
    #: for interpret-backend artifacts / fallback kernels
    kernel: Optional[dict] = None
    #: seconds the original (cold) selection spent in equality saturation
    cold_eqsat_seconds: float = 0.0
    #: wall-clock seconds the original cold compile paid end to end
    cold_seconds: float = 0.0
    format_version: int = ARTIFACT_FORMAT_VERSION


@dataclass
class StoreStats:
    """Lookup/write accounting for one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    #: artifacts found on disk but rejected (format/key mismatch, torn
    #: or unreadable payload) — counted *in addition to* a miss
    stale: int = 0
    #: rejected payloads preserved under ``quarantine/`` (a subset of
    #: ``stale``: rejects whose file could be moved aside for autopsy)
    quarantined: int = 0
    #: transient IO errors absorbed by the bounded read retry
    io_retries: int = 0
    writes: int = 0
    #: persists that failed (read-only mount, disk full) and were
    #: skipped — the compile itself still succeeds
    write_errors: int = 0
    load_seconds: float = 0.0
    store_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "quarantined": self.quarantined,
            "io_retries": self.io_retries,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "load_seconds": self.load_seconds,
            "store_seconds": self.store_seconds,
        }


class ArtifactStore:
    """A content-addressed, multi-process-safe artifact directory.

    ``io_attempts``/``io_retry_delay`` bound the retry loop around
    transient read errors (a flaky mount): each failed attempt sleeps
    ``io_retry_delay * attempt`` before retrying, and exhaustion
    degrades the lookup to a miss.
    """

    def __init__(
        self,
        root: str,
        io_attempts: int = 3,
        io_retry_delay: float = 0.01,
    ) -> None:
        self.root = str(root)
        self.io_attempts = max(1, int(io_attempts))
        self.io_retry_delay = float(io_retry_delay)
        os.makedirs(self.root, exist_ok=True)
        self.stats = StoreStats()

    def __repr__(self) -> str:
        return f"ArtifactStore({self.root!r}, {len(self)} artifacts)"

    def path_for(self, digest: str) -> str:
        return sharded_path(self.root, digest, ".artifact")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIRNAME)

    # -- hardened IO -----------------------------------------------------------

    def _read_bytes(self, path: str) -> bytes:
        """Read ``path`` with bounded retry on transient IO errors.

        ``FileNotFoundError`` propagates immediately (a plain miss);
        any other ``OSError`` is retried up to ``io_attempts`` times
        with a short linear backoff, then re-raised.
        """
        last: Optional[OSError] = None
        for attempt in range(self.io_attempts):
            try:
                fire("store.read", path=path)
                with open(path, "rb") as handle:
                    return handle.read()
            except FileNotFoundError:
                raise
            except OSError as exc:
                last = exc
                if attempt + 1 < self.io_attempts:
                    self.stats.io_retries += 1
                    time.sleep(self.io_retry_delay * (attempt + 1))
        assert last is not None
        raise last

    def _read(self, path: str, accept: Callable[[object], object]):
        """Read, checksum-verify and unpickle one payload file, then let
        ``accept`` turn it into the value to serve — or None to reject.

        A missing file is a miss; a corrupt or rejected one is stale
        and quarantined — never served.  The one read discipline of
        every file kind the store holds.
        """
        start = time.perf_counter()
        try:
            payload = pickle.loads(unframe_blob(self._read_bytes(path)))
            value = accept(payload)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ChecksumError, *PICKLE_LOAD_ERRORS) as exc:
            if isinstance(exc, OSError):
                # transient IO exhausted the retry budget: the file may
                # be fine — degrade to a miss without quarantining it
                self.stats.misses += 1
            else:
                self._reject(path)
            return None
        finally:
            self.stats.load_seconds += time.perf_counter() - start
        if value is None:
            self._reject(path)
            return None
        self.stats.hits += 1
        return value

    def _write(self, path: str, payload: object) -> None:
        """Frame and atomically persist one payload file."""
        start = time.perf_counter()
        fire("store.write", path=path)
        atomic_write_bytes(
            path,
            frame_blob(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            ),
        )
        self.stats.writes += 1
        self.stats.store_seconds += time.perf_counter() - start

    # -- lookup ----------------------------------------------------------------

    def get(self, key: ArtifactKey) -> Optional[CompileArtifact]:
        """The artifact for ``key``, or None (miss, stale, or unreadable)."""
        digest = key.digest

        def accept(artifact):
            if (
                isinstance(artifact, CompileArtifact)
                and artifact.format_version == ARTIFACT_FORMAT_VERSION
                and artifact.key_digest == digest
                and artifact.key == key
            ):
                return artifact
            return None

        return self._read(self.path_for(digest), accept)

    def _reject(self, path: str) -> None:
        """Count a stale artifact and quarantine it for autopsy."""
        self.stats.stale += 1
        self.stats.misses += 1
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            os.replace(
                path,
                os.path.join(self.quarantine_dir, os.path.basename(path)),
            )
            self.stats.quarantined += 1
        except OSError:
            # quarantine unavailable (read-only mount, cross-device):
            # fall back to dropping the file so it is never re-served
            try:
                os.unlink(path)
            except OSError:
                pass

    def quarantined_files(self) -> List[str]:
        """Paths of every quarantined payload (newest last)."""
        try:
            entries = sorted(os.listdir(self.quarantine_dir))
        except OSError:
            return []
        return [os.path.join(self.quarantine_dir, e) for e in entries]

    def demote_hit(self, key: ArtifactKey) -> None:
        """Reclassify the most recent hit on ``key`` as stale.

        For callers that discover *after* a successful ``get`` that the
        artifact is unusable (e.g. its embedded kernel payload predates
        the current kernel format): the served-artifact is quarantined
        and the counters read as if the lookup had missed, so the two
        telemetry surfaces (store stats, ``SelectionReport``) agree.
        """
        self.stats.hits -= 1
        self._reject(self.path_for(key.digest))

    # -- storage ---------------------------------------------------------------

    def put(self, key: ArtifactKey, artifact: CompileArtifact) -> str:
        """Persist ``artifact`` under ``key`` atomically; returns the path.

        Last writer wins; because the store is content-addressed, any
        two writers racing on one digest are persisting equivalent
        compiles of the same statement under the same rules.
        """
        artifact.key_digest = key.digest
        artifact.key = key
        path = self.path_for(key.digest)
        self._write(path, artifact)
        return path

    def try_put(
        self, key: ArtifactKey, artifact: CompileArtifact
    ) -> Optional[str]:
        """:meth:`put`, but an unwritable store degrades to "not cached".

        A serving replica on a read-only mount (or a full disk) must
        still be able to *compile* — it just cannot warm anyone else.
        Returns the path, or None when the write was skipped.
        """
        try:
            return self.put(key, artifact)
        except OSError:
            self.stats.write_errors += 1
            return None

    # -- standalone kernels ----------------------------------------------------

    def kernel_path_for(self, key: str) -> str:
        """The on-disk location for a standalone kernel payload.

        Kernel-cache keys (a statement fingerprint, or a
        :func:`~repro.runtime.kernel_cache.batched_key` embedding the
        stacked-input split) are digested for the filename, so the
        layout stays uniform no matter how keys evolve.
        """
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return sharded_path(self.root, digest, ".kernel")

    def get_kernel(self, key: str):
        """Re-hydrate the standalone kernel stored under ``key``.

        Returns a ready :class:`~repro.runtime.codegen.CompiledKernel`,
        or None on a miss.  A payload whose checksum fails, whose
        embedded key disagrees, or whose kernel format predates the
        current ``KERNEL_FORMAT_VERSION`` is stale: rejected,
        quarantined, and counted — never served.
        """
        from ..runtime.codegen import CodegenError, deserialize_kernel

        def accept(payload):
            # unloadable source or constants raise one of the
            # PICKLE_LOAD_ERRORS, which _read rejects the same way
            if isinstance(payload, dict) and payload.get("key") == key:
                try:
                    return deserialize_kernel(payload)
                except CodegenError:  # another KERNEL_FORMAT_VERSION
                    pass
            return None

        return self._read(self.kernel_path_for(key), accept)

    def put_kernel(self, key: str, kernel) -> Optional[str]:
        """Persist a standalone kernel atomically; returns the path.

        Same degradation contract as :meth:`try_put` — an unwritable
        store (read-only replica, full disk) is "not cached", never an
        error on the compile path.  Returns None when the kernel is not
        serializable or the write was skipped.
        """
        from ..runtime.codegen import serialize_kernel

        payload = serialize_kernel(kernel)
        if payload is None:
            return None
        path = self.kernel_path_for(key)
        try:
            self._write(path, dict(payload, key=key))
        except OSError:
            self.stats.write_errors += 1
            return None
        return path

    # -- maintenance -----------------------------------------------------------

    def digests(self) -> Iterator[str]:
        """All artifact digests currently on disk (quarantine excluded)."""
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            if shard == QUARANTINE_DIRNAME:
                continue
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for entry in sorted(os.listdir(shard_dir)):
                if entry.endswith(".artifact"):
                    yield entry[: -len(".artifact")]

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def clear(self) -> None:
        """Remove every artifact (leaves the directory in place)."""
        for digest in list(self.digests()):
            try:
                os.unlink(self.path_for(digest))
            except OSError:
                pass
