"""Shared-memory ring-buffer transport for tensor payloads.

The supervised :class:`~repro.service.supervisor.WorkerPool` moves
requests across the process boundary; before this module, every tensor
rode the duplex pipe as a pickled bytes blob — a serialize + copy +
deserialize tax paid per request.  :class:`ShmRing` replaces the *data
plane* with a fixed-slot arena in ``multiprocessing.shared_memory``:

* the **writer** claims a free slot, copies the tensors of a whole
  micro-batch into it once (the only copy on the request path), and
  publishes it;
* the **reader** maps the slot's payload as **zero-copy NumPy views**
  — no pickling, no second copy — and runs kernels directly on them;
* the *control plane* (request ids, shapes, dtypes, slot indices)
  stays on the pipe, where tiny picklable tuples belong.

Slot handoff is **seqlock-style**: each slot carries a sequence
counter that is odd while the writer mutates the slot and even once
published; a reader that observes an odd sequence, or a sequence that
changed across its read, rejects the frame as torn.  Published frames
additionally carry a CRC-32 over the payload, so a corrupted slot (bit
rot, a scribbling bug, or the ``corrupt-shm-slot`` injected fault) is
rejected with a typed :class:`ShmCorruption` instead of silently
feeding garbage into a kernel.

Capacity is fixed at creation — slots are sized from the first
bucket's shape signature — and exhaustion is a *backpressure signal*:
:meth:`ShmRing.try_claim` returns ``None`` instead of blocking, and
callers fall back to the pipe path (a frame larger than a slot does
the same).  When shared memory itself is unavailable (no ``/dev/shm``,
a locked-down container), :func:`available` reports it and the pool
serves over pipes exactly as before.

Frames
------

One frame carries one micro-batch of name->array request dicts.
Tensors are deduplicated by object identity: an array that is the
*same object* in every request of the batch (the serving idiom for
weights) is written once and every unpacked request maps the same
view object — which is exactly what the batch-axis kernel's
shared/stacked split keys on.

Fault-injection seams: :func:`repro.runtime.faultpoints.fire` is
visited at ``shm.write`` (before a frame is published) and ``shm.read``
(after the payload view is mapped, before the CRC check) — see
:mod:`repro.service.faults`.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.faultpoints import fire

__all__ = [
    "FramePlan",
    "RingFull",
    "ShmCorruption",
    "ShmRing",
    "ShmRingSpec",
    "ShmUnavailable",
    "available",
    "leaked_segments",
    "plan_frame",
    "read_frame",
    "write_frame",
]

#: per-ring header: magic, slot count, slot capacity, checksum flag
_RING_HEADER = struct.Struct("<IIQB")
_RING_HEADER_BYTES = 64
#: per-slot header: seq (seqlock), payload length, state, crc32
_SLOT_HEADER = struct.Struct("<QQII")
_SLOT_HEADER_BYTES = 64
_MAGIC = 0x53524E47  # "SRNG"

#: slot states — writer owns FREE->WRITING->READY, reader READY->READING->FREE
FREE, WRITING, READY, READING = 0, 1, 2, 3

_ALIGN = 64
#: size of the segment :func:`available` creates to probe the host
_PROBE_BYTES = 1024


def _align(n: int, to: int = _ALIGN) -> int:
    return (n + to - 1) // to * to


class ShmCorruption(RuntimeError):
    """A published frame failed its CRC or seqlock validation."""


class RingFull(RuntimeError):
    """Every slot is in flight — backpressure the writer."""


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be created on this host."""


@dataclass(frozen=True)
class ShmRingSpec:
    """The picklable description a reader attaches from."""

    name: str
    slots: int
    slot_bytes: int
    checksum: bool = True


def _untrack(shm) -> None:
    """Detach ``shm`` from this process's resource tracker.

    ``SharedMemory`` registers every segment it touches with the
    resource tracker, which unlinks it when *this* process exits — for
    an attached (non-owning) handle that would destroy a segment the
    creator still uses, which is precisely the worker-crash case the
    supervisor must survive.  Best-effort: the private API may move.
    """
    try:  # pragma: no cover - depends on stdlib internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


#: every segment this process ever created, by name — hygiene ledger
_SEGMENTS_LOCK = threading.Lock()
_SEGMENTS: set = set()  # guarded-by: _SEGMENTS_LOCK


def _segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with ``name`` still exists."""
    import os

    path = os.path.join("/dev/shm", name.lstrip("/"))
    if os.path.isdir("/dev/shm"):
        return os.path.exists(path)
    try:  # pragma: no cover - non-tmpfs hosts
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:  # pragma: no cover
        return False
    except Exception:  # pragma: no cover
        return False
    _untrack(probe)  # pragma: no cover
    probe.close()  # pragma: no cover
    return True  # pragma: no cover


def leaked_segments() -> List[str]:
    """Segments created by this process that still exist on the host.

    The hygiene check behind the chaos-soak teardown invariant and the
    test-session fixture: after every ring owner has destroyed its
    segments this is empty.  Confirmed-gone names are dropped from the
    ledger so repeated calls stay cheap.
    """
    with _SEGMENTS_LOCK:
        names = sorted(_SEGMENTS)
    leaked = []
    for name in names:
        if _segment_exists(name):
            leaked.append(name)
        else:
            with _SEGMENTS_LOCK:
                _SEGMENTS.discard(name)
    return leaked


def available() -> bool:
    """Whether a shared-memory segment can actually be created here."""
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=_PROBE_BYTES)
    except Exception:
        return False
    try:
        segment.close()
        segment.unlink()
    except Exception:  # pragma: no cover - teardown best-effort
        pass
    return True


class ShmRing:
    """A fixed-slot shared-memory arena with seqlock slot handoff.

    One process creates the ring (:meth:`create`) and owns the
    segment's lifetime (:meth:`unlink`); the peer attaches from the
    picklable :attr:`spec`.  The protocol is single-writer /
    single-reader: the writer claims, fills, and publishes slots; the
    reader maps, validates, and releases them.  Which side created the
    segment is independent of which side writes.

    All slot state lives *in* the shared memory, so "the reader freed
    a slot" is visible to the writer without any message traffic.
    """

    def __init__(self, shm, spec: ShmRingSpec, owner: bool) -> None:
        self._shm = shm
        self._spec = spec
        self._owner = owner
        self._buf = shm.buf
        self._cursor = 0  # writer-side scan position
        self._lock = threading.Lock()
        self.writes = 0  # guarded-by: _lock
        self.reads = 0  # guarded-by: _lock
        self.full_events = 0  # guarded-by: _lock
        self.corruptions = 0  # guarded-by: _lock
        self.reclaims = 0  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls, slots: int, slot_bytes: int, checksum: bool = True
    ) -> "ShmRing":
        """Allocate a fresh ring; raises :class:`ShmUnavailable` when
        the host cannot back shared memory."""
        if slots < 1:
            raise ValueError("slots must be >= 1")
        slot_bytes = _align(max(int(slot_bytes), _ALIGN))
        size = _RING_HEADER_BYTES + slots * (_SLOT_HEADER_BYTES + slot_bytes)
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=size)
        except Exception as exc:
            raise ShmUnavailable(
                f"cannot create a {size}-byte shared-memory ring: {exc}"
            ) from exc
        spec = ShmRingSpec(segment.name, int(slots), slot_bytes, checksum)
        with _SEGMENTS_LOCK:
            _SEGMENTS.add(segment.name)
        _RING_HEADER.pack_into(
            segment.buf, 0, _MAGIC, spec.slots, spec.slot_bytes,
            1 if checksum else 0,
        )
        ring = cls(segment, spec, owner=True)
        for slot in range(spec.slots):
            ring._set_header(slot, 0, 0, FREE, 0)
        return ring

    @classmethod
    def attach(cls, spec: ShmRingSpec) -> "ShmRing":
        """Map an existing ring from its spec (non-owning handle)."""
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=spec.name)
        _untrack(segment)
        magic, slots, slot_bytes, _check = _RING_HEADER.unpack_from(
            segment.buf, 0
        )
        if magic != _MAGIC or slots != spec.slots or (
            slot_bytes != spec.slot_bytes
        ):
            segment.close()
            raise ValueError(
                f"shared-memory segment {spec.name!r} does not match"
                f" spec {spec}"
            )
        return cls(segment, spec, owner=False)

    @property
    def spec(self) -> ShmRingSpec:
        return self._spec

    @property
    def slots(self) -> int:
        return self._spec.slots

    @property
    def slot_bytes(self) -> int:
        return self._spec.slot_bytes

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        Zero-copy views handed out by :meth:`payload`/:meth:`read` may
        outlive the ring (a cached plan keeps its last-bound buffers);
        the mapping then cannot be unmapped.  In that case the handle
        is disarmed and the OS reclaims the mapping at process exit —
        a second attempt from ``SharedMemory.__del__`` would only
        spray "Exception ignored" noise.
        """
        if self._shm is not None:
            self._buf = None
            segment, self._shm = self._shm, None
            try:
                segment.close()
            except BufferError:
                try:  # pragma: no cover - depends on stdlib internals
                    segment._buf = None
                    segment._mmap = None
                except Exception:
                    pass
            except Exception:  # pragma: no cover - teardown best-effort
                pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if self._owner and self._spec is not None:
            try:
                from multiprocessing import shared_memory

                segment = shared_memory.SharedMemory(name=self._spec.name)
                segment.close()
                segment.unlink()
            except Exception:
                pass
            if not _segment_exists(self._spec.name):
                with _SEGMENTS_LOCK:
                    _SEGMENTS.discard(self._spec.name)

    def destroy(self) -> None:
        """``close()`` then ``unlink()`` — the owner's teardown."""
        self.close()
        self.unlink()

    # -- slot headers --------------------------------------------------------

    def _slot_base(self, slot: int) -> int:
        return _RING_HEADER_BYTES + slot * (
            _SLOT_HEADER_BYTES + self._spec.slot_bytes
        )

    def _header(self, slot: int) -> Tuple[int, int, int, int]:
        """``(seq, length, state, crc)`` of one slot."""
        return _SLOT_HEADER.unpack_from(self._buf, self._slot_base(slot))

    def _set_header(
        self, slot: int, seq: int, length: int, state: int, crc: int
    ) -> None:
        _SLOT_HEADER.pack_into(
            self._buf, self._slot_base(slot), seq, length, state, crc
        )

    def payload(self, slot: int) -> np.ndarray:
        """The slot's full-capacity payload as a mutable uint8 view."""
        base = self._slot_base(slot) + _SLOT_HEADER_BYTES
        return np.frombuffer(
            self._buf, dtype=np.uint8, count=self._spec.slot_bytes,
            offset=base,
        )

    # -- writer side ---------------------------------------------------------

    def try_claim(self) -> Optional[int]:
        """Claim a free slot for writing, or ``None`` (backpressure).

        The claimed slot's sequence is bumped to odd — readers that
        race the handoff see a write in progress, never a torn frame.
        """
        for probe in range(self._spec.slots):
            slot = (self._cursor + probe) % self._spec.slots
            seq, _length, state, _crc = self._header(slot)
            if state == FREE:
                self._set_header(slot, seq + 1, 0, WRITING, 0)
                self._cursor = (slot + 1) % self._spec.slots
                return slot
        with self._lock:
            self.full_events += 1
        return None

    def publish(self, slot: int, length: int) -> None:
        """Seal a written slot: CRC it, mark READY, even out the seq."""
        if length > self._spec.slot_bytes:
            raise ValueError(
                f"frame of {length} bytes exceeds slot capacity"
                f" {self._spec.slot_bytes}"
            )
        seq, _length, state, _crc = self._header(slot)
        if state != WRITING:
            raise RuntimeError(f"publish of unclaimed slot {slot}")
        fire("shm.write", ring=self, slot=slot, buf=self.payload(slot)[:length])
        crc = 0
        if self._spec.checksum:
            crc = zlib.crc32(self.payload(slot)[:length]) & 0xFFFFFFFF
        self._set_header(slot, seq + 1, length, READY, crc)
        with self._lock:
            self.writes += 1

    def cancel(self, slot: int) -> None:
        """Writer-side abort of a claimed/published but undelivered slot."""
        seq, _length, _state, _crc = self._header(slot)
        self._set_header(slot, (seq + 1) | 1, 0, WRITING, 0)
        self._set_header(slot, (seq + 2) & ~1, 0, FREE, 0)

    def reclaim(self) -> int:
        """Writer-side crash recovery: free every slot the (dead)
        reader still held.  Returns the number of slots reclaimed."""
        count = 0
        for slot in range(self._spec.slots):
            seq, _length, state, _crc = self._header(slot)
            if state in (READY, READING):
                self._set_header(slot, (seq + 2) & ~1, 0, FREE, 0)
                count += 1
        if count:
            with self._lock:
                self.reclaims += count
        return count

    # -- reader side ---------------------------------------------------------

    def read(self, slot: int) -> np.ndarray:
        """Validate and map a published slot's payload (zero-copy).

        Seqlock discipline: the sequence is sampled before the payload
        is mapped and re-checked afterwards; an odd or changed
        sequence, a non-READY state, or a CRC mismatch raises
        :class:`ShmCorruption`.  On success the slot is marked READING
        and stays mapped until :meth:`release`.
        """
        seq_before, length, state, crc = self._header(slot)
        if state != READY or seq_before % 2 == 1:
            with self._lock:
                self.corruptions += 1
            raise ShmCorruption(
                f"slot {slot} not readable (state={state}, seq={seq_before})"
            )
        view = self.payload(slot)[:length]
        fire("shm.read", ring=self, slot=slot, buf=view)
        if self._spec.checksum:
            actual = zlib.crc32(view) & 0xFFFFFFFF
            if actual != crc:
                with self._lock:
                    self.corruptions += 1
                raise ShmCorruption(
                    f"slot {slot} checksum mismatch"
                    f" (stored {crc:#010x}, computed {actual:#010x})"
                )
        seq_after, _length, _state, _crc = self._header(slot)
        if seq_after != seq_before:
            with self._lock:
                self.corruptions += 1
            raise ShmCorruption(
                f"slot {slot} torn read (seq {seq_before} -> {seq_after})"
            )
        self._set_header(slot, seq_before, length, READING, crc)
        with self._lock:
            self.reads += 1
        return view

    def release(self, slot: int) -> None:
        """Reader done: hand the slot back to the writer."""
        seq, _length, _state, _crc = self._header(slot)
        self._set_header(slot, seq, 0, FREE, 0)

    # -- telemetry -----------------------------------------------------------

    def states(self) -> List[int]:
        """Per-slot state codes (FREE/WRITING/READY/READING)."""
        return [self._header(slot)[2] for slot in range(self._spec.slots)]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "slots": self._spec.slots,
                "slot_bytes": self._spec.slot_bytes,
                "writes": self.writes,
                "reads": self.reads,
                "full_events": self.full_events,
                "corruptions": self.corruptions,
                "reclaims": self.reclaims,
            }

    def __repr__(self) -> str:
        return (
            f"ShmRing({self._spec.name!r}, slots={self._spec.slots},"
            f" slot_bytes={self._spec.slot_bytes})"
        )


# -- tensor frames ---------------------------------------------------------------


@dataclass
class FramePlan:
    """A batch of request dicts laid out as one frame.

    ``meta`` is the small picklable description that rides the control
    pipe; ``sources`` holds the live arrays to copy, one per *unique*
    tensor (shared weights appear once no matter how many requests
    reference them); ``length`` is the payload size in bytes.
    """

    meta: dict
    sources: List[np.ndarray]
    length: int


def plan_frame(requests: Sequence[dict]) -> Optional[FramePlan]:
    """Lay a batch out as one frame, or ``None`` when it cannot ride
    shared memory (non-string keys, non-array or object-dtype values)
    — the caller then falls back to the pipe path."""
    tensors: List[Tuple[str, tuple, int, int]] = []
    sources: List[np.ndarray] = []
    index_of: Dict[int, int] = {}
    request_maps: List[List[Tuple[str, int]]] = []
    offset = 0
    for request in requests:
        if not isinstance(request, dict):
            return None
        entry: List[Tuple[str, int]] = []
        for name, array in request.items():
            if not isinstance(name, str):
                return None
            if not isinstance(array, np.ndarray) or array.dtype.hasobject:
                return None
            tensor_index = index_of.get(id(array))
            if tensor_index is None:
                start = _align(offset)
                tensors.append(
                    (array.dtype.str, tuple(array.shape), start, array.nbytes)
                )
                sources.append(array)
                tensor_index = len(tensors) - 1
                index_of[id(array)] = tensor_index
                offset = start + array.nbytes
            entry.append((name, tensor_index))
        request_maps.append(entry)
    meta = {"tensors": tensors, "requests": request_maps}
    return FramePlan(meta=meta, sources=sources, length=offset)


def write_frame(ring: ShmRing, plan: FramePlan) -> Optional[int]:
    """Copy a planned frame into a claimed slot and publish it.

    Returns the slot index, or ``None`` when the frame exceeds the
    slot capacity or every slot is in flight (backpressure) — both are
    routing signals for the pipe fallback, not errors.
    """
    if plan.length > ring.slot_bytes:
        return None
    slot = ring.try_claim()
    if slot is None:
        return None
    payload = ring.payload(slot)
    for (dtype_str, shape, start, nbytes), array in zip(
        plan.meta["tensors"], plan.sources
    ):
        view = payload[start:start + nbytes].view(np.dtype(dtype_str))
        np.copyto(view.reshape(shape), array)
    ring.publish(slot, plan.length)
    return slot


def read_frame(
    ring: ShmRing, slot: int, meta: dict, copy: bool = False
) -> List[Dict[str, np.ndarray]]:
    """Rebuild the batch's request dicts from a published slot.

    ``copy=False`` returns zero-copy views into the slot (read-only;
    valid until :meth:`ShmRing.release`); shared tensors come back as
    the *same view object* in every request, preserving the identity
    the batch-axis shared/stacked split keys on.  ``copy=True``
    materializes private arrays that outlive the slot.  Raises
    :class:`ShmCorruption` via :meth:`ShmRing.read` on a bad frame.
    """
    payload = ring.read(slot)
    arrays: List[np.ndarray] = []
    for dtype_str, shape, start, nbytes in meta["tensors"]:
        view = payload[start:start + nbytes].view(np.dtype(dtype_str))
        view = view.reshape(shape)
        if copy:
            view = view.copy()
        else:
            view.flags.writeable = False
        arrays.append(view)
    return [
        {name: arrays[tensor_index] for name, tensor_index in entry}
        for entry in meta["requests"]
    ]
