"""Numpy-backed buffers with Halide's dimension convention.

Halide (and this repo) writes the *innermost* dimension first:
``extents[0]`` is the fastest-varying axis.  A numpy array's *last* axis
is fastest-varying, so conversion reverses the shape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..ir.stmt import MemoryType
from ..ir.types import DataType, TypeCode
from ..targets.bfloat16 import round_to_bfloat16


class Buffer:
    """A flat, typed allocation addressed by flattened indices.

    Parameters
    ----------
    name:
        Buffer name as referenced by ``Load``/``Store`` nodes.
    dtype:
        Scalar element type.  bfloat16 elements are stored as float32
        holding bf16-rounded values.
    extents:
        Sizes per dimension, innermost first.
    memory_type:
        Where the buffer notionally lives; drives traffic accounting.
    is_external:
        True for pipeline inputs/outputs (counted as DRAM traffic).
    data:
        Initial contents.  A C-contiguous array of the buffer's exact
        numpy dtype is wrapped **zero-copy** — ``self.data`` is a flat
        view sharing the caller's memory.  A copy is made only when one
        is unavoidable: a dtype conversion, a non-contiguous source, or
        bfloat16 rounding.  Pipeline inputs are never stored to, so the
        view is safe; callers that intend to mutate the buffer
        independently of the source array should pass a copy.
    """

    def __init__(
        self,
        name: str,
        dtype: DataType,
        extents: Tuple[int, ...],
        memory_type: MemoryType = MemoryType.HEAP,
        is_external: bool = False,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if dtype.lanes != 1:
            raise ValueError("buffers hold scalar element types")
        self.name = name
        self.dtype = dtype
        self.extents = tuple(int(e) for e in extents)
        self.memory_type = memory_type
        self.is_external = is_external
        self.size = int(np.prod(self.extents)) if self.extents else 1
        np_dtype = dtype.to_numpy()
        if data is None:
            self.data = np.zeros(self.size, dtype=np_dtype)
        else:
            # asarray is a no-op for a correctly-typed ndarray, and
            # ravel() of a C-contiguous array is a view: a contiguous,
            # correctly-typed input is wrapped without copying.  dtype
            # conversion and non-contiguous layouts each cost exactly
            # one copy (asarray / ravel respectively) — never two.
            flat = np.asarray(data, dtype=np_dtype).ravel()
            if flat.size != self.size:
                raise ValueError(
                    f"data size {flat.size} != buffer size {self.size}"
                )
            if dtype.code is TypeCode.BFLOAT:
                # bf16 ingest isolates the buffer from the source
                # array: rounding allocates fresh storage, except when
                # there was nothing to round
                rounded = round_to_bfloat16(flat)
                flat = rounded.copy() if rounded is flat else rounded
            self.data = flat
        # per-element touched masks for footprint accounting; allocated
        # lazily so the compiled backend (which reads/writes .data
        # directly and never gathers) pays nothing for instrumentation
        self._load_mask: Optional[np.ndarray] = None
        self._store_mask: Optional[np.ndarray] = None
        #: memoized dense strides — extents are immutable and the
        #: interpreter's ``flatten_index`` reads this per element
        self._strides: Optional[Tuple[int, ...]] = None

    @property
    def load_mask(self) -> np.ndarray:
        if self._load_mask is None:
            self._load_mask = np.zeros(self.size, dtype=bool)
        return self._load_mask

    @property
    def store_mask(self) -> np.ndarray:
        if self._store_mask is None:
            self._store_mask = np.zeros(self.size, dtype=bool)
        return self._store_mask

    # -- strides (dense, innermost first) -----------------------------------

    @property
    def strides(self) -> Tuple[int, ...]:
        if self._strides is None:
            strides = []
            acc = 1
            for extent in self.extents:
                strides.append(acc)
                acc *= extent
            self._strides = tuple(strides)
        return self._strides

    def flatten_index(self, coords: Tuple[int, ...]) -> int:
        return int(sum(c * s for c, s in zip(coords, self.strides)))

    # -- numpy conversion ----------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        name: str,
        array: np.ndarray,
        dtype: Optional[DataType] = None,
        memory_type: MemoryType = MemoryType.HEAP,
        is_external: bool = True,
    ) -> "Buffer":
        """Wrap a numpy array; numpy's last axis becomes dimension 0.

        Zero-copy for C-contiguous arrays already of the buffer's
        storage dtype; see :class:`Buffer` for when a copy is made.
        """
        from ..ir.types import Float, Int, UInt

        if dtype is None:
            kind = array.dtype.kind
            bits = array.dtype.itemsize * 8
            if kind == "f":
                dtype = Float(bits)
            elif kind == "i":
                dtype = Int(bits)
            elif kind == "u":
                dtype = UInt(bits)
            else:
                raise ValueError(f"unsupported numpy dtype {array.dtype}")
        extents = tuple(reversed(array.shape))
        return cls(
            name,
            dtype,
            extents,
            memory_type=memory_type,
            is_external=is_external,
            data=array,
        )

    def to_numpy(self) -> np.ndarray:
        """View as a numpy array (outermost dimension first)."""
        shape = tuple(reversed(self.extents))
        return self.data.reshape(shape)

    # -- element access ------------------------------------------------------

    def gather(self, indices: np.ndarray) -> np.ndarray:
        self.load_mask[indices] = True
        return self.data[indices]

    def scatter(self, indices: np.ndarray, values: np.ndarray) -> None:
        self.store_mask[indices] = True
        if self.dtype.code is TypeCode.BFLOAT:
            values = round_to_bfloat16(values)
        self.data[indices] = values

    # -- accounting ----------------------------------------------------------

    def load_footprint_bytes(self) -> int:
        if self._load_mask is None:
            return 0
        return int(self._load_mask.sum()) * self.dtype.bytes_per_lane()

    def store_footprint_bytes(self) -> int:
        if self._store_mask is None:
            return 0
        return int(self._store_mask.sum()) * self.dtype.bytes_per_lane()

    def __repr__(self) -> str:
        return (
            f"Buffer({self.name!r}, {self.dtype}, extents={self.extents}, "
            f"{self.memory_type.value})"
        )


class StackedBuffer:
    """A batch of ``B`` logical buffers sharing one ``[B, size]`` array.

    The batch-axis kernels (:func:`repro.runtime.codegen
    .compile_batched_stmt`) index these as ``data[:, flat_index]`` —
    row ``b`` of ``data`` holds exactly what a per-request
    :class:`Buffer` of the same geometry would hold for request ``b``.
    ``extents``/``strides`` describe the *per-request* geometry (the
    batch axis is never addressed by the IR), so ``stride_env`` treats
    a stacked buffer like a plain one.
    """

    def __init__(
        self,
        name: str,
        dtype: DataType,
        extents: Tuple[int, ...],
        memory_type: MemoryType = MemoryType.HEAP,
        is_external: bool = False,
        batch: int = 1,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if dtype.lanes != 1:
            raise ValueError("buffers hold scalar element types")
        self.name = name
        self.dtype = dtype
        self.extents = tuple(int(e) for e in extents)
        self.memory_type = memory_type
        self.is_external = is_external
        self.size = int(np.prod(self.extents)) if self.extents else 1
        self.batch = int(batch)
        if data is None:
            self.data = np.zeros((self.batch, self.size), dtype.to_numpy())
        else:
            if data.shape != (self.batch, self.size):
                raise ValueError(
                    f"stacked data shape {data.shape} !="
                    f" ({self.batch}, {self.size})"
                )
            self.data = data
        self._strides: Optional[Tuple[int, ...]] = None

    @classmethod
    def like(cls, buf: Buffer, batch: int) -> "StackedBuffer":
        """The ``[batch, ...]`` stacking of ``buf``'s geometry."""
        return cls(
            buf.name,
            buf.dtype,
            buf.extents,
            memory_type=buf.memory_type,
            is_external=buf.is_external,
            batch=batch,
        )

    @property
    def strides(self) -> Tuple[int, ...]:
        if self._strides is None:
            strides = []
            acc = 1
            for extent in self.extents:
                strides.append(acc)
                acc *= extent
            self._strides = tuple(strides)
        return self._strides

    def __repr__(self) -> str:
        return (
            f"StackedBuffer({self.name!r}, {self.dtype}, B={self.batch}, "
            f"extents={self.extents}, {self.memory_type.value})"
        )
