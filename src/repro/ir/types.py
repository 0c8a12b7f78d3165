"""Scalar and vector data types for the IR.

Mirrors Halide's ``Type``: a type code, a bit width, and a number of vector
lanes.  ``BFloat(16)`` is a first-class type code because the AMX
``TDPBF16PS`` instruction consumes bfloat16 operands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class TypeCode(enum.Enum):
    """The kind of scalar a :class:`DataType` holds."""

    INT = "int"
    UINT = "uint"
    FLOAT = "float"
    BFLOAT = "bfloat"
    HANDLE = "handle"


@dataclass(frozen=True)
class DataType:
    """A (possibly vector) machine type: ``code`` x ``bits`` x ``lanes``."""

    code: TypeCode
    bits: int
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"bits must be positive, got {self.bits}")
        if self.lanes <= 0:
            raise ValueError(f"lanes must be positive, got {self.lanes}")

    # -- predicates --------------------------------------------------------

    def is_scalar(self) -> bool:
        return self.lanes == 1

    def is_vector(self) -> bool:
        return self.lanes > 1

    def is_int(self) -> bool:
        return self.code is TypeCode.INT

    def is_uint(self) -> bool:
        return self.code is TypeCode.UINT

    def is_float(self) -> bool:
        return self.code in (TypeCode.FLOAT, TypeCode.BFLOAT)

    def is_bfloat(self) -> bool:
        return self.code is TypeCode.BFLOAT

    def is_bool(self) -> bool:
        return self.code is TypeCode.UINT and self.bits == 1

    # -- derived types -----------------------------------------------------

    def element_of(self) -> "DataType":
        """The scalar type of one lane."""
        return DataType(self.code, self.bits, 1)

    def with_lanes(self, lanes: int) -> "DataType":
        return DataType(self.code, self.bits, lanes)

    def widen_lanes(self, factor: int) -> "DataType":
        return DataType(self.code, self.bits, self.lanes * factor)

    def bytes_per_lane(self) -> int:
        return (self.bits + 7) // 8

    def bytes(self) -> int:
        return self.bytes_per_lane() * self.lanes

    # -- numpy interop -----------------------------------------------------

    def to_numpy(self) -> np.dtype:
        """The numpy dtype used to *store* values of this type.

        bfloat16 has no numpy dtype; it is stored as float32 and rounded
        through :mod:`repro.targets.bfloat16` at load/store boundaries.
        """
        if self.code is TypeCode.FLOAT:
            return np.dtype({16: np.float16, 32: np.float32, 64: np.float64}[self.bits])
        if self.code is TypeCode.BFLOAT:
            return np.dtype(np.float32)
        if self.code is TypeCode.INT:
            return np.dtype({8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}[self.bits])
        if self.code is TypeCode.UINT:
            if self.bits == 1:
                return np.dtype(np.bool_)
            return np.dtype({8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}[self.bits])
        raise ValueError(f"no numpy dtype for {self}")

    # -- display -----------------------------------------------------------

    def short_name(self) -> str:
        base = {
            TypeCode.INT: f"int{self.bits}",
            TypeCode.UINT: f"uint{self.bits}" if self.bits != 1 else "bool",
            TypeCode.FLOAT: f"float{self.bits}",
            TypeCode.BFLOAT: f"bfloat{self.bits}",
            TypeCode.HANDLE: "handle",
        }[self.code]
        if self.lanes > 1:
            return f"{base}x{self.lanes}"
        return base

    def __str__(self) -> str:
        return self.short_name()


# -- convenience constructors (Halide spelling) ----------------------------


def Int(bits: int, lanes: int = 1) -> DataType:
    return DataType(TypeCode.INT, bits, lanes)


def UInt(bits: int, lanes: int = 1) -> DataType:
    return DataType(TypeCode.UINT, bits, lanes)


def Float(bits: int, lanes: int = 1) -> DataType:
    return DataType(TypeCode.FLOAT, bits, lanes)


def BFloat(bits: int = 16, lanes: int = 1) -> DataType:
    return DataType(TypeCode.BFLOAT, bits, lanes)


def Bool(lanes: int = 1) -> DataType:
    return DataType(TypeCode.UINT, 1, lanes)


def Handle() -> DataType:
    return DataType(TypeCode.HANDLE, 64, 1)


INT32 = Int(32)
INT64 = Int(64)
FLOAT16 = Float(16)
FLOAT32 = Float(32)
BFLOAT16 = BFloat(16)
BOOL = Bool()


def promote(a: DataType, b: DataType) -> DataType:
    """Type promotion for mixed binary operations.

    Follows Halide's rules closely enough for this project: matching lanes
    are required (or one side scalar, which broadcasts); float beats int;
    wider bits beat narrower; int beats uint at equal width.
    """
    if a.lanes != b.lanes:
        if a.lanes == 1:
            a = a.with_lanes(b.lanes)
        elif b.lanes == 1:
            b = b.with_lanes(a.lanes)
        else:
            raise ValueError(f"cannot promote {a} with {b}: lane mismatch")
    if a == b:
        return a
    if a.is_float() and not b.is_float():
        return a
    if b.is_float() and not a.is_float():
        return b
    if a.is_float() and b.is_float():
        # plain float beats bfloat at equal width; wider wins otherwise
        if a.bits != b.bits:
            return a if a.bits > b.bits else b
        if a.code is TypeCode.FLOAT:
            return a
        return b
    # both integral
    if a.bits != b.bits:
        return a if a.bits > b.bits else b
    if a.is_int():
        return a
    return b
