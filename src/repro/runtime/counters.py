"""Execution counters recorded by the interpreter.

These are the honest inputs to the roofline performance model: scalar
(CUDA-core) FLOPs, tensor-unit MACs, and memory traffic split by level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Counters:
    """Mutable op/byte counters accumulated during interpretation."""

    #: floating point ops executed on general-purpose (CUDA/SIMD) lanes
    scalar_flops: int = 0
    #: multiply-accumulates executed on the tensor unit (1 MAC = 2 FLOPs)
    tensor_macs: int = 0
    #: int8 multiply-accumulates executed on the dot-product unit
    #: (VNNI/DP4A); integer work, so not counted in total_flops
    int8_macs: int = 0
    #: integer ALU ops (index arithmetic); cheap but tracked for ablations
    int_ops: int = 0
    #: total bytes moved by Load nodes, keyed by buffer memory level
    load_bytes: Dict[str, int] = field(default_factory=dict)
    #: total bytes moved by Store nodes, keyed by buffer memory level
    store_bytes: Dict[str, int] = field(default_factory=dict)
    #: intrinsic call counts by name
    intrinsic_calls: Counter = field(default_factory=Counter)
    #: loop trip counts by loop kind
    loop_iterations: Counter = field(default_factory=Counter)
    #: number of Store statements executed
    stores_executed: int = 0

    def add_load(self, level: str, nbytes: int) -> None:
        self.load_bytes[level] = self.load_bytes.get(level, 0) + nbytes

    def add_store(self, level: str, nbytes: int) -> None:
        self.store_bytes[level] = self.store_bytes.get(level, 0) + nbytes

    def total_store_bytes(self) -> int:
        return sum(self.store_bytes.values())

    def total_flops(self) -> int:
        """All floating-point work, counting a MAC as two FLOPs."""
        return self.scalar_flops + 2 * self.tensor_macs

    def scaled(self, factor: float) -> "Counters":
        """Counters for a problem ``factor`` times larger.

        The pipelines in this project are static loop nests, so every
        counter scales linearly with the iteration domain.  Used to
        extrapolate interpreted runs of reduced-size workloads to the
        paper's full sizes.  Entries round to nearest: truncation would
        systematically under-report every counter whenever the scale
        factor is not an integer.
        """

        def scale(v) -> int:
            return int(round(v * factor))

        scaled = Counters(
            scalar_flops=scale(self.scalar_flops),
            tensor_macs=scale(self.tensor_macs),
            int8_macs=scale(self.int8_macs),
            int_ops=scale(self.int_ops),
            stores_executed=scale(self.stores_executed),
        )
        scaled.load_bytes = {
            k: scale(v) for k, v in self.load_bytes.items()
        }
        scaled.store_bytes = {
            k: scale(v) for k, v in self.store_bytes.items()
        }
        scaled.intrinsic_calls = Counter(
            {k: scale(v) for k, v in self.intrinsic_calls.items()}
        )
        scaled.loop_iterations = Counter(
            {k: scale(v) for k, v in self.loop_iterations.items()}
        )
        return scaled

    def merge(self, other: "Counters") -> None:
        self.scalar_flops += other.scalar_flops
        self.tensor_macs += other.tensor_macs
        self.int8_macs += other.int8_macs
        self.int_ops += other.int_ops
        self.stores_executed += other.stores_executed
        for k, v in other.load_bytes.items():
            self.add_load(k, v)
        for k, v in other.store_bytes.items():
            self.add_store(k, v)
        self.intrinsic_calls.update(other.intrinsic_calls)
        self.loop_iterations.update(other.loop_iterations)

    def summary(self) -> str:
        lines = [
            f"scalar_flops      = {self.scalar_flops:,}",
            f"tensor_macs       = {self.tensor_macs:,}",
            f"int8_macs         = {self.int8_macs:,}",
            f"load_bytes        = {dict(self.load_bytes)}",
            f"store_bytes       = {dict(self.store_bytes)}",
            f"intrinsics        = {dict(self.intrinsic_calls)}",
        ]
        return "\n".join(lines)
