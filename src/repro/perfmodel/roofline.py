"""Roofline performance model driven by interpreter counters.

The simulator cannot measure wall-clock GPU time, so runtimes are modeled
the same way the paper computes its "theoretical peak" reference lines
(§V footnote 7): work and traffic divided by device rates — except the
work/traffic quantities are *measured* during interpretation, so the
Toeplitz redundancy, swizzle traffic, and scalar-vs-tensor split of each
schedule are all reflected.  Sustained-fraction knobs account for the
fact that generated kernels do not hit theoretical peaks; they are global
per-engine constants, not per-benchmark fits.

Absolute times therefore land near the right order of magnitude; the
*shape* of every comparison (who wins, what each kernel is bound by,
where crossovers fall) comes from the counters alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.counters import Counters
from ..targets.device import DeviceSpec


@dataclass(frozen=True)
class Efficiency:
    """Sustained fraction of peak per engine.

    ``l1_reuse`` discounts counted L1 traffic: the interpreter counts
    every Load lane, but real kernels absorb most reuse in registers and
    shared memory (Halide's unrolled schedules keep the kernel taps and
    sliding windows register-resident).
    """

    tensor: float = 0.45
    cuda: float = 0.30
    dram: float = 0.85
    l1: float = 0.90
    l1_reuse: float = 0.25


#: per-device sustained fractions, calibrated once against two of the
#: paper's own measured Halide kernels (A100 GEMM 66 us / 223 us;
#: RTX 4070 SUPER conv1d k=256) and then held fixed for every prediction
DEVICE_EFFICIENCY = {
    "A100-SXM-80GB": Efficiency(tensor=0.10, cuda=0.55),
    "RTX-4070-SUPER": Efficiency(tensor=0.65, cuda=0.33),
}


@dataclass
class TimeBreakdown:
    """Component times (seconds); the roofline takes the max."""

    tensor_s: float
    cuda_s: float
    dram_s: float
    l1_s: float
    launch_s: float

    @property
    def compute_s(self) -> float:
        return max(self.tensor_s, self.cuda_s)

    @property
    def memory_s(self) -> float:
        return max(self.dram_s, self.l1_s)

    @property
    def total_s(self) -> float:
        return max(self.compute_s, self.memory_s) + self.launch_s

    @property
    def bound(self) -> str:
        """Paper-style bound tag: (C)ompute or (M)emory."""
        return "C" if self.compute_s >= self.memory_s else "M"

    def us(self) -> float:
        return self.total_s * 1e6

    def ms(self) -> float:
        return self.total_s * 1e3

    def __str__(self) -> str:
        return (
            f"{self.ms():.3f} ms ({self.bound}) [tensor {self.tensor_s*1e3:.3f},"
            f" cuda {self.cuda_s*1e3:.3f}, dram {self.dram_s*1e3:.3f},"
            f" l1 {self.l1_s*1e3:.3f}]"
        )


@dataclass
class PerfModel:
    device: DeviceSpec
    efficiency: Efficiency = None

    def __post_init__(self):
        if self.efficiency is None:
            self.efficiency = DEVICE_EFFICIENCY.get(
                self.device.name, Efficiency()
            )

    def estimate(
        self, counters: Counters, kernels: int = 1
    ) -> TimeBreakdown:
        eff = self.efficiency
        dev = self.device
        # fp16/bf16 and int8 MACs share the tensor unit, so their times
        # add; int8 runs at the device's dot-product (VNNI/DP4A) rate
        tensor_s = counters.tensor_macs / (
            dev.tensor_macs_per_s * eff.tensor
        ) + counters.int8_macs / (dev.int8_rate() * eff.tensor)
        # two FLOPs pair into one FMA on general-purpose lanes; integer
        # index arithmetic shares SM issue slots at roughly a quarter of
        # an FMA each (dual-issue integer pipes) — offloading it is part
        # of why tensor units help even bandwidth-limited kernels
        cuda_s = (counters.scalar_flops / 2.0 + counters.int_ops / 4.0) / (
            dev.cuda_macs_per_s * eff.cuda
        )
        dram_bytes = counters.load_bytes.get(
            "dram_unique", 0
        ) + counters.store_bytes.get("dram_unique", 0)
        dram_s = dram_bytes / (dev.dram_bytes_per_s * eff.dram)
        l1_bytes = (
            counters.load_bytes.get("dram", 0)
            + counters.load_bytes.get("l1", 0)
            + counters.load_bytes.get("shared", 0)
            + counters.store_bytes.get("dram", 0)
            + counters.store_bytes.get("l1", 0)
            + counters.store_bytes.get("shared", 0)
        )
        l1_s = (l1_bytes * eff.l1_reuse) / (dev.l1_bytes_per_s * eff.l1)
        return TimeBreakdown(
            tensor_s=tensor_s,
            cuda_s=cuda_s,
            dram_s=dram_s,
            l1_s=l1_s,
            launch_s=kernels * dev.launch_overhead_s,
        )

    def theoretical_peak(
        self,
        macs: float,
        io_bytes: float,
        on_tensor_unit: bool = True,
    ) -> TimeBreakdown:
        """The paper's ideal reference line: algorithmic work at 100%
        efficiency, oblivious to redundant computation (footnote 7)."""
        dev = self.device
        rate = dev.tensor_macs_per_s if on_tensor_unit else dev.cuda_macs_per_s
        compute = macs / rate
        memory = io_bytes / dev.dram_bytes_per_s
        return TimeBreakdown(
            tensor_s=compute if on_tensor_unit else 0.0,
            cuda_s=0.0 if on_tensor_unit else compute,
            dram_s=memory,
            l1_s=0.0,
            launch_s=0.0,
        )
