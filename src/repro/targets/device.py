"""Device models used by the roofline performance model.

Numbers come from the sources the paper cites: the A100 whitepaper
(156 TFMA/s fp16 tensor throughput, 2 TB/s HBM) and the Ada whitepaper
scaled to the RTX 4070 SUPER's tensor-core count (36 TFMA/s, 504.2 GB/s)
— see paper §IV and footnote 6.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Peak rates for one device (FMA/s; a MAC/FMA is two FLOPs)."""

    name: str
    #: tensor-unit throughput, fp16/bf16 multiply-accumulates per second
    tensor_macs_per_s: float
    #: general-purpose (CUDA/SIMD) fp32 multiply-accumulates per second
    cuda_macs_per_s: float
    #: DRAM bandwidth, bytes per second
    dram_bytes_per_s: float
    #: aggregate L1/shared bandwidth, bytes per second
    l1_bytes_per_s: float
    #: fixed kernel-launch overhead per kernel, seconds
    launch_overhead_s: float = 3e-6
    #: int8 dot-product-unit throughput (VNNI/DP4A/IMMA), MACs per
    #: second; 0 means "unspecified" and falls back to the common 2x
    #: fp16 ratio via :meth:`int8_rate`
    int8_macs_per_s: float = 0.0

    def int8_rate(self) -> float:
        """int8 MAC throughput; every listed device doubles fp16."""
        return self.int8_macs_per_s or 2.0 * self.tensor_macs_per_s


#: Nvidia A100 80GB SXM (paper §IV: 156 TFMA/s fp16 tensor, 2 TB/s)
A100 = DeviceSpec(
    name="A100-SXM-80GB",
    tensor_macs_per_s=156e12,
    cuda_macs_per_s=9.75e12,  # 19.5 TFLOPS fp32
    dram_bytes_per_s=2.0e12,
    l1_bytes_per_s=19.4e12,  # 108 SM x 128 B/clk x 1.41 GHz
    int8_macs_per_s=312e12,  # 624 TOPS INT8 tensor (A100 whitepaper)
)

#: Nvidia GeForce RTX 4070 SUPER (paper footnote 6: 36 TFMA/s tensor,
#: 504.2 GB/s; CUDA fp32 throughput from the Ada whitepaper)
RTX4070S = DeviceSpec(
    name="RTX-4070-SUPER",
    tensor_macs_per_s=36e12,
    cuda_macs_per_s=17.7e12,  # 35.5 TFLOPS fp32
    dram_bytes_per_s=504.2e9,
    l1_bytes_per_s=17.8e12,  # 56 SM x 128 B/clk x 2.48 GHz
    int8_macs_per_s=72e12,  # Ada: INT8 tensor runs at 2x the fp16 rate
)

#: An AMX-capable Sapphire Rapids core complex (functional validation
#: target; the paper validates AMX through Intel SDE, not silicon)
SPR_AMX = DeviceSpec(
    name="SapphireRapids-AMX",
    tensor_macs_per_s=2e12,
    cuda_macs_per_s=0.5e12,
    dram_bytes_per_s=300e9,
    l1_bytes_per_s=6e12,
    launch_overhead_s=0.0,
    int8_macs_per_s=4e12,  # AMX-INT8 (TDPBSSD) doubles the bf16 rate
)

DEVICES = {spec.name: spec for spec in (A100, RTX4070S, SPR_AMX)}
