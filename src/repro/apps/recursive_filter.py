"""Recursive audio filtering (paper §V-D).

The pipeline combines both parallelization techniques the paper uses:

* **Hoppe tiling** for inter-block parallelism: each 1024-sample tile is
  filtered from zero state, then a serial fix-up scan adds the previous
  tile's tail propagated through the homogeneous response;
* **Scattered lookahead (SLA)** with dilation ``d = 8`` for intra-block
  parallelism: a 15-tap FIR prefilter (the only dense-compute stage)
  followed by a dilated recurrence whose steps are independent across
  ``t mod d``.

The ``tensor`` variant schedules only the FIR convolution onto Tensor
Cores (the recurrence is inherently serial); the paper's savings come
from relieving the memory subsystem, not extra FLOPs — Tensor Core
utilization is a mere 8%.

Three compiled kernels (FIR, recurrence, fix-up) run in sequence with
numpy reshaping between them, mirroring the paper's kernel structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import frontend as hl
from ..linalg import homogeneous_response, recursive_filter_serial, sla_decompose
from ..runtime import Counters
from ..runtime.executor import CompiledPipeline
from ..lowering import lower
from ..hardboiled import select_instructions

A_COEFF = 1.2
B_COEFF = -0.5
DILATION = 8
TILE_SIZE = 1024
FULL_SAMPLES = 2**21
CHANNELS = 2
FIR_TAPS = 16  # 2d - 1 = 15, padded to two 8-tap blocks


@dataclass
class RecursiveFilterApp:
    """Multi-kernel app: FIR -> dilated recurrence -> Hoppe fix-up."""

    variant: str
    samples: int
    signal: np.ndarray  # (CHANNELS, samples)
    scale_factor: float
    kernels: int = 3
    #: warm-start artifact directory (see repro.service)
    cache_dir: Optional[str] = None
    #: default execution backend; "compile" also persists the generated
    #: kernel in the artifact, so warm processes skip codegen too
    backend: str = "interpret"

    def __post_init__(self):
        self.fir, self.a_d, self.b_d = sla_decompose(
            A_COEFF, B_COEFF, DILATION
        )
        self.num_tiles = self.samples // TILE_SIZE
        self._build_fir_pipeline()

    # -- stage 1: the FIR prefilter as a (possibly tensorized) pipeline ----

    def _build_fir_pipeline(self):
        K = hl.ImageParam(hl.Float(16), 1, name="Krf")
        X = hl.ImageParam(hl.Float(16), 2, name="Xrf")
        x, row = hl.Var("x"), hl.Var("row")
        xi, rxi = hl.Var("xi"), hl.Var("rxi")
        rx = hl.RDom(0, FIR_TAPS, name="rxrf")
        conv = hl.Func("firconv")
        out = hl.Func("firout")
        conv[x, row] = 0.0
        conv[x, row] += hl.f32(K[rx]) * hl.f32(X[x + rx, row])
        out[x, row] = conv[x, row]
        rows = self.num_tiles * CHANNELS
        out.bound(x, 0, TILE_SIZE).bound(row, 0, rows)
        out.split(x, x, xi, 256).vectorize(xi).gpu_blocks(x, row)
        conv.compute_at(out, "x")
        if self.variant == "tensor":
            conv.store_in(hl.MemoryType.WMMA_ACCUMULATOR)
            conv.split(x, x, xi, 256).vectorize(xi)
            conv.update().split(x, x, xi, 256).split(
                rx, rx, rxi, 8
            ).reorder(rxi, xi, rx, x).atomic().vectorize(xi).vectorize(rxi)
        else:
            conv.split(x, x, xi, 256).vectorize(xi)
            conv.update().split(x, x, xi, 256).reorder(xi, rx, x).vectorize(
                xi
            )
        self._fir_params = (K, X)
        lowered = lower(out)
        if self.variant == "tensor":
            if self.cache_dir is not None:
                # warm start: restore the tensorized stmt on a hit
                from ..service import warm_compile

                self.fir_pipeline, self._fir_report = warm_compile(
                    lowered, self.cache_dir, backend=self.backend
                )
                return
            lowered, self._fir_report = select_instructions(
                lowered, strict=True
            )
        self.fir_pipeline = CompiledPipeline(lowered, backend=self.backend)

    def _fir_inputs(self) -> Dict:
        K, X = self._fir_params
        # reversed FIR as a correlation kernel; tiles padded with leading
        # zeros so no tile reads its neighbour (zero-state filtering)
        taps = len(self.fir)  # 15
        kernel = np.zeros(FIR_TAPS, dtype=np.float16)
        kernel[:taps] = self.fir[::-1].astype(np.float16)
        rows = self.num_tiles * CHANNELS
        padded = np.zeros(
            (rows, TILE_SIZE + FIR_TAPS + 8), dtype=np.float16
        )
        tiles = self.signal.reshape(
            CHANNELS, self.num_tiles, TILE_SIZE
        ).reshape(rows, TILE_SIZE)
        # u[t] = sum_k fir[k] x[t-k]  ->  correlation with x shifted by 14
        padded[:, taps - 1 : taps - 1 + TILE_SIZE] = tiles
        return {X: padded, K: kernel}

    # -- driver ------------------------------------------------------------

    def run(self, counters=None, backend=None) -> np.ndarray:
        """Run all three stages; stage 1 honours the backend switch."""
        u = self.fir_pipeline.run(
            self._fir_inputs(), counters=counters, backend=backend
        )
        return self._recurrence_and_fixup(u, counters)

    def run_and_measure(self):
        counters = Counters()
        out = self.run(counters)
        return out, counters.scaled(self.scale_factor)

    def _recurrence_and_fixup(self, u, counters=None) -> np.ndarray:
        if counters is None:
            counters = Counters()
        rows = self.num_tiles * CHANNELS
        # stage 2: dilated recurrence per tile (zero initial state);
        # serial dependency chains of length TILE_SIZE/d, d-wide parallel
        y = u.astype(np.float64).copy()
        m_steps = TILE_SIZE // DILATION
        lanes = y.reshape(rows, m_steps, DILATION)
        for m in range(1, m_steps):
            lanes[:, m, :] += self.a_d * lanes[:, m - 1, :]
            if m >= 2:
                lanes[:, m, :] += self.b_d * lanes[:, m - 2, :]
        counters.scalar_flops += rows * (m_steps - 1) * DILATION * 4
        counters.add_load("l1", rows * TILE_SIZE * 3 * 4)
        counters.add_store("l1", rows * TILE_SIZE * 4)
        # stage 3: Hoppe fix-up scan across tiles
        resp = homogeneous_response(A_COEFF, B_COEFF, TILE_SIZE)
        out = y.reshape(CHANNELS, self.num_tiles, TILE_SIZE)
        for b in range(1, self.num_tiles):
            tail1 = out[:, b - 1, -1][:, None]
            tail2 = out[:, b - 1, -2][:, None]
            out[:, b] += tail1 * resp.h1 + tail2 * resp.h2
        counters.scalar_flops += CHANNELS * (self.num_tiles - 1) * TILE_SIZE * 4
        counters.add_load("dram_unique", self.samples * CHANNELS * 4)
        counters.add_store("dram_unique", self.samples * CHANNELS * 4)
        return out.reshape(CHANNELS, self.samples)

    def reference(self) -> np.ndarray:
        return np.stack(
            [
                recursive_filter_serial(self.signal[c], A_COEFF, B_COEFF)
                for c in range(CHANNELS)
            ]
        )

    def verify(self, rtol=2e-2, atol=2e-2):
        out, _ = self.run_and_measure()
        ref = self.reference()
        np.testing.assert_allclose(out, ref, rtol=rtol, atol=atol)
        return out


def build(
    variant: str,
    samples: int = 8192,
    seed: int = 9,
    cache_dir=None,
    backend: str = "interpret",
):
    rng = np.random.default_rng(seed)
    signal = (rng.standard_normal((CHANNELS, samples)) / 8).astype(
        np.float64
    )
    return RecursiveFilterApp(
        variant=variant,
        samples=samples,
        signal=signal,
        scale_factor=FULL_SAMPLES / samples,
        cache_dir=cache_dir,
        backend=backend,
    )
