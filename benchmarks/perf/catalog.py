"""Program catalog and workloads.

A *workload* is one set of input programs.  Every run takes one
workload through all five phases (``compile_cold``, ``compile_warm``,
``exec_inproc``, ``serve_paced``, ``serve_burst``), so every metric is
measured on every workload.  Programs are :class:`CompileJob` specs —
the same picklable description the serving tier ships to its workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.service import CompileJob

job = CompileJob.make


@dataclass(frozen=True)
class Program:
    name: str
    #: accelerator kind: "wmma", "amx" or "dp4a"
    kind: str
    job: CompileJob
    #: rtol == atol against ``app.reference()``; None means bit-exact
    tol: Optional[float]


@dataclass(frozen=True)
class Pair:
    """One app in both schedules, for the modelled A100 speed-up."""

    name: str
    cuda: CompileJob
    tensor: CompileJob


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    programs: Tuple[Program, ...]
    pairs: Tuple[Pair, ...]
    #: the serving catalog: one worker pool per job
    serve_jobs: Tuple[CompileJob, ...]


def _pair(name: str, app: str, builder: str = "build", **params) -> Pair:
    return Pair(
        name,
        job(app, "cuda", builder=builder, **params),
        job(app, "tensor", builder=builder, **params),
    )


def _wmma(name: str, app: str, tol: float, builder: str = "build", **params):
    return Program(
        name, "wmma", job(app, "tensor", builder=builder, **params), tol
    )


#: the paper's Fig. 6 compile-time sweep
SWEEP_TAPS = (8, 32, 56, 96, 160, 256)

_SINGLE_STAGE = (
    ("conv1d", "conv1d", 4e-2, "build", dict(taps=16, rows=1)),
    ("conv2d", "conv2d", 4e-2, "build", dict(taps=16, width=512, rows=4)),
    ("downsample", "downsample", 4e-2, "build",
     dict(taps=16, width=256, rows=4)),
    ("upsample", "upsample", 4e-2, "build", dict(width=256, rows=2)),
    ("matmul", "matmul", 4e-2, "build", dict(n=64)),
    ("conv_layer", "conv_layer", 4e-2, "build", dict(rows=2)),
    ("attention", "attention", 4e-2, "build", dict(length=128)),
    ("resample", "resample", 3e-2, "build_pass",
     dict(in_size=256, out_size=57, columns=32)),
)

APPS = Workload(
    name="apps",
    why=(
        "the paper's case studies at test size on all three accelerators"
        " (8 WMMA, 2 AMX, 2 DP4A): every rule family and shuffle, light"
        " kernels, so serving is wait- and IPC-bound"
    ),
    programs=tuple(
        _wmma(name, app, tol, builder, **params)
        for name, app, tol, builder, params in _SINGLE_STAGE
    )
    + (
        Program("amx_matmul", "amx",
                job("matmul", None, builder="build_amx"), 2e-2),
        Program("amx_matmul_vnni", "amx",
                job("matmul", None, builder="build_amx", layout="vnni"),
                2e-2),
        Program("int8_matmul", "dp4a",
                job("matmul", None, builder="build_int8", tiles=2), None),
        Program("int8_conv_layer", "dp4a",
                job("conv_layer", None, builder="build_int8",
                    width=16, rows=1), None),
    ),
    pairs=tuple(
        _pair(name, app, builder, **params)
        for name, app, _, builder, params in _SINGLE_STAGE
    )
    + (
        _pair("recursive_filter", "recursive_filter", samples=4096),
        _pair("dct_denoise", "dct_denoise", num_tiles=8),
    ),
    serve_jobs=(
        job("conv1d", "tensor", taps=32, rows=1),
        job("matmul", None, builder="build_amx"),
        job("matmul", None, builder="build_int8", tiles=2),
    ),
)

CONV1D_SWEEP = Workload(
    name="conv1d_sweep",
    why=(
        "the paper's Fig. 6 sweep, conv1d at 8 to 256 taps: one rule"
        " family, no AMX or DP4A code runs, kernels grow 25x with taps,"
        " so execution is kernel-bound and serving busier per worker"
    ),
    programs=tuple(
        _wmma(f"conv1d_k{taps}", "conv1d", 4e-2, taps=taps, rows=1)
        for taps in SWEEP_TAPS
    ),
    pairs=tuple(
        _pair(f"conv1d_k{taps}", "conv1d", taps=taps, rows=1)
        for taps in SWEEP_TAPS
    ),
    serve_jobs=tuple(
        job("conv1d", "tensor", taps=taps, rows=1) for taps in (8, 16, 32)
    ),
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (APPS, CONV1D_SWEEP)}

KINDS = ("wmma", "amx", "dp4a")

#: every pair name of every workload: the ``perfmodel.speedup.<name>``
#: per-layer metrics (a pair outside the run's workload reads 0)
PAIR_NAMES: List[str] = [
    pair.name for w in WORKLOADS.values() for pair in w.pairs
]
