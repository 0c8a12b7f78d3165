"""The int8 dot-product (VNNI/DP4A) target: correctness + roofline.

Two modes:

* ``--smoke`` (CI): compiles both quantized apps through HARDBOILED,
  checks that dp4a intrinsics were actually selected, and asserts the
  interpreter and the compiled NumPy backend agree with the exact
  int32 numpy reference bit for bit; and checks the ``dp4a_mac`` core
  itself (float32 BLAS inside) against an int64 ``einsum`` at the int8
  extremes with accumulators at both ends of int32.  No timing
  assertions.
* full (default): additionally prints the modeled roofline comparison
  of the quantized GEMM against the fp16 tensor GEMM on each device —
  the quantization win the serving workloads are after — plus host
  wall-clock for the two execution backends.

Run::

    python -m benchmarks.bench_dp4a          # full report
    python -m benchmarks.bench_dp4a --smoke  # CI equivalence check
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.apps import conv_layer, matmul
from repro.perfmodel import PerfModel, format_table
from repro.runtime import Counters
from repro.targets.device import A100, SPR_AMX
from repro.targets.dp4a import DP_K, DP_M, DP_N, dp4a_mac, vnni4_unpack

from .harness import backend_report, print_header


def quantized_apps():
    return [
        ("matmul_int8", matmul.build_int8(tiles=2)),
        ("conv_layer_int8", conv_layer.build_int8(width=16, rows=1)),
    ]


def check_equivalence(apps):
    """Interpret, compile, and the int32 numpy reference: bit-exact."""
    for label, app in apps:
        ref = app.reference()
        np.testing.assert_array_equal(app.run(), ref, err_msg=label)
        np.testing.assert_array_equal(
            app.run(backend="compile"), ref, err_msg=label
        )
        counters = Counters()
        app.run(counters)
        assert counters.int8_macs > 0, f"{label}: no MACs on the int8 unit"
        assert counters.intrinsic_calls["dp4a_matmul"] > 0, (
            f"{label}: dp4a_matmul was not selected"
        )
        assert app.report is not None and app.report.all_mapped, label


def check_core():
    """``dp4a_mac`` sums its products in float32; an int64 dot product
    wrapped to int32 at the end is what the instruction computes."""
    rng = np.random.default_rng(4)
    extremes = np.array([-128, 127], np.int8)
    for a, b in (
        (rng.integers(-128, 128, (3, DP_M, DP_K)),
         rng.integers(-128, 128, (DP_K // 4, 4 * DP_N))),
        (rng.choice(extremes, (DP_M, DP_K)),
         rng.choice(extremes, (DP_K // 4, 4 * DP_N))),
        (np.full((DP_M, DP_K), -128), np.full((DP_K // 4, 4 * DP_N), -128)),
    ):
        a, b = a.astype(np.int8), b.astype(np.int8)
        for start in (0, 2**31 - 1, -(2**31)):
            c = np.full(a.shape[:-2] + (DP_M, DP_N), start, np.int32)
            exact = c.astype(np.int64) + np.einsum(
                "...mk,kn->...mn",
                a.astype(np.int64),
                vnni4_unpack(b).astype(np.int64),
            )
            np.testing.assert_array_equal(
                dp4a_mac(c, a, b), exact.astype(np.int32)
            )


def roofline_rows(apps):
    """Modeled full-size times: int8 apps vs the fp16 tensor GEMM.

    ``apps`` are the already-compiled quantized apps — selection ran
    once during the equivalence check and is not repeated here.
    """
    workloads = [("matmul fp16 (tensor)", matmul.build("tensor", n=64))]
    workloads += [(f"{label} (dp4a)", app) for label, app in apps]
    measured = [
        (label, app, app.run_and_measure()[1]) for label, app in workloads
    ]
    rows = []
    for device in (A100, SPR_AMX):
        model = PerfModel(device)
        for label, app, counters in measured:
            t = model.estimate(counters, kernels=app.kernels)
            macs = counters.tensor_macs + counters.int8_macs
            rows.append(
                [
                    device.name,
                    label,
                    f"{macs:,}",
                    f"{t.ms():.3f} ms",
                    t.bound,
                ]
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="correctness/equivalence check only (CI mode)",
    )
    args = parser.parse_args(argv)

    apps = quantized_apps()
    check_equivalence(apps)
    check_core()
    print(
        "dp4a smoke: both quantized apps bit-exact on both backends"
        " against the int32 numpy reference; dp4a_mac equals the int64"
        " dot product, wraparound included"
    )
    if args.smoke:
        return 0

    print_header("Quantized (int8/dp4a) vs fp16 tensor — modeled full size")
    print(
        format_table(
            ["device", "workload", "MACs", "modeled", "bound"],
            roofline_rows(apps),
        )
    )

    print_header("Quantized apps — host wall-clock per run")
    rows, speedups = backend_report(apps)
    print(
        format_table(
            ["workload", "interpreter", "compiled", "speedup"], rows
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
