"""Old-vs-new saturation engine speed on the fig-6 compile-time workloads.

The incremental engine (persistent head index, compiled pattern/action
programs, delta matching anchored at the changed e-nodes and rows, match
dedup, backoff scheduling, incremental relation canonicalization) is
measured head to head against the full-rematch loop kept beside this
file as the engine's exactness oracle (``benchmarks/eqsat_oracle.py``:
per-round snapshot index, recursive generator matching with per-binding
dict copies, full re-match and re-apply every round).

Both engines must reach identical results — the same extracted terms and
the same relation contents — on every store of every workload; that is
asserted before any timing is reported.  The timing target (asserted in
the pytest path, skipped in ``--smoke`` mode) is a >=5x saturation
wall-clock speedup on the largest fig-6 workload.

Run directly::

    python -m benchmarks.bench_eqsat_speed          # full report
    python -m benchmarks.bench_eqsat_speed --smoke  # CI: crash/equality
                                                    # check only, no
                                                    # timing assertions
"""

from __future__ import annotations

import argparse
import gc
import time

from repro.apps import conv1d
from repro.eqsat import EGraph, extract_best
from repro.eqsat.schedule import run_phased
from repro.hardboiled.cost import hardboiled_cost_model
from repro.hardboiled.encode import Encoder
from repro.hardboiled.tile_extractor import TileExtractor, _rules_for
from repro.lowering import lower
from repro.perfmodel import format_table

from .eqsat_oracle import legacy_run_phased
from .harness import print_header

KERNEL_SIZES = [8, 32, 96, 256]
LARGEST = 256
ITERATIONS = 14  # the tile extractor's schedule length
TARGET_SPEEDUP = 5.0


def fig6_stores(taps: int):
    """The marker-wrapped accelerator stores of one fig-6 workload."""
    app = conv1d.build("tensor", taps=taps, rows=1)
    return TileExtractor(lower(app.output)).prepared_stores()


def saturate_stores(stores, runner):
    """Saturate every store with ``runner``; returns wall-clock seconds
    plus the per-store results used for the equivalence check."""
    seconds = 0.0
    terms = []
    relations = []
    matches = 0
    for kind, wrapped in stores:
        egraph = EGraph()
        root = Encoder(egraph).stmt(wrapped)
        main_rules, sup_rules = _rules_for(kind)
        start = time.perf_counter()
        stats = runner(
            egraph, main_rules, sup_rules, iterations=ITERATIONS
        )
        seconds += time.perf_counter() - start
        terms.append(str(extract_best(egraph, root, hardboiled_cost_model())))
        relations.append(
            {name: len(rows) for name, rows in egraph.relations.items()}
        )
        matches += stats.total_matches
    return seconds, terms, relations, matches


def compare_engines(taps: int, repeats: int = 7):
    """Best-of-``repeats`` old/new saturation times plus result checks."""
    stores = fig6_stores(taps)
    _, old_terms, old_rels, old_matches = saturate_stores(
        stores, legacy_run_phased
    )
    _, new_terms, new_rels, new_matches = saturate_stores(stores, run_phased)
    assert old_terms == new_terms, (
        f"taps={taps}: engines extracted different terms"
    )
    assert old_rels == new_rels, (
        f"taps={taps}: engines derived different relations"
    )
    old_best = new_best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            old_best = min(
                old_best, saturate_stores(stores, legacy_run_phased)[0]
            )
            new_best = min(new_best, saturate_stores(stores, run_phased)[0])
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "taps": taps,
        "stores": len(stores),
        "old_s": old_best,
        "new_s": new_best,
        "speedup": old_best / new_best,
        "old_matches": old_matches,
        "new_matches": new_matches,
    }


def report(results) -> None:
    print_header(
        "EqSat engine speed — legacy full-rematch loop vs incremental"
        " engine (fig-6 workloads, best-of-N wall-clock)"
    )
    rows = [
        [
            r["taps"],
            r["stores"],
            f"{r['old_s'] * 1e3:.2f} ms",
            f"{r['new_s'] * 1e3:.2f} ms",
            f"{r['speedup']:.2f}x",
            r["old_matches"],
            r["new_matches"],
        ]
        for r in results
    ]
    print(
        format_table(
            ["k", "stores", "old eqsat", "new eqsat", "speedup",
             "old matches", "new matches"],
            rows,
        )
    )
    print(
        "old matches count every re-derived match per round; new matches"
        " count distinct matches (dedup + delta re-derivation removal)"
    )


def test_eqsat_engine_speedup():
    """New engine: identical results, >=5x on the largest fig-6 workload."""
    results = [compare_engines(taps) for taps in KERNEL_SIZES]
    report(results)
    largest = next(r for r in results if r["taps"] == LARGEST)
    assert largest["speedup"] >= TARGET_SPEEDUP, (
        f"saturation speedup regressed: {largest['speedup']:.2f}x <"
        f" {TARGET_SPEEDUP}x on taps={LARGEST}"
    )
    # dedup must strictly reduce the applied-match count
    assert largest["new_matches"] < largest["old_matches"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="equivalence/crash check on a small workload; no timing"
        " assertions (CI-safe)",
    )
    args = parser.parse_args()
    if args.smoke:
        result = compare_engines(KERNEL_SIZES[0], repeats=1)
        print(
            f"smoke ok: taps={result['taps']} stores={result['stores']}"
            f" old={result['old_s'] * 1e3:.2f}ms"
            f" new={result['new_s'] * 1e3:.2f}ms"
            f" speedup={result['speedup']:.2f}x (not asserted)"
        )
        return 0
    test_eqsat_engine_speedup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
