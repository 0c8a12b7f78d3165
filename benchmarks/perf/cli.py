"""Command line of the benchmark.

    run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|both]
           [--smoke] [--out FILE] [--check-determinism]
    run.py compare A B          # record files or directories of them
    run.py manifest             # print BENCHMARK.json

With ``--trace 0`` (default) a run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it measures the per-layer metrics under
the benchmark's span recorder and writes ``trace-<workload>.json``;
``--trace`` alone (``both``) does one after the other.  The last line
of standard output is the JSON object the driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: everything the benchmark writes lands here (git-ignored)
OUT_DIR = os.path.join(HERE, "out")


def _parser() -> argparse.ArgumentParser:
    from .catalog import WORKLOADS
    from .metrics import RUN_SECONDS

    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0",
        choices=("0", "1", "both"),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one pass/round per phase, 2 s paced window; no bounds apply",
    )
    parser.add_argument("--out", help="write the records to this file")
    parser.add_argument("--check-determinism", action="store_true")
    return parser


SUBCOMMANDS = ("compare", "manifest", "cold-probe")


def pin_hash_seed(argv, launcher) -> None:
    """Make the interpreter's hash seed part of the seeded inputs.

    Set iteration order decides how the e-graph is explored:
    ``eqsat.matches`` and ``eqsat.enodes_max`` move by a fraction of a
    percent with ``PYTHONHASHSEED``.  So a run re-executes itself once
    with the hash seed pinned to ``--seed`` — the same seed then repeats
    every count exactly, and different seeds sample different orders.
    Subprocesses (workers, the cold probe) inherit it."""
    if argv and argv[0] in SUBCOMMANDS:
        return
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv[:-1] else "0"
    if not seed.isdigit():
        return  # argparse will reject it
    want = str(int(seed) % 2**32)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.environ["PYTHONHASHSEED"] = want
        os.execv(sys.executable, [sys.executable, *launcher, *argv])


def main(argv, started: float) -> int:
    """Run, then stop and wait for every process the run started —
    also when it raises or is sent SIGTERM."""
    from . import procs

    procs.adopt_orphans()
    procs.raise_on_sigterm()
    code = 1
    try:
        code = _main(argv, started)
    finally:
        left = procs.reap_all()
        if left:
            print(f"processes left running, ended: {left}", file=sys.stderr)
            code = code or 1
    return code


def _main(argv, started: float) -> int:
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    if argv and argv[0] == "manifest":
        from .metrics import manifest

        print(json.dumps(manifest(), indent=2))
        return 0
    if argv and argv[0] == "cold-probe":
        return _cold_probe(argv[1:], started)

    from . import bench
    from .catalog import WORKLOADS

    args = _parser().parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.check_determinism:
        return _check_determinism(names, args.out)
    records = []
    for name in names:
        for trace in {"0": (False,), "1": (True,), "both": (False, True)}[
            args.trace
        ]:
            record = bench.run_workload(
                name, args.seed, args.seconds, trace, args.smoke, OUT_DIR
            )
            records.append(record)
            bench.print_record(record)
            print(bench.contract_line(record), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"records": records}, handle, indent=1)
    return 0 if all(record["correct"] for record in records) else 1


def _compare(argv) -> int:
    from .compare import compare, format_rows

    if len(argv) != 2:
        print("usage: compare A B", file=sys.stderr)
        return 2
    rows, regressed = compare(*argv)
    print(format_rows(rows))
    return 1 if regressed else 0


def _cold_probe(argv, started: float) -> int:
    """What a fresh process pays before its first compiled program:
    the imports and one pass over the catalog.  Run by ``bench`` in a
    subprocess; prints one JSON line."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args(argv)

    from repro.runtime.kernel_cache import KernelCache

    from .catalog import WORKLOADS
    from .compile_phases import compile_program
    from .spans import NullRecorder

    cache = KernelCache()
    for program in WORKLOADS[args.workload].programs:
        compile_program(program, cache, NullRecorder(), None)
    out = {"seconds": time.perf_counter() - started}
    if args.counts:
        from .determinism import count_metrics

        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
        try:
            out["counts"], out["failures"] = count_metrics(
                args.workload, workdir
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _check_determinism(names, out_path) -> int:
    from . import determinism

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="determinism-", dir=OUT_DIR)
    try:
        report = determinism.check(names, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = False
    for name, entry in report.items():
        print(f"== {name}: {len(entry['counts'])} counts repeat exactly ==")
        for metric, value in entry["counts"].items():
            print(f"  {metric:<36} {value!r}")
        for metric, seen in entry["unstable_counts"].items():
            bad = True
            print(f"  UNSTABLE (not published as a count) {metric}: {seen}")
        for failure in entry["failures"]:
            bad = True
            print(f"  FAILED: {failure}")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=1)
    return 1 if bad else 0
