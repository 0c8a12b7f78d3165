"""The interpreter's outputs and counts, pinned catalog-wide.

Every count behind the modelled figures (``modeled_speedup_geomean``,
Figs. 4, 5, 7 and 8, Tables I–II) comes from one interpreter run.  For
every program of the benchmark catalog's workloads and for both
schedules of every pair-set app, ``interpreter_counts.json`` holds the
sha256 of the interpreted output on the app's bundled inputs and every
:class:`~repro.runtime.Counters` field of that run, unscaled, the
``*_unique`` footprint levels included.  A change to how the
interpreter evaluates, bounds-checks or counts shows here.

Regenerate (only for an intended change of the counts) with
``PYTHONPATH=src:. python tests/test_interpreter_counts.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.perf.catalog import WORKLOADS
from repro.runtime import Counters

GOLDEN = Path(__file__).with_name("interpreter_counts.json")


def catalog_jobs():
    """``{label: job}`` over every workload's programs and pairs."""
    jobs = {}
    for workload in WORKLOADS.values():
        for program in workload.programs:
            jobs.setdefault(program.job.label, program.job)
        for pair in workload.pairs:
            for job in (pair.cuda, pair.tensor):
                jobs.setdefault(job.label, job)
    return jobs


def counted_run(job) -> dict:
    """One interpreter run of ``job``'s app: output digest and counts."""
    counters = Counters()
    out = np.ascontiguousarray(job.build_app().run(counters))
    return {
        "output": f"{out.dtype.str} {list(out.shape)} "
        + hashlib.sha256(out.tobytes()).hexdigest(),
        "counters": {
            "scalar_flops": counters.scalar_flops,
            "tensor_macs": counters.tensor_macs,
            "int8_macs": counters.int8_macs,
            "int_ops": counters.int_ops,
            "load_bytes": dict(sorted(counters.load_bytes.items())),
            "store_bytes": dict(sorted(counters.store_bytes.items())),
            "intrinsic_calls": dict(sorted(counters.intrinsic_calls.items())),
            "loop_iterations": dict(sorted(counters.loop_iterations.items())),
            "stores_executed": counters.stores_executed,
        },
    }


JOBS = catalog_jobs()


@pytest.mark.parametrize("label", sorted(JOBS))
def test_interpreter_counts_match_the_golden(label):
    golden = json.loads(GOLDEN.read_text())
    assert counted_run(JOBS[label]) == golden[label]


def test_the_golden_covers_the_catalog():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(JOBS)


if __name__ == "__main__":
    rows = {label: counted_run(JOBS[label]) for label in sorted(JOBS)}
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
