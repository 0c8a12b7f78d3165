"""Every catalog kernel's source, pinned by digest.

For every job of ``interpreter_counts.json`` whose app compiles one
pipeline, ``kernel_sources.json`` holds the sha256 of its per-request
kernel source and of its batched kernel source, compiled for the split
the benchmark serves: the first input and the output stacked, every
other input shared (``null`` where that split does not compile).  A
change to what the emitter writes shows here, to the byte.

Regenerate (only for an intended change of the kernels) with
``PYTHONPATH=src:. python tests/test_kernel_sources.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from test_interpreter_counts import JOBS

from repro.apps.common import App
from repro.runtime.codegen import (
    CodegenError, compile_batched_stmt, compile_stmt,
)

GOLDEN = Path(__file__).with_name("kernel_sources.json")


def _digest(kernel) -> str:
    return hashlib.sha256(kernel.source.encode()).hexdigest()


def kernel_digests(job):
    """``{"kernel": ..., "batched": ...}`` source digests of ``job``'s
    pipeline, or None when its app compiles no single pipeline."""
    app = job.build_app()
    if not isinstance(app, App):
        return None
    pipe = app.compile()
    stmt = pipe.lowered.stmt
    split = {next(iter(app.inputs)).name, pipe.output_name}
    try:
        batched = _digest(compile_batched_stmt(stmt, split))
    except CodegenError:  # served on the looped per-request path
        batched = None
    return {"kernel": _digest(compile_stmt(stmt)), "batched": batched}


@pytest.mark.parametrize("label", sorted(JOBS))
def test_kernel_sources_match_the_golden(label):
    golden = json.loads(GOLDEN.read_text())
    assert kernel_digests(JOBS[label]) == golden.get(label)


def test_the_golden_names_only_catalog_jobs():
    assert set(json.loads(GOLDEN.read_text())) <= set(JOBS)


if __name__ == "__main__":
    rows = {label: kernel_digests(JOBS[label]) for label in sorted(JOBS)}
    GOLDEN.write_text(json.dumps(
        {label: row for label, row in rows.items() if row is not None},
        indent=1,
    ) + "\n")
