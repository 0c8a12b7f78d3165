"""Smoke test of the benchmark against ``BENCHMARK.json``.

Not collected by tier-1 (``pytest.ini`` has ``testpaths = tests``); run

    python -m pytest benchmarks/perf/test_smoke.py -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from . import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    MANIFEST = json.load(handle)


def run(*args, cwd=ROOT):
    command = MANIFEST["command"] + list(args)
    command[0] = sys.executable
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_manifest_is_what_the_code_defines():
    assert json.loads(run("manifest").stdout) == MANIFEST


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_named_metric(workload, trace, section):
    done = run("--workload", workload, "--seed", "3", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert set(line["metrics"]) == set(units)
    for name, metric in line["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name
        if section == "end_to_end":
            assert metric["value"] != 0, name
    if trace == "1":
        with open(os.path.join(HERE, "out", f"trace-{workload}.json")) as f:
            spans = json.load(f)["spans"]
        assert spans and set(spans[0]) == {
            "id", "name", "start", "end", "parent", "shared"
        }


def test_a_run_leaves_no_process_behind():
    """Orphans of the run re-parent to this process, so whatever the
    benchmark did not stop and wait for shows up as our child."""
    procs.adopt_orphans()
    before = set(procs.children())
    done = run(
        "--workload", MANIFEST["workloads"][0]["name"], "--seed", "3",
        "--smoke", "--trace", "0",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert set(procs.children()) - before == set()


def test_without_the_program_the_command_fails(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` there
    is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in MANIFEST["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    done = run(
        "--workload", MANIFEST["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
