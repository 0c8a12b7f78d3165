"""Chaos-soak invariant suite (the harness is ``tests/chaos.py``).

Each test case is one seeded soak: a random composition of fault modes
fires against a long mixed workload (two shape buckets, random deadline
budgets, priority classes, idempotence flags, sometimes a mid-stream
rolling restart) and the invariant checker must come back empty —
exactly-one terminal outcome per request, bitwise parity on successes,
at-most-once for ``idempotent=False``, stats conservation, and clean
process/shm teardown.

``REPRO_CHAOS_SEEDS`` bounds the sweep (default 25 locally; CI sets a
smaller cap with a wall-clock ceiling).  A failure message carries the
seed, so every violation replays exactly with
``run_soak(seed, cache_dir=...)``.
"""

import os

import pytest

from chaos import SoakReport, random_fault_plan, run_soak
from repro.service.faults import FaultPlan

pytestmark = pytest.mark.chaos

SEEDS = range(int(os.environ.get("REPRO_CHAOS_SEEDS", "25")))


@pytest.fixture(scope="module")
def soak_cache(tmp_path_factory):
    """One shared artifact store: later soaks warm-start their workers."""
    return str(tmp_path_factory.mktemp("chaos-store"))


def test_fault_plan_is_deterministic():
    """Same seed, same plan — the replay contract of every report."""
    first = random_fault_plan(1234)
    second = random_fault_plan(1234)
    assert [spec.label for spec in first.specs] == [
        spec.label for spec in second.specs
    ]
    assert isinstance(first, FaultPlan)
    assert first.specs, "a chaos plan must contain at least one fault"


def test_fault_plans_cover_the_mode_space():
    """Across a modest seed range the draw exercises every mode."""
    drawn = set()
    for seed in range(64):
        for spec in random_fault_plan(seed).specs:
            drawn.add(spec.mode)
    from chaos import _DISRUPTIVE_MODES, _RATE_MODES

    assert drawn == set(_RATE_MODES + _DISRUPTIVE_MODES)


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_invariants(seed, soak_cache):
    """The full soak for one seed: every invariant must hold."""
    report = run_soak(seed, cache_dir=soak_cache)
    assert isinstance(report, SoakReport)
    assert report.ok, (
        f"seed {seed} violated {len(report.violations)} invariant(s)"
        f" (plan={report.plan}, action={report.action}):"
        f" {report.violations}"
    )
    # the workload always contains admitted requests and tiny budgets,
    # so a passing soak must have both completions and expiries
    assert report.submitted > 0
    assert report.completed > 0
    assert report.expired > 0
