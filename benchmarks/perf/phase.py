"""A phase of the run, taken a step at a time."""

from __future__ import annotations

import time
from typing import Dict, List

from .stats import low

PERF = time.perf_counter


class PhaseResult:
    """What one phase hands back to the run."""

    def __init__(self) -> None:
        #: end-to-end metric -> (value, sample count)
        self.e2e: Dict[str, tuple] = {}
        #: per-layer metric -> value
        self.layer: Dict[str, float] = {}
        #: free-form rows for the record (per-program detail)
        self.detail: Dict[str, object] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)


class Phase:
    """One phase; its *unit* is a pass, a round or a window.

    A run interleaves the phases — one step of each per cycle — so
    every metric samples the whole run and a burst of host interference
    lands in a few samples of each, not in all samples of one.
    ``finish`` reduces the samples to the named metrics."""

    #: a step repeats the unit until it has taken this long, so a small
    #: catalog gets as much measured time per cycle as a large one;
    #: 0 means one unit (``--smoke``)
    step_seconds = 0.8
    #: larger is better for the primary metric (a rate)
    primary_is_rate = False

    def __init__(self) -> None:
        self.result = PhaseResult()
        #: per traced unit: summed per-layer values and ``span.<name>``
        #: totals in ms
        self.passes: List[Dict[str, float]] = []
        #: (start, stop) recorder marks of each traced unit
        self.ranges: List[tuple] = []

    def step(self, rec, *args) -> None:
        deadline = PERF() + self.step_seconds
        while True:
            values: Dict[str, float] = {}
            start = rec.mark()
            self.unit(rec, values, *args)
            if rec.enabled:
                stop = rec.mark()
                self.ranges.append((start, stop))
                for name, total in rec.totals(start, stop).items():
                    values["span." + name] = total * 1e3
                self.passes.append(values)
            if PERF() >= deadline:
                break

    def layer_lows(self) -> Dict[str, float]:
        """``low`` over the traced units of every per-layer value, like
        the end-to-end timings (a count reads the same in every unit)."""
        names = sorted({name for values in self.passes for name in values})
        return {
            name: low(v.get(name, 0.0) for v in self.passes) for name in names
        }

    def unit(self, rec, values: Dict[str, float], *args) -> None:
        """Run the unit once; put per-layer values into ``values`` when
        ``rec.enabled``."""
        raise NotImplementedError

    def primary_value(self) -> float:
        """The metric whose traced / untraced ratio is the recorder's
        overhead, from the samples so far."""
        raise NotImplementedError

    def finish(self, traced: bool) -> PhaseResult:
        raise NotImplementedError


def add(values: Dict[str, float], name: str, amount: float) -> None:
    values[name] = values.get(name, 0.0) + amount


def keep_max(values: Dict[str, float], name: str, amount: float) -> None:
    values[name] = max(values.get(name, 0.0), amount)
