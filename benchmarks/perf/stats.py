"""Small order statistics; every timing the benchmark reports goes
through these so the definitions are in one place."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def low(values: Iterable[float]) -> float:
    """Lower quartile: the benchmark's estimate of a time.

    On a shared host interference only ever adds time and comes in
    bursts that last seconds, so the lower quartile over passes, calls
    or slices repeats run to run two to three times tighter than the
    median.  The median is kept beside it in the record."""
    return percentile(list(values), 25)


def high(values: Iterable[float]) -> float:
    """Upper quartile: ``low`` for a rate, where larger is better."""
    return percentile(list(values), 75)


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the driver's run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
