"""``compare A B``: do two sets of runs agree within the benchmark's
own bounds?  ``A`` and ``B`` are record files (``--out``) or
directories of them; several runs per side give medians and a spread.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Tuple

from .metrics import END_TO_END
from .stats import median, quartile_spread


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per run]}`` from a file or dir."""
    files = (
        sorted(glob.glob(os.path.join(path, "*.json")))
        if os.path.isdir(path)
        else [path]
    )
    values: Dict[Tuple[str, str], List[float]] = {}
    for name in files:
        with open(name) as handle:
            for record in json.load(handle)["records"]:
                for metric, m in record.get("end_to_end", {}).items():
                    values.setdefault(
                        (record["workload"], metric), []
                    ).append(m["value"])
    return values


def compare(path_a: str, path_b: str) -> Tuple[List[list], bool]:
    """Rows ``[workload, metric, a, b, worse share, bound, spread,
    status]`` and whether any row regressed."""
    a, b = load(path_a), load(path_b)
    rows = []
    regressed = False
    for metric, _, better, bound, _, _ in END_TO_END:
        for workload in sorted({w for w, m in a if m == metric}):
            runs_a = a[(workload, metric)]
            runs_b = b.get((workload, metric))
            if not runs_b:
                continue
            mid_a, mid_b = median(runs_a), median(runs_b)
            sign = 1.0 if better == "lower" else -1.0
            worse = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
            spread = max(
                quartile_spread(runs) if len(runs) >= 4 else 0.0
                for runs in (runs_a, runs_b)
            )
            all_better = (
                max(runs_b) < min(runs_a)
                if better == "lower"
                else min(runs_b) > max(runs_a)
            )
            if spread > bound and metric != "setup_s" and not all_better:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
                regressed = True
            else:
                status = "ok"
            rows.append(
                [workload, metric, mid_a, mid_b, worse, bound, spread, status]
            )
    return rows, regressed


def format_rows(rows: List[list]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<28} {'A':>12} {'B':>12}"
        f" {'worse by':>9} {'bound':>6} {'spread':>7}  status"
    ]
    for workload, metric, a, b, worse, bound, spread, status in rows:
        lines.append(
            f"{workload:<13} {metric:<28} {a:>12.4f} {b:>12.4f}"
            f" {worse:>+9.2%} {bound:>6.0%} {spread:>7.2%}  {status}"
        )
    return "\n".join(lines)
