"""Rule schedules (paper §III-D.2).

HARDBOILED runs a fixed number of iterations of the axiomatic,
application-specific, and lowering rules, interleaved with running the
*supporting* rules (type/shape analyses) to fixpoint — supporting rules
always saturate in finitely many steps.

``run_phased`` keeps one persistent :class:`~.rules.RuleEngine` per rule
set across the whole schedule, so after the first outer iteration the
supporting fixpoint and the main pass are delta passes over whatever the
other phase changed, instead of full re-matches of the entire e-graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from .egraph import EGraph
from .rules import Rule, RuleEngine, RunStats


@dataclass
class ScheduleStats:
    """Aggregated statistics over a phased run."""

    outer_iterations: int = 0
    main_stats: List[RunStats] = field(default_factory=list)
    supporting_stats: List[RunStats] = field(default_factory=list)
    seconds: float = 0.0
    saturated: bool = False

    @property
    def total_matches(self) -> int:
        return sum(s.total_matches for s in self.main_stats) + sum(
            s.total_matches for s in self.supporting_stats
        )

    def _sum(self, attr: str) -> float:
        return sum(getattr(s, attr) for s in self.main_stats) + sum(
            getattr(s, attr) for s in self.supporting_stats
        )

    @property
    def match_seconds(self) -> float:
        return self._sum("match_seconds")

    @property
    def apply_seconds(self) -> float:
        return self._sum("apply_seconds")

    @property
    def rebuild_seconds(self) -> float:
        return self._sum("rebuild_seconds")

    @property
    def delta_rounds(self) -> int:
        return int(self._sum("delta_rounds"))

    @property
    def full_rounds(self) -> int:
        return int(self._sum("full_rounds"))

    def profile(self) -> dict:
        """Timing breakdown for benchmark reports."""
        return {
            "total_s": self.seconds,
            "match_s": self.match_seconds,
            "apply_s": self.apply_seconds,
            "rebuild_s": self.rebuild_seconds,
            "delta_rounds": self.delta_rounds,
            "full_rounds": self.full_rounds,
            "matches": self.total_matches,
        }


def run_phased(
    egraph: EGraph,
    main_rules: Sequence[Rule],
    supporting_rules: Sequence[Rule],
    iterations: int = 4,
    saturate_limit: int = 64,
) -> ScheduleStats:
    """The paper's schedule: N x (saturate supporting; run main once)."""
    stats = ScheduleStats()
    start = time.perf_counter()
    main_engine = RuleEngine(egraph, main_rules)
    supporting_engine = RuleEngine(egraph, supporting_rules)
    for _ in range(iterations):
        stats.outer_iterations += 1
        stats.supporting_stats.append(supporting_engine.run(saturate_limit))
        version_before = egraph.version
        stats.main_stats.append(main_engine.run(1))
        if egraph.version == version_before:
            stats.saturated = True
            break
    # a final supporting pass so analyses cover the last main-rule output
    stats.supporting_stats.append(supporting_engine.run(saturate_limit))
    stats.seconds = time.perf_counter() - start
    return stats
