"""Pass orchestration: Func DAG -> executable lowered statement."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Set

from ..frontend.func import Func
from ..ir import Stmt
from .build import Lowerer, RealizationInfo, flatten_storage
from .cleanup import remove_trivial_loops
from .simplify import simplify_stmt
from .vectorize import vectorize_loops


@dataclass
class Lowered:
    """The result of lowering (pre- or post-instruction-selection)."""

    stmt: Stmt
    realizations: Dict[str, RealizationInfo]
    output: Func
    atomic_vars: Set[str]
    #: wall-clock seconds per pass, for the compile-time experiments
    pass_seconds: Dict[str, float] = field(default_factory=dict)


def lower(
    output: Func,
    *,
    vectorize: bool = True,
    simplify: bool = True,
    verify: bool = False,
) -> Lowered:
    """Lower a scheduled Func to vectorized, simplified IR.

    ``verify=True`` gates the result through the static IR verifier
    (:func:`repro.analysis.check_ir`): use-before-def, bounds, scope,
    and type defects raise :class:`repro.analysis.AnalysisError`
    instead of surfacing as wrong answers at run time.
    """
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    lowerer = Lowerer(output)
    skeleton = lowerer.lower()
    timings["build"] = time.perf_counter() - start

    start = time.perf_counter()
    stmt = flatten_storage(skeleton, lowerer.realizations)
    stmt = remove_trivial_loops(stmt)
    timings["flatten"] = time.perf_counter() - start

    if vectorize:
        start = time.perf_counter()
        stmt = vectorize_loops(stmt, lowerer.atomic_vars)
        timings["vectorize"] = time.perf_counter() - start
    if simplify:
        start = time.perf_counter()
        stmt = simplify_stmt(stmt)
        timings["simplify"] = time.perf_counter() - start
    if verify:
        from ..analysis import check_ir

        start = time.perf_counter()
        check_ir(
            stmt,
            lowerer.realizations,
            phase="lowered",
            context=output.name,
        )
        timings["verify"] = time.perf_counter() - start
    return Lowered(
        stmt, lowerer.realizations, output, lowerer.atomic_vars, timings
    )
