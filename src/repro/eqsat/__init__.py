"""An egglog-style equality saturation engine.

E-graphs with deferred rebuilding (egg), Datalog-style relations and
rules (egglog), phased rule schedules, and cost-based extraction.
"""

from .egraph import EClass, EGraph
from .ematch import (
    Bindings,
    CompiledQuery,
    MatchError,
    compile_query,
    run_query,
)
from .extract import (
    CostModel,
    ExtractionError,
    compute_costs,
    extract_best,
    extraction_cost,
)
from .language import ENode, F, I, Sym, T, Term
from .pattern import PApp, PLit, PVar, Pattern, parse_pattern, pattern_vars
from .rules import (
    Action,
    Atom,
    FactAction,
    GuardAtom,
    LetAction,
    RelAtom,
    Rule,
    RuleEngine,
    RunStats,
    TermAtom,
    UnionAction,
    find_matches,
    parse_program,
    rewrite,
    run_rules,
    saturate,
)
from .schedule import ScheduleStats, run_phased
from .sexpr import parse_all, parse_one

__all__ = [name for name in dir() if not name.startswith("_")]
