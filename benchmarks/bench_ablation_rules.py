"""Ablation: which rule classes are load-bearing for instruction selection?

The paper's §III-B narrative: lowering patterns alone cannot match
Halide's simplifier output — the axiomatic rules must re-derive the
canonical nested forms inside EqSat.  This ablation disables axiom
subsets and shows selection failing, plus measures how many phased
iterations each workload actually needs (the fixed-iteration rule
schedule of §III-D.2).
"""

import pytest

from repro.hardboiled import select_instructions
from repro.hardboiled.rules_axiomatic import axiomatic_rules
from repro.lowering import lower
from repro.perfmodel import format_table

from .harness import print_header


def build_amx_matmul():
    from repro.apps.matmul import build_amx

    return build_amx(layout="standard")


def select_with_rules(lowered, rule_filter, iterations=14):
    """Run selection with a filtered axiomatic rule set."""
    import repro.hardboiled.tile_extractor as te

    full_rules, relations = axiomatic_rules()
    filtered = [r for r in full_rules if rule_filter(r)]
    original = te.axiomatic_rules
    te.axiomatic_rules = lambda: (filtered, relations)
    # _rules_for caches per accelerator kind; drop it so the patched
    # axiom set is actually picked up (and again afterwards, so later
    # callers re-see the full set)
    te._rules_for.cache_clear()
    try:
        return select_instructions(lowered, iterations=iterations)
    finally:
        te.axiomatic_rules = original
        te._rules_for.cache_clear()


@pytest.mark.benchmark(group="ablation")
def test_ablation_axiom_classes(benchmark):
    app = build_amx_matmul()
    lowered = lower(app.output)
    rows = []

    # full rule set: everything maps
    _, report = select_instructions(lowered)
    rows.append(["full axiom set", report.num_mapped, len(report.selections)])
    assert report.all_mapped

    # no axioms at all: only the trivially-canonical store maps
    _, report_none = select_with_rules(lowered, lambda r: False)
    rows.append(["no axioms", report_none.num_mapped, len(report_none.selections)])
    assert not report_none.all_mapped

    # drop the broadcast-into-load push (paper Fig. 10c rule 1):
    # the B operand stays hidden behind the simplifier's
    # broadcast-of-load form and the MatMul cannot match
    def without_load_push(rule):
        return "MultiplyLanes" not in str(rule.actions)

    _, report_nlp = select_with_rules(lowered, without_load_push)
    rows.append(
        ["without broadcast->load push", report_nlp.num_mapped,
         len(report_nlp.selections)]
    )
    assert not report_nlp.all_mapped

    print_header("Ablation — axiomatic rule classes (AMX MatMul, std layout)")
    print(format_table(["rule set", "stores mapped", "stores total"], rows))
    print(
        "paper SS III-B: without the axioms the simplifier's local"
        " rewrites hide the tensor patterns from any syntactic matcher"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="ablation")
def test_ablation_iteration_budget(benchmark):
    """How many phased iterations does each pattern family need?"""
    from repro.apps import conv1d

    rows = []
    needed = {}
    for name, make in (
        ("AMX matmul (standard)", lambda: build_amx_matmul().output),
        ("WMMA conv1d", lambda: conv1d.build("tensor", taps=16, rows=1).output),
    ):
        lowered = lower(make())
        for iters in (2, 4, 6, 8, 10, 14):
            _, report = select_instructions(lowered, iterations=iters)
            if report.all_mapped:
                needed[name] = iters
                rows.append([name, iters])
                break
        else:
            needed[name] = None
            rows.append([name, ">14"])
    print_header("Ablation — phased iterations needed to map (SS III-D.2)")
    print(format_table(["workload", "iterations"], rows))
    assert all(v is not None for v in needed.values())
    # the conv pattern is already canonical; matmul needs re-derivation
    assert needed["WMMA conv1d"] <= needed["AMX matmul (standard)"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
