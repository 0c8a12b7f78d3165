"""Tests for rules, matching, guards, extraction, and schedules."""


from repro.eqsat import (
    CostModel,
    EGraph,
    GuardAtom,
    I,
    PLit,
    PVar,
    RelAtom,
    Rule,
    Sym,
    T,
    TermAtom,
    UnionAction,
    FactAction,
    Term,
    extract_best,
    find_matches,
    parse_program,
    parse_pattern,
    rewrite,
    run_phased,
    run_rules,
    saturate,
)


def pat(text: str):
    from repro.eqsat.sexpr import parse_one

    return parse_pattern(parse_one(text))


class TestMatching:
    def test_simple_match(self):
        eg = EGraph()
        eg.add_term(T("Add", I(1), I(2)))
        rule = rewrite("comm", pat("(Add x y)"), pat("(Add y x)"))
        matches = find_matches(eg, rule)
        assert len(matches) == 1

    def test_literal_pattern_filters(self):
        eg = EGraph()
        eg.add_term(T("Mul", Sym("a"), I(2)))
        eg.add_term(T("Mul", Sym("a"), I(3)))
        rule = rewrite("times2", pat("(Mul x 2)"), pat("x"))
        assert len(find_matches(eg, rule)) == 1

    def test_nonlinear_pattern(self):
        eg = EGraph()
        eg.add_term(T("Div", Sym("a"), Sym("a")))
        eg.add_term(T("Div", Sym("a"), Sym("b")))
        rule = rewrite("self_div", pat("(Div x x)"), pat("x"))
        assert len(find_matches(eg, rule)) == 1

    def test_nested_pattern(self):
        eg = EGraph()
        eg.add_term(T("Div", T("Mul", Sym("a"), I(2)), I(2)))
        rule = rewrite(
            "assoc", pat("(Div (Mul a n) n)"), pat("(Mul a (Div n n))")
        )
        assert len(find_matches(eg, rule)) == 1


class TestGuards:
    def test_comparison_guard(self):
        eg = EGraph()
        eg.add_term(T("Broadcast", Sym("v"), I(8)))
        eg.add_term(T("Broadcast", Sym("w"), I(1)))
        rule = rewrite(
            "wide_only",
            pat("(Broadcast v l)"),
            pat("(Wide v l)"),
            when=[GuardAtom(">", (PVar("l"), PLit("i64", 1)))],
        )
        assert len(find_matches(eg, rule)) == 1

    def test_modulo_guard(self):
        eg = EGraph()
        eg.add_term(T("Pair", I(12), I(4)))
        eg.add_term(T("Pair", I(12), I(5)))
        rule = Rule(
            "divisible",
            [
                TermAtom("e", pat("(Pair a b)")),
                GuardAtom("=", (PLit("i64", 0), pat("(% a b)"))),
            ],
            [UnionAction(PVar("e"), pat("(Divisible a b)"))],
        )
        assert len(find_matches(EGraph(), rule)) == 0
        assert len(find_matches(eg, rule)) == 1

    def test_binding_guard_computes_literal(self):
        # (= product (* a b)) with product unbound binds it to a*b
        eg = EGraph()
        eg.add_term(T("Pair", I(6), I(7)))
        rule = Rule(
            "compute",
            [
                TermAtom("e", pat("(Pair a b)")),
                GuardAtom("=", (PVar("product"), pat("(* a b)"))),
            ],
            [UnionAction(PVar("e"), pat("(Product product)"))],
        )
        run_rules(eg, [rule])
        assert eg.lookup_term(T("Product", I(42))) is not None


class TestRelations:
    def test_relation_atom_and_fact_action(self):
        eg = EGraph()
        a = eg.add_term(Sym("a"))
        eg.assert_fact("is-matrix", (a,))
        rule = Rule(
            "tag",
            [RelAtom("is-matrix", (PVar("m"),))],
            [FactAction("tagged", (PVar("m"),))],
        )
        run_rules(eg, [rule])
        assert (eg.find(a),) in eg.facts("tagged")

    def test_datalog_transitivity(self):
        eg = EGraph()
        a, b, c = (eg.add_term(Sym(s)) for s in "abc")
        eg.assert_fact("edge", (a, b))
        eg.assert_fact("edge", (b, c))
        trans = Rule(
            "trans",
            [RelAtom("edge", (PVar("x"), PVar("y"))),
             RelAtom("edge", (PVar("y"), PVar("z")))],
            [FactAction("edge", (PVar("x"), PVar("z")))],
        )
        saturate(eg, [trans])
        assert (eg.find(a), eg.find(c)) in eg.facts("edge")


class TestEqSatEndToEnd:
    def test_figure1_mul_div_cancel(self):
        """The paper's Fig. 1: (a*2)/2 becomes a."""
        eg = EGraph()
        root = eg.add_term(T("Div", T("Mul", Sym("a"), I(2)), I(2)))
        a = eg.add_term(Sym("a"))
        rules = [
            rewrite("reassoc", pat("(Div (Mul x n) m)"),
                    pat("(Mul x (Div n m))")),
            rewrite("div-self", pat("(Div n n)"), pat("1")),
            rewrite("mul-one", pat("(Mul x 1)"), pat("x")),
        ]
        saturate(eg, rules)
        assert eg.equivalent(root, a)
        best = extract_best(eg, root)
        assert best == Sym("a")

    def test_commutativity_no_blowup(self):
        eg = EGraph()
        root = eg.add_term(T("Add", Sym("a"), T("Add", Sym("b"), Sym("c"))))
        stats = saturate(eg, [rewrite("comm", pat("(Add x y)"), pat("(Add y x)"))])
        assert stats.saturated
        # commutativity only doubles the node count, never explodes
        assert eg.num_nodes() < 20

    def test_extraction_prefers_smaller(self):
        eg = EGraph()
        big = eg.add_term(T("Add", T("Mul", Sym("a"), I(1)), I(0)))
        small = eg.add_term(Sym("a"))
        eg.union(big, small)
        eg.rebuild()
        assert extract_best(eg, big) == Sym("a")

    def test_custom_cost_prefers_intrinsic(self):
        eg = EGraph()
        naive = eg.add_term(
            T("VectorReduceAdd", I(512), T("Mul", Sym("lhs"), Sym("rhs")))
        )
        tile = eg.add_term(T("Call", Sym("tile_matmul"), Sym("args")))
        eg.union(naive, tile)
        eg.rebuild()
        best = extract_best(eg, naive, CostModel())
        assert best.head == "Call"


class TestParseProgram:
    def test_parse_rewrite_roundtrip(self):
        rules, relations = parse_program(
            """
            (rewrite (Broadcast (Broadcast x l1) l2)
                     (Broadcast x (* l1 l2)))
            """
        )
        assert len(rules) == 1
        eg = EGraph()
        root = eg.add_term(
            T("Broadcast", T("Broadcast", Sym("v"), I(4)), I(8))
        )
        flat = eg.add_term(T("Broadcast", Sym("v"), I(32)))
        saturate(eg, rules)
        assert eg.equivalent(root, flat)

    def test_parse_rule_with_relation(self):
        rules, relations = parse_program(
            """
            (relation has-type (Expr Type))
            (rule ((= e (FloatImm v)))
                  ((has-type e (Float32 1))))
            """
        )
        assert "has-type" in relations
        eg = EGraph()
        imm = eg.add_term(T("FloatImm", Term(("f64", 0.5))))
        run_rules(eg, rules)
        assert len(eg.facts("has-type")) == 1

    def test_parse_when_condition(self):
        rules, _ = parse_program(
            """
            (rewrite (Ramp e 1 l)
                     (Ramp (Ramp e 1 2) (Broadcast 2 2) (/ l 2))
                     :when ((= 0 (% l 2)) (> l 2)))
            """
        )
        eg = EGraph()
        ok = eg.add_term(T("Ramp", Sym("e"), I(1), I(8)))
        bad = eg.add_term(T("Ramp", Sym("f"), I(1), I(7)))
        run_rules(eg, rules)
        nested = eg.lookup_term(
            T("Ramp", T("Ramp", Sym("e"), I(1), I(2)),
              T("Broadcast", I(2), I(2)), I(4))
        )
        assert nested is not None and eg.equivalent(ok, nested)
        # the odd-lane ramp must not have been rewritten
        assert len(eg.nodes_of(bad)) == 1

    def test_paper_type_derivation_rule(self):
        """The App/Arrow type-derivation rule from §II-D."""
        rules, _ = parse_program(
            """
            (relation has-type (Expr Type))
            (rule ((= e (App e1 e2))
                   (has-type e1 (Arrow t1 t2))
                   (has-type e2 t1))
                  ((has-type e t2)))
            """
        )
        eg = EGraph()
        f, x = eg.add_term(Sym("f")), eg.add_term(Sym("x"))
        app = eg.add_term(T("App", Sym("f"), Sym("x")))
        int_t = eg.add_term(T("Int"))
        bool_t = eg.add_term(T("Bool"))
        arrow = eg.add_term(T("Arrow", T("Int"), T("Bool")))
        eg.assert_fact("has-type", (f, arrow))
        eg.assert_fact("has-type", (x, int_t))
        saturate(eg, rules)
        assert (eg.find(app), eg.find(bool_t)) in eg.facts("has-type")


class TestPhasedSchedule:
    def test_supporting_saturates_between_main(self):
        # supporting rule derives types; main rule needs them
        supporting, relations = parse_program(
            """
            (relation has-lanes (Expr i64))
            (rule ((= e (Broadcast x l))) ((has-lanes e l)))
            """
        )
        main = [
            Rule(
                "widen",
                [
                    TermAtom("e", pat("(Broadcast x l)")),
                    RelAtom("has-lanes", (PVar("e"), PVar("l"))),
                ],
                [UnionAction(PVar("e"), pat("(Wide x l)"))],
            )
        ]
        eg = EGraph()
        root = eg.add_term(T("Broadcast", Sym("v"), I(16)))
        stats = run_phased(eg, main, supporting, iterations=3)
        wide = eg.lookup_term(T("Wide", Sym("v"), I(16)))
        assert wide is not None and eg.equivalent(root, wide)
        assert stats.outer_iterations >= 1
