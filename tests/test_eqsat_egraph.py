"""Tests for the e-graph core: hashconsing, union, rebuild, relations."""

import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eqsat import EGraph, ENode, F, I, Sym, T


def add(egraph, head, *args):
    return egraph.add_node(ENode(head, tuple(args)))


class TestHashcons:
    def test_identical_terms_share_class(self):
        eg = EGraph()
        a = eg.add_term(T("Add", I(1), I(2)))
        b = eg.add_term(T("Add", I(1), I(2)))
        assert a == b

    def test_distinct_terms_distinct_classes(self):
        eg = EGraph()
        a = eg.add_term(T("Add", I(1), I(2)))
        b = eg.add_term(T("Add", I(2), I(1)))
        assert a != b

    def test_literals_interned(self):
        eg = EGraph()
        assert eg.add_literal("i64", 7) == eg.add_literal("i64", 7)
        assert eg.add_literal("i64", 7) != eg.add_literal("i64", 8)
        assert eg.add_literal("str", "A") == eg.add_literal("str", "A")

    def test_lookup_term(self):
        eg = EGraph()
        t = T("Mul", Sym("x"), I(2))
        assert eg.lookup_term(t) is None
        added = eg.add_term(t)
        assert eg.lookup_term(t) == added

    def test_lookup_literal_directly(self):
        eg = EGraph()
        assert eg.lookup_term(I(7)) is None
        added = eg.add_term(I(7))
        assert eg.lookup_term(I(7)) == added

    def test_nan_literals_interned_and_found(self):
        # NaN != NaN, so without payload canonicalization every fresh
        # NaN literal would hashcons to a new class and never be found
        eg = EGraph()
        a = eg.add_term(F(float("nan")))
        b = eg.add_term(F(float("nan")))
        assert a == b
        assert eg.lookup_term(F(float("nan"))) == a
        wrapped = eg.add_term(T("Neg", F(float("nan"))))
        assert eg.lookup_term(T("Neg", F(float("nan")))) == wrapped


def test_module_docstring_examples():
    """The saturate-and-extract sessions in the docs must keep working."""
    from repro.eqsat import egraph as egraph_mod
    from repro.eqsat import ematch as ematch_mod

    for module in (egraph_mod, ematch_mod):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__


class TestUnion:
    def test_union_merges(self):
        eg = EGraph()
        a = eg.add_literal("str", "a")
        b = eg.add_literal("str", "b")
        assert eg.union(a, b)
        assert eg.equivalent(a, b)
        assert not eg.union(a, b)

    def test_congruence_after_rebuild(self):
        # f(a) and f(b) must merge once a == b
        eg = EGraph()
        a = eg.add_literal("str", "a")
        b = eg.add_literal("str", "b")
        fa = add(eg, "f", a)
        fb = add(eg, "f", b)
        assert not eg.equivalent(fa, fb)
        eg.union(a, b)
        eg.rebuild()
        assert eg.equivalent(fa, fb)

    def test_transitive_congruence(self):
        # g(f(a)) == g(f(b)) needs two upward propagation steps
        eg = EGraph()
        a = eg.add_literal("str", "a")
        b = eg.add_literal("str", "b")
        gfa = add(eg, "g", add(eg, "f", a))
        gfb = add(eg, "g", add(eg, "f", b))
        eg.union(a, b)
        eg.rebuild()
        assert eg.equivalent(gfa, gfb)

    def test_hashcons_canonical_after_rebuild(self):
        eg = EGraph()
        a = eg.add_literal("str", "a")
        b = eg.add_literal("str", "b")
        add(eg, "f", a)
        add(eg, "f", b)
        eg.union(a, b)
        eg.rebuild()
        for node, owner in eg.hashcons.items():
            assert node == node.canonicalize(eg.find)
            assert owner in eg.classes or eg.find(owner) in eg.classes


class TestRelations:
    def test_assert_and_query(self):
        eg = EGraph()
        a = eg.add_literal("str", "a")
        b = eg.add_literal("str", "b")
        assert eg.assert_fact("edge", (a, b))
        assert not eg.assert_fact("edge", (a, b))
        assert (a, b) in eg.facts("edge")

    def test_relations_canonicalized_on_rebuild(self):
        eg = EGraph()
        a = eg.add_literal("str", "a")
        b = eg.add_literal("str", "b")
        c = eg.add_literal("str", "c")
        eg.assert_fact("edge", (a, c))
        eg.assert_fact("edge", (b, c))
        eg.union(a, b)
        eg.rebuild()
        assert len(eg.facts("edge")) == 1


class TestRebuildInvariants:
    def test_repair_keeps_the_parents_a_nested_union_hands_over(self):
        """A union fired from inside ``_repair`` (two parents became
        congruent) hands the surviving class more parents; repair used
        to overwrite that list with its own and lose them, so a later
        merge never re-spelled those nodes: ``f(3,9)`` stayed in the
        hashcons while its canonical form ``f(3,1)`` was absent."""
        eg = EGraph()
        for i in range(8):
            assert eg.add_literal("i64", i) == i
        for args in ((0, 1), (2, 1), (0, 0), (9, 9), (3, 9)):  # ids 8..12
            add(eg, "f", *args)
        for a, b in ((0, 8), (0, 2), (1, 0)):
            eg.union(a, b)
            eg.rebuild()
            assert eg.check_invariants() == []
        assert add(eg, "f", eg.find(3), eg.find(1)) == eg.find(12)

    def test_rebuild_leaves_one_canonical_node_set(self):
        """Class node sets, the hashcons and the head index are the same
        canonical nodes after a rebuild — no stale spellings left in
        parent classes, so ``num_nodes`` is a true count."""
        eg = EGraph()
        a, b = eg.add_literal("str", "a"), eg.add_literal("str", "b")
        ga = add(eg, "g", add(eg, "f", a, a))
        add(eg, "g", add(eg, "f", a, b))
        add(eg, "h", ga, b)
        eg.union(a, b)
        eg.rebuild()
        assert eg.check_invariants() == []
        nodes = [n for c in eg.classes.values() for n in c.nodes]
        assert sorted(map(str, nodes)) == sorted(map(str, eg.hashcons))
        assert all(n == n.canonicalize(eg.find) for n in nodes)
        # a, b, f(a,a), g(f(a,a)), h(g(..), a): congruence folded the rest
        assert eg.num_nodes() == len(nodes) == 5

    def test_check_invariants_names_what_is_broken(self):
        def graph():
            eg = EGraph()
            x = eg.add_literal("str", "x")
            fx = add(eg, "f", x)
            eg.assert_fact("tag", (fx, x))
            return eg, x, fx

        eg, x, fx = graph()
        assert eg.check_invariants() == []
        eg.union(x, fx)
        assert "pending" in eg.check_invariants()[0]
        eg, x, fx = graph()
        eg.classes[x].parents.clear()
        assert any("parents" in v for v in eg.check_invariants())
        eg, x, fx = graph()
        del eg.classes[fx].nodes[ENode("f", (x,))]
        assert any("hashcons key" in v for v in eg.check_invariants())
        eg, x, fx = graph()
        eg._index["f"].clear()
        assert any("head index" in v for v in eg.check_invariants())
        eg, x, fx = graph()
        eg._rows_of[x].clear()
        assert any("_rows_of" in v for v in eg.check_invariants())


#: tier-1 runs the properties derandomized, so a red run is red
#: everywhere; the wide random search is ``-m generative``
TIER1 = settings(max_examples=60, deadline=None, derandomize=True, database=None)
WIDE = settings(max_examples=500, deadline=None)


def nested_terms(data, eg, leaves, count):
    """``count`` binary ``f`` nodes, children drawn mostly from the
    newest terms — ``f`` over ``f`` over ``f``, with shared subterms —
    so one union of leaves cascades through several levels."""
    terms = list(leaves)
    for _ in range(count):
        pool = st.sampled_from(terms[-3:]) | st.sampled_from(terms)
        a = data.draw(pool, label="child_a")
        b = data.draw(pool, label="child_b")
        terms.append(eg.add_node(ENode("f", (a, b))))
    return terms


def check_union_find_invariants(data):
    eg = EGraph()
    ids = [eg.add_literal("i64", i) for i in range(4)]
    terms = nested_terms(data, eg, ids, 10)
    built = [(t, next(iter(eg.nodes_of(t)))) for t in terms[len(ids):]]
    for _ in range(6):
        # unions lean towards the leaves, whose merges make parents
        # congruent (and so fire unions from inside the repair loop)
        pool = st.sampled_from(terms[:6]) | st.sampled_from(terms)
        eg.union(data.draw(pool, label="union_a"), data.draw(pool, label="union_b"))
        if data.draw(st.booleans(), label="rebuild_now"):
            eg.rebuild()
            assert eg.check_invariants() == []
    eg.rebuild()
    assert eg.check_invariants() == []
    # find is idempotent and lands in a live class
    for t in terms:
        root = eg.find(t)
        assert eg.find(root) == root
        assert root in eg.classes
    # lookups are consistent: every key is canonical, owned by a live
    # class, and what an insertion of the same node would find
    for node, owner in list(eg.hashcons.items()):
        assert node == node.canonicalize(eg.find)
        assert eg.add_node(node) == eg.find(owner)
    # congruence closure is complete over the nodes that were inserted
    for t1, n1 in built:
        for t2, n2 in built:
            if all(eg.equivalent(x, y) for x, y in zip(n1.args, n2.args)):
                assert eg.equivalent(t1, t2)


def check_congruence_closure(data):
    eg = EGraph()
    leaves = [eg.add_literal("i64", i) for i in range(6)]
    apps = {leaf: eg.add_node(ENode("f", (leaf,))) for leaf in leaves}
    towers = {leaf: eg.add_node(ENode("f", (app,))) for leaf, app in apps.items()}
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(leaves), st.sampled_from(leaves)),
            max_size=6,
        ),
        label="unions",
    )
    for a, b in pairs:
        eg.union(a, b)
    eg.rebuild()
    assert eg.check_invariants() == []
    for a in leaves:
        for b in leaves:
            if eg.equivalent(a, b):
                assert eg.equivalent(apps[a], apps[b])
                assert eg.equivalent(towers[a], towers[b])


@TIER1
@given(st.data())
def test_property_union_find_invariants(data):
    """Random unions keep find idempotent and classes consistent."""
    check_union_find_invariants(data)


@TIER1
@given(st.data())
def test_property_congruence_closure(data):
    """After rebuild, f(x) and f(y) are merged whenever x ~ y."""
    check_congruence_closure(data)


@pytest.mark.generative
@WIDE
@given(st.data())
def test_property_union_find_invariants_wide(data):
    check_union_find_invariants(data)


@pytest.mark.generative
@WIDE
@given(st.data())
def test_property_congruence_closure_wide(data):
    check_congruence_closure(data)
