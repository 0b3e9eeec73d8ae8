import hashlib
import inspect
import pickle
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmgraph as cm
from cmgraph.errors import (
    BoundTooSmallError,
    GroundSetMismatchError,
    MalformedQueryError,
    NotACMGError,
    NotAChainGraphError,
    TooLargeError,
)
from cmgraph import kernel
from cmgraph.kernel import _bits
from cmgraph.graphio import render
from cmgraph.propcheck import (
    GeneratorConfig,
    check_witness_soundness,
    inseparable_pairs,
    random_graph,
)
from cmgraph.separation import _LAST_TRAIL, _mask_tables, _walk
from cmgraph.walks import COLLIDER, is_c_connecting, section_decomposition

from conftest import (
    G,
    _large_cmg,
    _with_parallel_arcs,
    enumerate_mixed_graphs,
    masks_by_definition,
    triples,
)

HYP = settings(max_examples=60, deadline=None)


@st.composite
def cmgs(draw, max_nodes=5):
    n = draw(st.integers(2, max_nodes))
    density = draw(st.floats(0.1, 0.7))
    seed = draw(st.integers(0, 2**48))
    return random_graph(GeneratorConfig(n, density, seed, "CMG"))


def all_pair_queries(g):
    for i, j in combinations(g.nodes, 2):
        rest = [v for v in g.nodes if v not in (i, j)]
        for mask in range(1 << len(rest)):
            yield i, j, {rest[k] for k in range(len(rest)) if mask >> k & 1}


class TestCSeparated:
    def test_worked_example_connected(self, g_ex):
        assert not cm.c_separated(g_ex, ["j"], ["h"], ["l"])

    def test_isolated_nodes_separated(self):
        g = G("nodes: i j k")
        assert cm.c_separated(g, ["i"], ["j"], ["k"])
        assert cm.c_separated(g, ["i"], ["j"])

    def test_collider(self):
        g = G("a -> c; b -> c")
        assert cm.c_separated(g, ["a"], ["b"])
        assert not cm.c_separated(g, ["a"], ["b"], ["c"])

    def test_chain_blocked_by_middle(self):
        g = G("a -> b; b -> c")
        assert cm.c_separated(g, ["a"], ["c"], ["b"])
        assert not cm.c_separated(g, ["a"], ["c"])

    def test_empty_side_is_separated(self):
        assert cm.c_separated(G("a -- b"), [], ["b"])

    def test_malformed_query(self):
        with pytest.raises(MalformedQueryError):
            cm.c_separated(G("a -- b"), ["a"], ["a"])
        with pytest.raises(MalformedQueryError):
            cm.c_separated(G("a -- b"), ["a"], ["z"])

    def test_not_a_cmg(self):
        with pytest.raises(NotACMGError):
            cm.c_separated(G("a -> b; b -- c; c -> a"), ["a"], ["b"])

    def test_node_named_like_a_string_of_labels(self):
        g = G("ab -> c; a -- b")
        assert not cm.c_separated(g, ["ab"], ["c"])
        assert cm.c_separated(g, ["a", "b"], ["c"])

    @given(cmgs())
    @HYP
    def test_symmetry(self, g):
        for i, j, given in all_pair_queries(g):
            assert cm.c_separated(g, [i], [j], given) == cm.c_separated(
                g, [j], [i], given
            )

    @given(cmgs(max_nodes=5), st.integers(0, 10**6))
    @HYP
    def test_pair_decomposition(self, g, seed):
        import random

        rng = random.Random(seed)
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        a = frozenset(nodes[:1])
        b = frozenset(nodes[1:3])
        c = frozenset(nodes[3:4])
        if not b:
            return
        whole = cm.c_separated(g, a, b, c)
        pairwise = all(
            cm.c_separated(g, [x], [y], c) for x in a for y in b
        )
        assert whole == pairwise

    @given(cmgs())
    @HYP
    def test_disconnected_components_always_separated(self, g):
        comp = set()
        stack = [g.nodes[0]]
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            for kind, x, y in g.edges:
                if x == u:
                    stack.append(y)
                elif y == u:
                    stack.append(x)
        rest = set(g.nodes) - comp
        if not rest:
            return
        for given in (set(), comp - {g.nodes[0]}):
            assert cm.c_separated(g, [g.nodes[0]], rest, given)


# a chain graph with a node ``ab`` next to the nodes ``a`` and ``b``
_STR_GRAPH = "ab -> c; a -- b; b -> d"


@pytest.mark.parametrize(
    "call",
    [
        lambda g: cm.SeparationQuery.of("ab", ["c"]),
        lambda g: cm.c_separated(g, ["c"], ["d"], "ab"),
        lambda g: cm.bounded_walk_oracle(g, "ab", ["c"]),
        lambda g: cm.c_connecting_witness(g, ["c"], "ab"),
        lambda g: cm.moral_separated(g, "ab", ["c"], ["d"]),
        lambda g: cm.pairwise_model(g).holds(["c"], ["d"], "ab"),
        lambda g: cm.is_c_connecting(
            cm.c_connecting_witness(g, ["ab"], ["c"]), "ab", ["c"], []
        ),
    ],
    ids=[
        "SeparationQuery.of",
        "c_separated",
        "bounded_walk_oracle",
        "c_connecting_witness",
        "moral_separated",
        "IndependenceModel.holds",
        "is_c_connecting",
    ],
)
def test_bare_string_node_set_rejected(call):
    # "ab" is an iterable of the labels a and b, and would query {a, b}
    with pytest.raises(MalformedQueryError, match="the string 'ab'"):
        call(G(_STR_GRAPH))


# a graph with a semi-directed cycle through an arrow, and queries whose
# faults pile up; each is raised before the ones after it
_CYCLE = "a -> b; b -- c; c -> a"


@pytest.mark.parametrize("check", [cm.c_separated, cm.c_connecting_witness])
@pytest.mark.parametrize(
    "a, b, given, error, message",
    [
        (["a"], ["a", "zz"], "ab", MalformedQueryError, "the string 'ab'"),
        ("ab", ["a"], ["zz"], MalformedQueryError, "the string 'ab'"),
        (["a", "zz"], ["zz"], [], MalformedQueryError, "pairwise disjoint"),
        (["a"], ["b"], ["a", "zz"], MalformedQueryError, "pairwise disjoint"),
        (["a"], ["zz"], [], NotACMGError, "semi-directed cycle"),
        ([], [], ["zz"], NotACMGError, "semi-directed cycle"),
    ],
)
def test_query_faults_raise_in_order(check, a, b, given, error, message):
    with pytest.raises(error, match=message):
        check(G(_CYCLE), a, b, given)


@pytest.mark.parametrize("check", [cm.c_separated, cm.c_connecting_witness])
@pytest.mark.parametrize(
    "a, b, given", [(["zz"], ["a"], []), (["a"], [], ["zz"]), ([], ["zz"], ["b"])]
)
def test_unknown_node_named(check, a, b, given):
    with pytest.raises(MalformedQueryError, match="query mentions unknown node 'zz'"):
        check(G("a -> b; b -- c"), a, b, given)


class TestWitness:
    def test_audit_node_named_like_a_string_of_labels(self):
        g = cm.build_graph(
            ["a", "b", "ab", "c"], [("ab", "c", cm.LINE), ("a", "c", cm.ARROW)]
        )
        line = cm.c_connecting_witness(g, ["ab"], ["c"])
        arrow = cm.c_connecting_witness(g, ["a"], ["c"])
        assert line.render() == "ab -- c" and arrow.render() == "a -> c"
        assert is_c_connecting(line, ["ab"], ["c"], [])
        assert not is_c_connecting(arrow, ["ab"], ["c"], [])
        for walk in (line, arrow):
            with pytest.raises(MalformedQueryError, match="the string 'ab'"):
                is_c_connecting(walk, "ab", ["c"], [])

    def test_worked_example_witness(self, g_ex):
        walk = cm.c_connecting_witness(g_ex, ["j"], ["h"], ["l"])
        assert walk is not None
        assert walk.exists_in(g_ex)
        assert cm.is_c_connecting(walk, ["j"], ["h"], ["l"])
        collider_nodes = {
            n
            for s in section_decomposition(walk)
            if s.role == COLLIDER
            for n in s.nodes
        }
        assert "l" in collider_nodes

    def test_worked_example_witness_text(self, g_ex):
        walk = cm.c_connecting_witness(g_ex, ["j"], ["h"], ["l"])
        assert walk.render() == "j -> k -> l -- r <- q -> h"

    @pytest.mark.parametrize(
        "text, a, b, given, expected",
        [
            ("a -- b; a <-> b", "a", "b", "", "a -- b"),
            ("x -> a; a -- b; a <-> b; b -- y", "x", "b", "", "x -> a -- b"),
            ("x -> a; a -- b; a <-> b; b -- y", "x", "b", "a", "x -> a <-> b"),
            ("x -> a; a -- b; a <-> b; b -- y", "x", "y", "", "x -> a -- b -- y"),
            ("x -> a; a -- b; a <-> b; b -- y", "x", "y", "a", "x -> a <-> b -- y"),
        ],
    )
    def test_parallel_edges_witness_text(self, text, a, b, given, expected):
        walk = cm.c_connecting_witness(G(text), [a], [b], list(given))
        assert walk.render() == expected

    @pytest.mark.parametrize(
        "nodes, edges, message",
        [
            ((), (), "at least one node"),
            (("a", "b"), (), "edge count"),
            (("a",), ((cm.LINE, "a", "b"),), "edge count"),
            (("a", "b", "c"), ((cm.LINE, "a", "b"),), "edge count"),
            (("a", "b"), ((cm.LINE, "a", "c"),), r"does not join 'a' and 'b'"),
            (("a", "b"), ((cm.ARROW, "c", "b"),), r"does not join 'a' and 'b'"),
            (("a", "a"), ((cm.LINE, "a", "b"),), r"does not join 'a' and 'a'"),
            (("a", "b"), ((cm.ARC, "a", "a"),), r"does not join 'a' and 'b'"),
            (
                ("a", "b", "c"),
                ((cm.LINE, "a", "b"), (cm.ARC, "a", "c")),
                r"does not join 'b' and 'c'",
            ),
        ],
    )
    def test_walk_rejects_edges_that_do_not_fit(self, nodes, edges, message):
        with pytest.raises(ValueError, match=message):
            cm.Walk(nodes, edges)

    def test_walk_takes_an_edge_in_either_order(self):
        walk = cm.Walk(("b", "a", "c"), ((cm.ARROW, "a", "b"), (cm.ARC, "a", "c")))
        assert walk.render() == "b <- a <-> c"
        assert cm.Walk(("a", "a"), ((cm.LINE, "a", "a"),)).render() == "a -- a"

    def test_none_iff_separated(self):
        g = G("a -> c; b -> c")
        assert cm.c_connecting_witness(g, ["a"], ["b"]) is None

    def test_single_line(self):
        walk = cm.c_connecting_witness(G("a -- b"), ["a"], ["b"])
        assert walk.nodes == ("a", "b")

    @given(cmgs())
    @HYP
    def test_witness_agrees_and_audits(self, g):
        for i, j, given in all_pair_queries(g):
            walk = cm.c_connecting_witness(g, [i], [j], given)
            assert (walk is None) == cm.c_separated(g, [i], [j], given)
            if walk is not None:
                assert walk.exists_in(g)
                assert cm.is_c_connecting(walk, [i], [j], given)


class TestMoralSeparated:
    def test_worked_example(self, g_ex):
        assert not cm.moral_separated(g_ex, ["j"], ["h"], ["l"])

    def test_collider_unconditioned(self):
        assert cm.moral_separated(G("a -> c; b -> c"), ["a"], ["b"])

    def test_chain_conditioned(self):
        assert cm.moral_separated(G("a -> b; b -> c"), ["a"], ["c"], ["b"])

    def test_requires_chain_graph(self):
        with pytest.raises(NotAChainGraphError):
            cm.moral_separated(G("a <-> b"), ["a"], ["b"])


class TestBoundedWalkOracle:
    def test_single_arc_connects(self):
        assert not cm.bounded_walk_oracle(G("a <-> b"), ["a"], ["b"])

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmallError):
            cm.bounded_walk_oracle(G("a -- b"), ["a"], ["b"], maxlen=3)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            cm.bounded_walk_oracle(G("a -- b"), ["a"], ["b"], mode="bogus")

    @given(cmgs())
    @HYP
    def test_modes_agree_with_decision_procedure(self, g):
        for i, j, given in all_pair_queries(g):
            expect = cm.c_separated(g, [i], [j], given)
            assert cm.bounded_walk_oracle(g, [i], [j], given) == expect
            assert (
                cm.bounded_walk_oracle(g, [i], [j], given, mode=cm.MODE_PATHS)
                == expect
            )


class TestPairwiseModel:
    def test_edgeless_pair(self):
        model = cm.pairwise_model(G("nodes: a b"))
        assert model.statements == {("a", "b", frozenset())}

    def test_adjacent_pair_no_statement(self):
        assert cm.pairwise_model(G("a -- b")).statements == frozenset()

    def test_chain_statements(self):
        model = cm.pairwise_model(G("a -> b; b -> c"))
        assert ("a", "c", frozenset("b")) in model.statements
        assert ("a", "c", frozenset()) not in model.statements

    def test_arrow_and_arc_same_model_on_two_nodes(self):
        m1 = cm.pairwise_model(G("a -> b"))
        m2 = cm.pairwise_model(G("a <-> b"))
        assert cm.models_equal(m1, m2)

    def test_too_large(self):
        g = cm.build_graph("abcdefghi"[:9])
        with pytest.raises(TooLargeError):
            cm.pairwise_model(g)

    def test_holds_decomposes(self):
        g = G("a -> b; b -> c; nodes: a b c d")
        model = cm.pairwise_model(g)
        assert model.holds(["a"], ["c", "d"], ["b"]) == (
            cm.c_separated(g, ["a"], ["c"], ["b"])
            and cm.c_separated(g, ["a"], ["d"], ["b"])
        )

    @pytest.mark.parametrize(
        "a,b,given",
        [
            (["zz"], ["a"], []),
            (["a"], ["b"], ["zz"]),
            (["a"], ["a"], []),
            (["a"], ["b"], ["a"]),
            (["a"], ["b"], ["b"]),
            ([], ["zz"], []),
        ],
    )
    def test_holds_rejects_what_c_separated_rejects(self, a, b, given):
        g = G("a -> b; b -> c")
        model = cm.pairwise_model(g)
        with pytest.raises(MalformedQueryError):
            cm.c_separated(g, a, b, given)
        with pytest.raises(MalformedQueryError):
            model.holds(a, b, given)

    def test_holds_empty_side(self):
        model = cm.pairwise_model(G("a -- b"))
        assert model.holds([], ["a"], ["b"]) is True

    def test_models_equal_ground_mismatch(self):
        m1 = cm.pairwise_model(G("nodes: a b"))
        m2 = cm.pairwise_model(G("nodes: a c"))
        with pytest.raises(GroundSetMismatchError):
            cm.models_equal(m1, m2)


class TestMaximality:
    def test_chain_is_maximal(self):
        assert cm.is_maximal(G("a -> b; b -> c"))

    def test_complete_graph_vacuously_maximal(self):
        g = cm.build_graph(
            "abc", [("a", "b", cm.LINE), ("b", "c", cm.LINE), ("a", "c", cm.LINE)]
        )
        assert cm.is_maximal(g)

    def test_witness_fixture_not_maximal(self):
        g = G("k <-> i; i -- l; q -> l; l -> k")
        assert not cm.is_maximal(g)

    def test_witness_found_on_fixture(self):
        g = G("k <-> i; i -- l; q -> l; l -> k")
        witness = cm.non_maximality_witness(g)
        assert witness is not None
        assert set(witness.endpoints) == {"k", "q"}
        assert not g.adjacent(*witness.endpoints)

    def test_no_witness_on_complete_graph(self):
        g = cm.build_graph(
            "abc", [("a", "b", cm.LINE), ("b", "c", cm.LINE), ("a", "c", cm.LINE)]
        )
        assert cm.non_maximality_witness(g) is None

    @given(cmgs(max_nodes=5))
    @HYP
    def test_witness_iff_not_maximal(self, g):
        witness = cm.non_maximality_witness(g)
        assert (witness is None) == cm.is_maximal(g) == (not inseparable_pairs(g))
        assert check_witness_soundness(g)


# -- maximality with one separator per pair against the enumeration ------------


def _simple_cmgs(labels):
    """Every CMG over ``labels`` with at most one edge per pair."""
    pairs = list(combinations(labels, 2))
    for choice in product(range(5), repeat=len(pairs)):
        edges = []
        for state, (x, y) in zip(choice, pairs):
            if state == 1:
                edges.append((x, y, cm.LINE))
            elif state == 2:
                edges.append((x, y, cm.ARROW))
            elif state == 3:
                edges.append((y, x, cm.ARROW))
            elif state == 4:
                edges.append((x, y, cm.ARC))
        g = cm.build_graph(labels, edges)
        if g.is_cmg:
            yield g


def _assert_maximality_matches_enumeration(graphs):
    for g in graphs:
        assert cm.is_maximal(g) == (not inseparable_pairs(g)), render(g)


def test_is_maximal_on_every_three_node_cmg():
    graphs = [g for g in enumerate_mixed_graphs(("a", "b", "c")) if g.is_cmg]
    assert len(graphs) == 400
    _assert_maximality_matches_enumeration(graphs)


def test_is_maximal_on_every_simple_four_node_cmg():
    graphs = list(_simple_cmgs(("a", "b", "c", "d")))
    assert len(graphs) == 9939
    _assert_maximality_matches_enumeration(graphs)


def test_is_maximal_on_seeded_marginals_and_conditionals():
    rng = random.Random("maximality-lemma")
    graphs = []
    for _ in range(300):
        n = rng.randint(3, 8)
        g = random_graph(
            GeneratorConfig(n, rng.uniform(0.15, 0.55), rng.getrandbits(48), "CMG")
        )
        s = rng.sample(g.nodes, rng.randint(1, 2))
        graphs += [g, cm.marginalize(g, s), cm.condition(g, s)]
    assert sum(not cm.is_maximal(g) for g in graphs) > 50  # not vacuous
    _assert_maximality_matches_enumeration(graphs)


def _drop_arcs(g):
    return cm.build_graph(g.nodes, [e for e in triples(g) if e[2] != cm.ARC])


def test_large_chain_graph_is_maximal():
    # every chain graph is maximal; enumeration is out of reach at 128 nodes
    g = _drop_arcs(_large_cmg(5, 128)[0])
    assert cm.CG in cm.classify(g)
    assert cm.is_maximal(g)


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_large_anterial_graph_witness_audits(seed):
    # the audit of check_witness_soundness less its enumeration, which
    # would try 2^126 sets here
    h = cm.anterialize(_large_cmg(seed, 128)[0])
    witness = cm.non_maximality_witness(h)
    assert witness is not None and not cm.is_maximal(h)
    x, y = witness.endpoints
    assert not h.adjacent(x, y)
    assert witness.walk.exists_in(h)
    assert is_c_connecting(witness.walk, {x}, {y}, cm.anteriors(h, {x, y}))


# -- the all-pairs kernel against its definition --------------------------------


def _all_pairs_by_definition(n, ln, pa, ch, sp, keep, base):
    """(i, j, base | sub) from one ``separated`` call per pair and set.

    ``i < j`` range over ``keep`` and ``sub`` over the subsets of
    ``keep`` without them.
    """
    table = kernel.components(ln, pa, ch, sp)
    out = []
    for i, j in combinations(range(n), 2):
        pair = 1 << i | 1 << j
        if keep & pair != pair:
            continue
        rest = keep & ~pair
        sub = 0
        while True:  # the subsets of rest in increasing order
            if kernel.separated(table, ln, pa, ch, sp, 1 << i, 1 << j, base | sub):
                out.append((i, j, base | sub))
            if sub == rest:
                break
            sub = (sub - rest) & rest
    return out


def _as_triples(found, keep, base):
    """The kernel's ``(i, j, sepmask)`` pairs as ``(i, j, cmask)`` triples.

    Checks that the pairs are those of ``keep`` in order, one each.  Set
    number ``c`` is ``base`` plus the kept nodes at the set bits of
    ``c``, so the triples of a pair come in increasing cmask.
    """
    kept = list(_bits(keep))
    assert [(i, j) for i, j, _ in found] == list(combinations(kept, 2))
    cmasks = [base]  # by set number
    for v in kept:
        cmasks += [cm | 1 << v for cm in cmasks]
    return [(i, j, cmasks[c]) for i, j, sep in found for c in _bits(sep)]


def _assert_all_pairs_match_definition(n, ln, pa, ch, sp):
    table = kernel.components(ln, pa, ch, sp)
    full = (1 << n) - 1
    found = kernel.all_pair_separations(n, table, ln, pa, ch, sp)
    assert _as_triples(found, full, 0) == (
        _all_pairs_by_definition(n, ln, pa, ch, sp, full, 0)
    )


def _assert_pair_separations_match_definition(n, ln, pa, ch, sp, keep, base):
    table = kernel.components(ln, pa, ch, sp)
    found = kernel.pair_separations(n, table, ln, pa, ch, sp, keep, base)
    assert _as_triples(found, keep, base) == (
        _all_pairs_by_definition(n, ln, pa, ch, sp, keep, base)
    ), (keep, base)
    return found


def _split(roles):
    """(keep, base) masks: role 0 keeps a node, 1 conditions on it, 2 walks it."""
    keep = base = 0
    for v, role in enumerate(roles):
        if role == 0:
            keep |= 1 << v
        elif role == 1:
            base |= 1 << v
    return keep, base


def _random_splits(n, seed, count=4):
    rng = random.Random(seed)
    return [_split([rng.randrange(3) for _ in range(n)]) for _ in range(count)]


def test_all_pairs_kernel_on_every_three_node_graph():
    # every mixed graph, so every CMG among them; the kernel's argument
    # does not use the CMG property
    for g in enumerate_mixed_graphs(("a", "b", "c")):
        ln, pa, ch, sp = g.ln, g.pa, g.ch, g.sp
        _assert_all_pairs_match_definition(3, ln, pa, ch, sp)


def test_pair_separations_on_every_three_node_split():
    splits = [_split(roles) for roles in product(range(3), repeat=3)]
    for g in enumerate_mixed_graphs(("a", "b", "c")):
        ln, pa, ch, sp = g.ln, g.pa, g.ch, g.sp
        for keep, base in splits:
            _assert_pair_separations_match_definition(3, ln, pa, ch, sp, keep, base)


def _seeded_graphs(graph_class, n):
    for seed in range(8 if n < 7 else 3):
        density = 0.1 + 0.15 * (seed % 4)
        yield random_graph(GeneratorConfig(n, density, 1000 * n + seed, graph_class))


@pytest.mark.parametrize("graph_class", ["CG", "CMG", "AnG"])
@pytest.mark.parametrize("n", range(2, 9))
def test_all_pairs_kernel_on_random_graphs(graph_class, n):
    for g in _seeded_graphs(graph_class, n):
        ln, pa, ch, sp = g.ln, g.pa, g.ch, g.sp
        _assert_all_pairs_match_definition(n, ln, pa, ch, sp)


@pytest.mark.parametrize("graph_class", ["CG", "CMG", "AnG"])
@pytest.mark.parametrize("n", range(2, 9))
def test_pair_separations_on_random_graphs(graph_class, n):
    for k, g in enumerate(_seeded_graphs(graph_class, n)):
        ln, pa, ch, sp = g.ln, g.pa, g.ch, g.sp
        for keep, base in _random_splits(n, 1000 * n + k):
            _assert_pair_separations_match_definition(n, ln, pa, ch, sp, keep, base)


@pytest.mark.parametrize("n", range(2, 9))
def test_all_pairs_kernel_on_sparse_graphs(n):
    empty = [0] * n
    _assert_all_pairs_match_definition(n, empty, empty, empty, empty)
    for i, j in [(0, n - 1), (0, 1), (n - 2, n - 1)]:
        one = [0] * n
        one[i] |= 1 << j
        one[j] |= 1 << i
        # one line, then one arc
        _assert_all_pairs_match_definition(n, one, empty, empty, empty)
        _assert_all_pairs_match_definition(n, empty, empty, empty, one)


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_separations_on_sparse_graphs(n):
    empty = [0] * n
    splits = _random_splits(n, n)
    for keep, base in splits:
        _assert_pair_separations_match_definition(
            n, empty, empty, empty, empty, keep, base
        )
    for i, j in [(0, n - 1), (0, 1), (n - 2, n - 1)]:
        one = [0] * n
        one[i] |= 1 << j
        one[j] |= 1 << i
        # the line or arc between a kept pair, a kept and a conditioned
        # node, and a kept and a walked-through node
        for keep, base in splits + [
            (1 << i | 1 << j, 0),
            (1 << i, 1 << j),
            (1 << i | 1 << (j + 1) % n, 0),
        ]:
            if keep & base:
                continue
            _assert_pair_separations_match_definition(
                n, one, empty, empty, empty, keep, base
            )
            _assert_pair_separations_match_definition(
                n, empty, empty, empty, one, keep, base
            )


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("parallel", [False, True], ids=["plain", "parallel-arcs"])
def test_pair_separations_on_large_graphs(n, parallel):
    # 2-5 kept nodes, then 6-8, and a base of 0-2: the vectors are
    # (|keep| - 1) * 2^|keep| bits wide whatever n is, up to 7 * 2^8
    rng = random.Random(f"large-pair-separations:{n}")
    mixed = 0
    for seed in range(3):
        g = _large_cmg(seed, n)[0]
        if parallel:
            g = _with_parallel_arcs(g)
        ln, pa, ch, sp = g.ln, g.pa, g.ch, g.sp
        for draw in range(7):
            k = rng.randint(2, 5) if draw < 6 else rng.randint(6, 8)
            picked = rng.sample(range(n), k + rng.randint(0, 2))
            keep = sum(1 << v for v in picked[:k])
            base = sum(1 << v for v in picked[k:])
            found = _assert_pair_separations_match_definition(
                n, ln, pa, ch, sp, keep, base
            )
            mixed += sum(0 < sep.bit_count() < 1 << (k - 2) for _, _, sep in found)
    assert mixed > 0  # some pair is separated given some of the sets only


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_separations_with_fewer_than_two_kept(n):
    g = random_graph(GeneratorConfig(n, 0.5, n, "CMG"))
    ln, pa, ch, sp, table = g.ln, g.pa, g.ch, g.sp, _mask_tables(g)
    full = (1 << n) - 1
    for keep, base in [(0, 0), (0, full), (1, 0), (1, full & ~1), (1 << n - 1, 1)]:
        if keep & base:
            continue
        assert kernel.pair_separations(n, table, ln, pa, ch, sp, keep, base) == []


# -- the grouped kernel against the per-state search -----------------------------


def _separated_by_states(ln, pa, ch, sp, amask, bmask, cmask):
    """``kernel.separated`` visiting one (node, mark) state at a time."""
    if amask == 0 or bmask == 0:
        return True
    seen_tail = pend_tail = amask
    seen_head = pend_head = 0
    while pend_tail or pend_head:
        if pend_tail:
            low = pend_tail & -pend_tail
            pend_tail ^= low
            head = False
        else:
            low = pend_head & -pend_head
            pend_head ^= low
            head = True
        add_tail = add_head = 0
        if not low & cmask:
            # non-collider exit: the section avoids C entirely
            reach = kernel.line_reach(ln, low, cmask)
            if reach & bmask:
                return False
            for w in _bits(reach):
                add_head |= ch[w]
                if not head:
                    add_tail |= pa[w]
                    add_head |= sp[w]
        if head:
            # collider exit: the walk may wander the whole line component
            comp = kernel.line_reach(ln, low, 0)
            if comp & cmask:
                for w in _bits(comp):
                    add_tail |= pa[w]
                    add_head |= sp[w]
        new_tail = add_tail & ~seen_tail
        new_head = add_head & ~seen_head
        seen_tail |= new_tail
        seen_head |= new_head
        pend_tail |= new_tail
        pend_head |= new_head
    return True


def _assert_kernel_matches_states(g, queries):
    _, ln, pa, ch, sp = masks_by_definition(g)
    table = kernel.components(ln, pa, ch, sp)
    for amask, bmask, cmask in queries:
        assert kernel.separated(table, ln, pa, ch, sp, amask, bmask, cmask) == (
            _separated_by_states(ln, pa, ch, sp, amask, bmask, cmask)
        ), (render(g), amask, bmask, cmask)


def _role_queries(roles_list):
    """(amask, bmask, cmask) per role list: 0 in a, 1 in b, 2 in C, 3 none."""
    for roles in roles_list:
        masks = [0, 0, 0, 0]
        for v, role in enumerate(roles):
            masks[role] |= 1 << v
        yield masks[0], masks[1], masks[2]


def _cutting_queries(g, seed, count):
    """Random disjoint queries whose C takes nodes with line neighbours,
    so that it cuts line components."""
    _, ln, _, _, _ = masks_by_definition(g)
    rng = random.Random(seed)
    n = len(g.nodes)
    lined = [v for v in range(n) if ln[v]]
    for _ in range(count):
        c = set(rng.sample(lined, min(len(lined), rng.randint(1, 12))))
        c |= set(rng.sample(range(n), rng.randint(0, 4)))
        ends = rng.sample(sorted(set(range(n)) - c), rng.randint(2, 5))
        cut = rng.randint(1, len(ends) - 1)
        yield tuple(sum(1 << v for v in part) for part in (ends[:cut], ends[cut:], c))


def test_kernel_on_every_three_node_query():
    # every mixed graph and every disjoint (a, b, C), empty sides included
    queries = list(_role_queries(product(range(4), repeat=3)))
    for g in enumerate_mixed_graphs(("a", "b", "c")):
        _assert_kernel_matches_states(g, queries)


@pytest.mark.parametrize("graph_class", ["CG", "CMG", "AnG"])
@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_on_random_graphs(graph_class, n):
    rng = random.Random(f"kernel-queries:{graph_class}:{n}")
    for g in _seeded_graphs(graph_class, n):
        roles = [[rng.randrange(4) for _ in range(n)] for _ in range(60)]
        _assert_kernel_matches_states(g, _role_queries(roles))


@pytest.mark.parametrize(
    "seed,n", [(0, 32), (1, 48), (2, 64), (3, 128), (4, 192), (5, 256)]
)
@pytest.mark.parametrize("parallel", [False, True], ids=["plain", "parallel-arcs"])
def test_kernel_on_large_graphs(seed, n, parallel):
    g = _large_cmg(seed, n)[0]
    if parallel:
        g = _with_parallel_arcs(g)
    _assert_kernel_matches_states(g, _cutting_queries(g, seed, 100))


# -- the kernel walk against the string search -----------------------------------


def _witness_by_states(g, a, b, c):
    """A shortest c-connecting walk in edges, or None: a breadth-first search
    over string-labelled (node, entered with a head, section met C) states
    through ``g.incidences``."""
    start = [(v, False, v in c) for v in sorted(a)]
    parent = {s: None for s in start}
    frontier = list(start)
    goal = None
    while frontier and goal is None:
        nxt = []
        for state in frontier:
            v, head, touched = state
            if v in b and not touched:
                goal = state
                break
            for w, head_here, head_there, edge in g.incidences[v]:
                if edge[0] == cm.LINE:
                    new = (w, head, touched or w in c)
                else:
                    collider = head and head_here
                    if collider != touched:
                        continue  # collider needs C, non-collider forbids it
                    new = (w, head_there, w in c)
                if new not in parent:
                    parent[new] = (state, edge)
                    nxt.append(new)
        frontier = nxt
    if goal is None:
        return None
    nodes, edges = [goal[0]], []
    while parent[goal] is not None:
        goal, edge = parent[goal]
        edges.append(edge)
        nodes.append(goal[0])
    return cm.Walk(tuple(reversed(nodes)), tuple(reversed(edges)))


def _searched_walk(fresh, query):
    """The walk of the mask ``query`` that ``c_connecting_witness`` searches
    for on ``fresh``, a graph on which no query has left a trail.  The
    witness takes CMGs only; on any other graph ``_walk`` spells the trail
    of an unbounded ``kernel.separated`` search."""
    if fresh.is_cmg:
        return cm.c_connecting_witness(fresh, *_labelled(fresh, query))
    trail = []
    if kernel.separated(
        fresh.components, fresh.ln, fresh.pa, fresh.ch, fresh.sp, *query, trail
    ):
        return None
    return _walk(fresh, *query, trail)


def _assert_walks_match_states(g, queries):
    """The searched walk is found iff the string search finds one, and
    every walk found passes the audit."""
    fresh = _rebuilt(g)
    for amask, bmask, cmask in queries:
        a, b, c = (frozenset(g.nodes[k] for k in _bits(m)) for m in (amask, bmask, cmask))
        walk = _searched_walk(fresh, (amask, bmask, cmask))
        want = _witness_by_states(g, a, b, c)
        assert (walk is None) == (want is None), (render(g), a, b, c)
        if walk is not None:
            assert walk.exists_in(g) and is_c_connecting(walk, a, b, c), (
                render(g), a, b, c, walk.render()
            )


def test_walk_on_every_three_node_query():
    queries = list(_role_queries(product(range(4), repeat=3)))
    for g in enumerate_mixed_graphs(("a", "b", "c")):
        _assert_walks_match_states(g, queries)


@pytest.mark.parametrize("graph_class", ["CG", "CMG", "AnG"])
@pytest.mark.parametrize("n", range(2, 9))
def test_walk_on_random_graphs(graph_class, n):
    rng = random.Random(f"walk-queries:{graph_class}:{n}")
    for g in _seeded_graphs(graph_class, n):
        roles = [[rng.randrange(4) for _ in range(n)] for _ in range(60)]
        _assert_walks_match_states(g, _role_queries(roles))


@pytest.mark.parametrize(
    "seed,n", [(0, 32), (1, 48), (2, 64), (3, 128), (4, 192), (5, 256)]
)
@pytest.mark.parametrize("parallel", [False, True], ids=["plain", "parallel-arcs"])
def test_walk_on_large_graphs(seed, n, parallel):
    g = _large_cmg(seed, n)[0]
    if parallel:
        g = _with_parallel_arcs(g)
    _assert_walks_match_states(g, _cutting_queries(g, seed, 60))


def test_walk_detours_through_c_on_a_collider():
    # the collider section at b meets C only through the detour b -- c -- b
    g = G("a -> b; b -- c; d -> b")
    walk = cm.c_connecting_witness(g, ["a"], ["d"], ["c"])
    assert walk.render() == "a -> b -- c -- b <- d"


def test_walk_sections_are_shortest_line_paths():
    # b reaches f in the component {b, c, e, f} by b -- e -- f, not b -- c -- f -- ...
    g = G("a -> b; b -- c; c -- d; d -- f; b -- e; e -- f")
    assert cm.c_connecting_witness(g, ["a"], ["f"]).render() == "a -> b -- e -- f"


def _line_path_by_layers(ln, start, goal, inside, via):
    """``kernel._line_path`` as one pass over (node, met) states for every
    ``via``, with no shortcut for a path of one node: the reference."""
    first = 1 << start
    if via and not first & via:
        layers = [(first, 0)]  # (not yet met via, met via)
    else:
        layers = [(0, first)]
    seen_u, seen_m = layers[0]
    goal_bit = 1 << goal
    while not layers[-1][1] & goal_bit:
        out_u = out_m = 0
        for v in _bits(layers[-1][0]):
            out_u |= ln[v]
        for v in _bits(layers[-1][1]):
            out_m |= ln[v]
        next_m = (out_m | out_u & via) & inside & ~seen_m
        next_u = out_u & inside & ~via & ~seen_u
        seen_u |= next_u
        seen_m |= next_m
        layers.append((next_u, next_m))
    path = [goal]
    met = True
    for unmet, done in reversed(layers[:-1]):
        v = path[-1]
        if not met:
            preds = unmet
        elif 1 << v & via:
            preds = done | unmet
        else:
            preds = done
        p = ln[v] & preds
        p &= -p
        met = met and bool(p & done)
        path.append(p.bit_length() - 1)
    path.reverse()
    return path


def _subsets(mask):
    """Every subset of the node mask ``mask``, the empty one first."""
    subsets = [0]
    for v in _bits(mask):
        subsets += [s | 1 << v for s in subsets]
    return subsets


def _assert_line_paths_match_layers(g):
    """Every section ``spell`` can ask for: inside each line component with
    ``via`` any subset of it, and inside each line reach that avoids a
    subset of the component with ``via`` 0."""
    ln = g.ln
    for comp in {entry[0] for entry in g.components}:
        nodes = list(_bits(comp))
        for via in _subsets(comp):
            for start, goal in product(nodes, repeat=2):
                want = _line_path_by_layers(ln, start, goal, comp, via)
                assert kernel._line_path(ln, start, goal, comp, via) == want, (
                    render(g), start, goal, comp, via
                )
        for blocked in _subsets(comp):
            for start in _bits(comp & ~blocked):
                reach = kernel.line_reach(ln, 1 << start, blocked)
                for goal in _bits(reach):
                    want = _line_path_by_layers(ln, start, goal, reach, 0)
                    assert kernel._line_path(ln, start, goal, reach, 0) == want


@pytest.mark.parametrize("graph_class", ["CG", "CMG", "AnG"])
@pytest.mark.parametrize("n", range(2, 9))
def test_line_path_matches_layers_on_random_graphs(graph_class, n):
    for g in _seeded_graphs(graph_class, n):
        _assert_line_paths_match_layers(g)


@pytest.mark.parametrize("seed,n", [(0, 32), (3, 128), (5, 256)])
def test_line_path_matches_layers_on_large_graphs(seed, n):
    _assert_line_paths_match_layers(_large_cmg(seed, n)[0])


# -- the anterior bound of the search --------------------------------------------


def _small_queries(g, seed, count):
    """Random disjoint queries as the ``query`` benchmark draws them: one or
    two nodes in A and in B, and zero to two in C."""
    rng = random.Random(seed)
    n = len(g.nodes)
    for _ in range(count):
        picked = rng.sample(range(n), rng.randint(1, 2) + rng.randint(1, 2) + rng.randint(0, 2))
        n_a = rng.randint(1, len(picked) - 1)
        n_b = rng.randint(1, len(picked) - n_a)
        parts = picked[:n_a], picked[n_a : n_a + n_b], picked[n_a + n_b :]
        yield tuple(sum(1 << v for v in part) for part in parts)


def _bounded_and_full(g, query):
    """``(verdict, bounded trail, unbounded trail, bound)`` of one query, the
    bound being the OR of ``upward_masks`` over the query's nodes."""
    ln, pa, ch, sp, table = g.ln, g.pa, g.ch, g.sp, g.components
    within = kernel._union(g.upward_masks, query[0] | query[1] | query[2])
    full, bounded = [], []
    verdict = kernel.separated(table, ln, pa, ch, sp, *query, full)
    assert kernel.separated(table, ln, pa, ch, sp, *query, bounded, within) == verdict
    return verdict, bounded, full, within


def _assert_bound_keeps_trails_and_walks(g, queries):
    """The bounded search decides as the unbounded one; its trail is the
    unbounded trail less the records of states outside the bound, whose
    head adds lose only bits outside it; and both spell one walk.  The
    public queries, which bound their searches themselves, give that
    verdict and that walk."""
    ln, pa, ch, sp = g.ln, g.pa, g.ch, g.sp
    for query in dict.fromkeys(queries):
        verdict, bounded, full, within = _bounded_and_full(g, query)
        assert bounded == [
            (low, head, r, comp, add_t, add_h & within)
            for low, head, r, comp, add_t, add_h in full
            if low & within
        ], (render(g), query)
        want = None
        if not verdict:
            walk = kernel.spell(ln, pa, ch, sp, *query, bounded)
            assert walk == kernel.spell(ln, pa, ch, sp, *query, full)
            want = _walk(g, *query, full)
        a, b, c = _labelled(g, query)
        # a search of the witness's own, then the decision, then the stored trail
        assert cm.c_connecting_witness(g, a, b, c) == want, (render(g), query)
        assert cm.c_separated(g, a, b, c) == verdict
        assert cm.c_connecting_witness(g, a, b, c) == want


def test_bound_on_every_three_node_query():
    queries = list(_role_queries(product(range(4), repeat=3)))
    for g in enumerate_mixed_graphs(("a", "b", "c")):
        if g.is_cmg:
            _assert_bound_keeps_trails_and_walks(g, queries)


@pytest.mark.parametrize("graph_class", ["CG", "CMG", "AnG"])
@pytest.mark.parametrize("n", range(2, 9))
def test_bound_on_random_graphs(graph_class, n):
    rng = random.Random(f"bound-queries:{graph_class}:{n}")
    for g in _seeded_graphs(graph_class, n):
        roles = [[rng.randrange(4) for _ in range(n)] for _ in range(60)]
        _assert_bound_keeps_trails_and_walks(g, _role_queries(roles))


@pytest.mark.parametrize(
    "seed,n", [(0, 32), (1, 48), (2, 64), (3, 128), (4, 192), (5, 256)]
)
@pytest.mark.parametrize("parallel", [False, True], ids=["plain", "parallel-arcs"])
def test_bound_on_large_graphs(seed, n, parallel):
    g = _large_cmg(seed, n)[0]
    if parallel:
        g = _with_parallel_arcs(g)
    queries = list(_cutting_queries(g, seed, 40)) + list(_small_queries(g, seed, 100))
    _assert_bound_keeps_trails_and_walks(g, queries)


# a separated query on _large_cmg(5, 256) whose search settles one group
# inside the bound, and 29 more outside it when unbounded
PRUNED_QUERY = (["v074"], ["v018"], ["v082"])
PRUNED_TRAILS = (1, 30)


def test_bound_prunes_a_separated_search():
    g = _large_cmg(5, 256)[0]
    index = g.index
    query = tuple(sum(1 << index[v] for v in part) for part in PRUNED_QUERY)
    verdict, bounded, full, within = _bounded_and_full(g, query)
    assert verdict
    assert (len(bounded), len(full)) == PRUNED_TRAILS
    assert any(not record[0] & within for record in full)


# -- one search per decided-then-explained query ---------------------------------


def _rebuilt(g):
    """A graph equal to ``g`` but built anew, so no query has left a trail on it."""
    return cm.MixedGraph(g.nodes, g.ln, g.pa, g.ch, g.sp)


def _labelled(g, query):
    return tuple(frozenset(g.nodes[k] for k in _bits(m)) for m in query)


def _assert_slot_walks_match_fresh(g, queries, interleave):
    """The witness asked right after ``c_separated`` on ``g`` is the walk that a
    fresh search spells on a rebuilt ``g``.  With ``interleave``, another
    connected query is decided between the two calls and takes the slot."""
    queries = list(dict.fromkeys(queries))
    fresh = _rebuilt(g)
    want = {q: _searched_walk(fresh, q) for q in queries}
    connected = [q for q in queries if want[q] is not None]
    for k, q in enumerate(queries):
        a, b, c = _labelled(g, q)
        separated = cm.c_separated(g, a, b, c)
        if interleave and len(connected) > 1:
            other = connected[k % len(connected)]
            if other == q:
                other = connected[(k + 1) % len(connected)]
            assert not cm.c_separated(g, *_labelled(g, other))
        walk = cm.c_connecting_witness(g, a, b, c)
        assert separated == (walk is None) == (want[q] is None)
        assert walk == want[q], (render(g), a, b, c, walk and walk.render())
    assert _LAST_TRAIL not in fresh.__dict__
    _assert_walks_match_states(g, queries)


@pytest.mark.parametrize("interleave", [False, True], ids=["direct", "interleaved"])
@pytest.mark.parametrize("n", range(2, 7))
def test_slot_walk_on_every_small_query(n, interleave):
    queries = list(_role_queries(product(range(4), repeat=n)))
    for g in _seeded_graphs("CMG", n):
        _assert_slot_walks_match_fresh(g, queries, interleave)


@pytest.mark.parametrize("interleave", [False, True], ids=["direct", "interleaved"])
@pytest.mark.parametrize(
    "seed,n", [(0, 32), (1, 48), (2, 64), (3, 128), (4, 192), (5, 256)]
)
def test_slot_walk_on_large_graphs(seed, n, interleave):
    g = _large_cmg(seed, n)[0]
    _assert_slot_walks_match_fresh(g, _cutting_queries(g, seed, 60), interleave)


def test_slot_stays_out_of_pickles_equality_and_hash():
    g = G("a -> b; b -- c; d -> b")
    h = _rebuilt(g)
    blank = pickle.dumps(g)
    assert not cm.c_separated(g, ["a"], ["d"], ["c"])
    assert _LAST_TRAIL in g.__dict__ and _LAST_TRAIL not in h.__dict__
    assert pickle.dumps(g) == pickle.dumps(h) == blank
    assert _LAST_TRAIL.encode() not in pickle.dumps(g)
    assert _LAST_TRAIL not in pickle.loads(pickle.dumps(g)).__dict__
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1


def test_separated_query_leaves_the_slot_alone():
    g = G("a -> b; b -- c; d -> b")
    assert cm.c_separated(g, ["a"], ["d"])
    assert _LAST_TRAIL not in g.__dict__
    assert not cm.c_separated(g, ["a"], ["d"], ["c"])
    last = g.__dict__[_LAST_TRAIL]
    assert cm.c_separated(g, ["a"], ["d"])
    assert g.__dict__[_LAST_TRAIL] is last


@pytest.mark.parametrize(
    "a, b, given, error, message",
    [
        ("ab", ["d"], ["c"], MalformedQueryError, "the string 'ab'"),
        (["a"], ["d"], ["a", "c"], MalformedQueryError, "pairwise disjoint"),
        (["a"], ["d"], ["c", "zz"], MalformedQueryError, "unknown node 'zz'"),
    ],
)
def test_witness_checks_the_query_despite_the_slot(a, b, given, error, message):
    g = G("a -> b; b -- c; d -> b")
    assert not cm.c_separated(g, ["a"], ["d"], ["c"])
    with pytest.raises(error, match=message):
        cm.c_connecting_witness(g, a, b, given)


def test_search_accepts_when_it_adds_a_state_at_b():
    # the pop at a adds head states at c and z; z is in B, so the search
    # stops there instead of popping c and d, whose bits come first
    g = G("a -> c; a -> z; c -> d")
    ln, pa, ch, sp, table = g.ln, g.pa, g.ch, g.sp, _mask_tables(g)
    index = g.index
    a, z = 1 << index["a"], 1 << index["z"]
    trail = []
    assert not kernel.separated(table, ln, pa, ch, sp, a, z, 0, trail)
    assert [record[:3] for record in trail] == [(a, False, a), (z, True, z)]
    assert cm.c_connecting_witness(g, ["a"], ["z"]).render() == "a -> z"


def _counted_searches(monkeypatch):
    """The queries ``(amask, bmask, cmask)`` of every ``kernel.separated`` run."""
    runs = []
    search = kernel.separated

    def counting(*args):
        runs.append(args[5:8])
        return search(*args)

    monkeypatch.setattr(kernel, "separated", counting)
    return runs


def test_decided_then_explained_query_searches_once(monkeypatch):
    runs = _counted_searches(monkeypatch)
    g = G("a -> b; b -- c; d -> b")
    assert not cm.c_separated(g, ["a"], ["d"], ["c"])
    walk = cm.c_connecting_witness(g, ["a"], ["d"], ["c"])
    assert walk.render() == "a -> b -- c -- b <- d"
    assert len(runs) == 1
    # a witness with no decision before it searches once too
    runs.clear()
    assert cm.c_connecting_witness(_rebuilt(g), ["a"], ["d"], ["c"]) == walk
    assert len(runs) == 1
    # another query misses the slot and searches
    runs.clear()
    assert cm.c_connecting_witness(g, ["a"], ["c"]).render() == "a -> b -- c"
    assert len(runs) == 1


def test_non_maximality_witness_searches_no_more_than_is_maximal(monkeypatch):
    runs = _counted_searches(monkeypatch)
    h = cm.anterialize(_large_cmg(3, 64)[0])
    assert not cm.is_maximal(h)
    decided = list(runs)
    runs.clear()
    assert cm.non_maximality_witness(h) is not None
    assert runs == decided


def _witness_pairs():
    yield G("k <-> i; i -- l; q -> l; l -> k")
    for n in range(3, 9):
        yield from _seeded_graphs("CMG", n)
    for seed in (0, 3, 5):
        yield cm.anterialize(_large_cmg(seed, 64)[0])


def test_non_maximality_witness_walk_is_the_searched_one():
    found = 0
    for g in _witness_pairs():
        witness = cm.non_maximality_witness(g)
        if witness is None:
            continue
        found += 1
        x, y = witness.endpoints
        fresh = _rebuilt(g)
        index = fresh.index
        d = sum(1 << index[v] for v in cm.anteriors(fresh, {x, y}) - {x, y})
        query = (1 << index[x], 1 << index[y], d)
        assert witness.walk == _searched_walk(fresh, query), render(g)
        _assert_walks_match_states(g, [query])
    assert found >= 10


@pytest.mark.parametrize("seed,n", [(0, 32), (1, 64), (3, 256)])
def test_components_table(seed, n):
    small = random_graph(GeneratorConfig(8, 0.4, seed, "CMG"))
    for g in [_large_cmg(seed, n)[0], small]:
        _, ln, pa, ch, sp = masks_by_definition(g)
        table = kernel.components(ln, pa, ch, sp)
        assert len(table) == len(g.nodes)
        for v, entry in enumerate(table):
            comp = kernel.line_reach(ln, 1 << v, 0)
            unions = [0, 0, 0]
            for w in _bits(comp):
                unions[0] |= pa[w]
                unions[1] |= ch[w]
                unions[2] |= sp[w]
            assert entry == (comp, *unions)
            # the nodes of one component share one tuple
            assert all(table[w] is entry for w in _bits(comp))


# sha256 of the rendered pairwise model, one "x y | C" line per statement
MODEL_DIGESTS = {
    (1, 7, 0.25): "b34af6c5529571c8a72fedfb0eea26b72313dc3693254f8a85a23660b92f8d9e",
    (2, 7, 0.35): "69cace39ab65a532f62983f5681a5de7f52e6f87b54d0c6cd6c927ca584d2c4e",
    (8, 7, 0.3): "6303fcb98fbc48b401defef4bec907467bf42a56205d864134e42b463dcc3434",
    (4, 8, 0.2): "31965139bfe73aae33c787ee12c71f15626089cc33d9af498d12e77ad71e5827",
    (6, 8, 0.25): "4b88ee649397c1e8046ed6e1b0ffb1915ba4c76d60227afc583eb82bca927fa4",
    (7, 8, 0.22): "96b8b85d2d2b7004d26113b7730ec82478eb4687d8de0f28443195c49c42ff3e",
}


@pytest.mark.parametrize("seed,n,density", list(MODEL_DIGESTS))
def test_pairwise_model_digest(seed, n, density):
    g = random_graph(GeneratorConfig(n, density, seed, "CMG"))
    text = "\n".join(
        f"{x} {y} | {' '.join(sorted(c))}"
        for x, y, c in cm.pairwise_model(g).sorted_statements()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_DIGESTS[seed, n, density]


def _bit_walk(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_and_members_against_the_bit_walk():
    # below 2^8 both read one stored tuple; above it they walk the bits
    rng = random.Random("bit-walk")
    masks = [*range(1 << 10), *(rng.getrandbits(256) for _ in range(2_000))]
    for mask in masks:
        want = _bit_walk(mask)
        assert list(_bits(mask)) == want
        assert kernel._members(mask) == tuple(want)
    assert _bits(0xFF) is _bits(0xFF) is kernel._members(0xFF)


# -- the kernel surface the benchmark reads -------------------------------------


def test_backend_name_is_the_one_kernel():
    # perfbench/run.py writes it into every detail record
    assert "backend_name" in cm.__all__
    assert cm.backend_name() == "python"


@pytest.mark.parametrize(
    "name",
    [
        "components",
        "separated",
        "all_pair_separations",
        "pair_separations",
        "exists_separator",
    ],
)
def test_kernel_entry_points_are_module_functions(name):
    # perfbench/layertrace.py wraps them by module path and name
    fn = getattr(kernel, name)
    assert inspect.isfunction(fn) and fn.__module__ == "cmgraph.kernel"
