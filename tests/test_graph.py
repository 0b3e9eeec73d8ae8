import dataclasses
import pickle
import random
import weakref
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmgraph as cm
from cmgraph import graph
from cmgraph.errors import (
    LoopEdgeError,
    MalformedQueryError,
    NotACMGError,
    NotAChainGraphError,
    UnknownNodeError,
)
from cmgraph.graphio import parse, render
from cmgraph.kernel import line_reach
from cmgraph.propcheck import GeneratorConfig, random_graph

from conftest import (
    G,
    _large_cmg,
    adjacency_sets,
    edge_in,
    enumerate_mixed_graphs,
    masks_by_definition,
    triples,
    upward_by_stack,
)
from test_transform import LARGE_DIGESTS, _large_cmgs


@st.composite
def graphs(draw, classes=("CG", "CMG", "AnG"), max_nodes=6):
    cls = draw(st.sampled_from(classes))
    n = draw(st.integers(2, max_nodes))
    density = draw(st.floats(0.0, 0.8))
    seed = draw(st.integers(0, 2**48))
    return random_graph(GeneratorConfig(n, density, seed, cls))


HYP = settings(max_examples=80, deadline=None)


class TestBuild:
    def test_minimal_arrow(self):
        g = cm.build_graph("ab", [("a", "b", cm.ARROW)])
        assert g.edges == {(cm.ARROW, "a", "b")}

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            cm.build_graph("a", [("a", "a", cm.LINE)])

    def test_unknown_node_rejected(self):
        with pytest.raises(UnknownNodeError):
            cm.build_graph("ab", [("a", "c", cm.LINE)])

    def test_checks_run_in_order(self):
        # an unknown label, then an unknown edge type, then a loop
        with pytest.raises(UnknownNodeError):
            cm.build_graph("a", [("a", "z", "bogus")])
        with pytest.raises(ValueError, match="unknown edge type"):
            cm.build_graph("a", [("a", "a", "bogus")])

    def test_multi_edge_different_types(self):
        g = cm.build_graph("ab", [("a", "b", cm.ARC), ("a", "b", cm.ARROW)])
        assert len(g.edges) == 2
        assert not g.is_simple

    def test_same_type_deduplicates(self):
        edges = [("a", "b", cm.LINE), ("b", "a", cm.LINE)]
        assert cm.build_graph("ab", edges) == cm.build_graph("ab", edges[:1])

    @given(graphs())
    @HYP
    def test_dedup_idempotent(self, g):
        doubled = triples(g) + triples(g)
        assert cm.build_graph(g.nodes, doubled) == g

    def test_adjacent_over_every_edge_type(self):
        g = G("a -- b; c -> b; c <-> d; nodes: e")
        for x, y in (("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"), ("d", "c")):
            assert g.adjacent(x, y)
        for x, y in (("a", "c"), ("b", "d"), ("a", "e"), ("a", "a"), ("a", "z"), ("z", "a")):
            assert not g.adjacent(x, y)

    @given(graphs())
    @HYP
    def test_adjacent_matches_edge_set(self, g):
        pairs = {frozenset((x, y)) for _, x, y in g.edges}
        for x in g.nodes:
            for y in g.nodes:
                assert g.adjacent(x, y) == (frozenset((x, y)) in pairs)

    def test_incidences_in_canonical_edge_order(self):
        g = G("a <-> b; b -> a; a -- b; c -> a")
        assert g.incidences["a"] == (
            ("b", False, False, (cm.LINE, "a", "b")),
            ("b", True, False, (cm.ARROW, "b", "a")),
            ("c", True, False, (cm.ARROW, "c", "a")),
            ("b", True, True, (cm.ARC, "a", "b")),
        )
        assert g.incidences["c"] == (("a", False, True, (cm.ARROW, "c", "a")),)


class TestCycles:
    def test_semidirected_cycle_with_arrow(self):
        assert cm.has_semidirected_cycle_with_arrow(G("a -> b; b -- c; c -> a"))

    def test_all_line_cycle_allowed(self):
        assert not cm.has_semidirected_cycle_with_arrow(G("a -- b; b -- c; c -- a"))

    def test_no_cycle(self):
        assert not cm.has_semidirected_cycle_with_arrow(G("a -> b; b -> c"))

    def test_arcs_never_form_cycles(self):
        assert not cm.has_semidirected_cycle_with_arrow(G("a <-> b; b <-> c; c <-> a"))

    def test_agrees_with_per_arrow_definition_on_three_nodes(self):
        for g in enumerate_mixed_graphs(("a", "b", "c")):
            assert cm.has_semidirected_cycle_with_arrow(g) == per_arrow_cycle(g)

    @pytest.mark.parametrize(
        "closing, cyclic",
        [(None, False), (("v199", "v000"), True), (("v000", "v199"), False)],
    )
    def test_agrees_with_per_arrow_definition_on_a_long_ring(self, closing, cyclic):
        labels = [f"v{i:03d}" for i in range(200)]
        edges = [
            (labels[i], labels[i + 1], cm.LINE if i % 2 == 0 else cm.ARROW)
            for i in range(199)
        ]
        if closing is not None:
            edges.append((*closing, cm.ARROW))
        g = cm.build_graph(labels, edges)
        assert cm.has_semidirected_cycle_with_arrow(g) == per_arrow_cycle(g) == cyclic

    def test_agrees_with_per_arrow_definition_on_large_graphs(self):
        for g in _large_cmgs():
            assert cm.has_semidirected_cycle_with_arrow(g) is per_arrow_cycle(g) is False

    def test_arrow_into_an_anterior_is_a_cycle_on_large_graphs(self):
        # an anterior in the node's own line component puts the arrow inside
        # the component; one outside makes a directed cycle of components
        rng = random.Random("arrow-into-anterior")
        kinds = set()
        for g in _large_cmgs():
            v = rng.choice([v for v in g.nodes if cm.anteriors(g, [v])])
            u = rng.choice(sorted(cm.anteriors(g, [v])))
            index = g.index
            kinds.add(bool(line_reach(g.ln, 1 << index[v], 0) >> index[u] & 1))
            h = cm.build_graph(g.nodes, triples(g) + [(v, u, cm.ARROW)])
            assert cm.has_semidirected_cycle_with_arrow(h) is per_arrow_cycle(h) is True
        assert kinds == {False, True}

    def test_upward_pass_against_the_stack_pass(self):
        # random masks over 1-10 nodes, with arrows both ways so that many
        # are no CMG, then the large CMGs
        rng = random.Random("upward-pass")
        verdicts = {True: 0, False: 0}
        for _ in range(20_000):
            g = _random_mixed_graph(rng, rng.randint(1, 10))
            want = upward_by_stack(g.components)
            assert g._upward == want, (g.nodes, g.ln, g.pa, g.sp)
            verdicts[want is None] += 1
        assert min(verdicts.values()) > 4_000
        for seed, n in LARGE_DIGESTS:
            g = _large_cmg(seed, n)[0]
            assert g._upward == upward_by_stack(g.components) is not None


def _random_mixed_graph(rng, n):
    """A mixed graph over ``n`` nodes with each edge of each type drawn on its own."""
    ln, pa, ch, sp = ([0] * n for _ in range(4))
    density = rng.random() * 0.6
    for x, y in combinations(range(n), 2):
        if rng.random() < density:
            ln[x] |= 1 << y
            ln[y] |= 1 << x
        for tail, head in ((x, y), (y, x)):
            if rng.random() < density / 3:
                ch[tail] |= 1 << head
                pa[head] |= 1 << tail
        if rng.random() < density:
            sp[x] |= 1 << y
            sp[y] |= 1 << x
    return cm.MixedGraph(tuple(f"v{k}" for k in range(n)), *map(tuple, (ln, pa, ch, sp)))


def per_arrow_cycle(g):
    """Reference: some arrow's head reaches its tail along lines and forward arrows."""
    ne, _, ch, _ = adjacency_sets(g)
    for kind, u, v in g.edges:
        if kind != cm.ARROW:
            continue
        reach, stack = {v}, [v]
        while stack:
            x = stack.pop()
            for w in ne[x] | ch[x]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        if u in reach:
            return True
    return False


@pytest.fixture
def cycle_checks(monkeypatch):
    """Graphs passed to the cycle check, in call order."""
    seen = []
    original = graph.has_semidirected_cycle_with_arrow

    def counting(g):
        seen.append(g)
        return original(g)

    monkeypatch.setattr(graph, "has_semidirected_cycle_with_arrow", counting)
    return seen


class TestCmgVerdictCache:
    TEXT = "a -> b; b -- c; c <-> d; d -> e"

    def run_queries(self, g):
        cm.c_separated(g, ["a"], ["e"], ["c"])
        cm.c_connecting_witness(g, ["a"], ["e"], ["c"])
        cm.pairwise_model(g)

    def test_checked_once_per_object(self, cycle_checks):
        g = G(self.TEXT)
        self.run_queries(g)
        self.run_queries(g)
        assert len(cycle_checks) == 1 and cycle_checks[0] is g

    def test_identity_rewrite_keeps_the_verdict(self, cycle_checks):
        # a rewrite with nothing to do returns its input, verdict and all
        g = G(self.TEXT)
        cm.pairwise_model(cm.marginalize(g, []))
        cm.pairwise_model(cm.condition(g, []))
        assert len(cycle_checks) == 1 and cycle_checks[0] is g

    def test_equal_graph_is_checked_again(self, cycle_checks):
        g, h = G(self.TEXT), G(self.TEXT)
        assert g == h
        self.run_queries(g)
        self.run_queries(h)
        assert len(cycle_checks) == 2
        assert cycle_checks[0] is g and cycle_checks[1] is h

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: cm.c_separated(g, ["a"], ["c"]),
            lambda g: cm.c_connecting_witness(g, ["a"], ["c"]),
            lambda g: cm.bounded_walk_oracle(g, ["a"], ["c"]),
            cm.pairwise_model,
            cm.is_maximal,
            cm.non_maximality_witness,
            lambda g: cm.marginalize(g, ["b"]),
            lambda g: cm.condition(g, ["b"]),
            cm.anterialize,
            cm.in_cg_projection_class,
        ],
        ids=[
            "c_separated",
            "c_connecting_witness",
            "bounded_walk_oracle",
            "pairwise_model",
            "is_maximal",
            "non_maximality_witness",
            "marginalize",
            "condition",
            "anterialize",
            "in_cg_projection_class",
        ],
    )
    def test_non_cmg_rejected_on_every_call(self, call, cycle_checks):
        g = G("a -> b; b -- c; c -> a")
        for _ in range(2):
            with pytest.raises(NotACMGError):
                call(g)
        assert len(cycle_checks) == 1


class TestClassify:
    def test_arc_only_is_ang(self):
        flags = cm.classify(G("a <-> b; nodes: a b c"))
        assert flags == {cm.CMG, cm.ANG}

    def test_arc_with_anterior_path_not_ang(self):
        g = G("k <-> q; k -> j; j -- l; l -- h; h -> q")
        flags = cm.classify(g)
        assert cm.CMG in flags and cm.ANG not in flags

    def test_empty_graph_all_classes(self):
        assert cm.classify(G("nodes: a b c")) == {cm.UG, cm.DAG, cm.CG, cm.CMG, cm.ANG}

    def test_semidirected_cycle_nothing(self):
        assert cm.classify(G("a -> b; b -- c; c -> a")) == frozenset()

    def test_multi_edge_not_simple_not_ang(self):
        flags = cm.classify(G("a <-> b; a -- b"))
        assert cm.CMG in flags and cm.ANG not in flags

    @given(graphs())
    @HYP
    def test_containment_chain(self, g):
        flags = cm.classify(g)
        if cm.DAG in flags:
            assert cm.CG in flags
        if cm.CG in flags:
            assert cm.CMG in flags
        if cm.ANG in flags:
            assert cm.CMG in flags

    @given(graphs(classes=("CG",)))
    @HYP
    def test_generator_classes(self, g):
        assert cm.CG in cm.classify(g)


class TestReachability:
    def test_anterior_chain(self):
        assert cm.anteriors(G("a -> b; b -> c"), ["c"]) == {"a", "b"}

    def test_anterior_worked_example(self, g_ex):
        assert cm.anteriors(g_ex, ["j", "h", "l"]) == {"k", "q", "r"}

    def test_arcs_do_not_contribute(self):
        assert cm.anteriors(G("a <-> b"), ["b"]) == frozenset()

    def test_never_own_anterior(self):
        assert cm.anteriors(G("a -- b"), ["a"]) == {"b"}

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            cm.anteriors(G("a -- b"), ["z"])

    @given(graphs())
    @HYP
    def test_anteriors_transitive(self, g):
        ant = {v: cm.anteriors(g, [v]) for v in g.nodes}
        for z in g.nodes:
            for y in ant[z]:
                assert ant[y] <= ant[z] | {z}


def _rewrite_outputs():
    for seed, n in LARGE_DIGESTS:
        g, m, c = _large_cmg(seed, n)
        yield from (cm.marginalize(g, m), cm.condition(g, c), cm.anterialize(g))


class _UnsortedPickle:
    """Pickles as a graph's fields over the labels ``b, a``."""

    def __reduce__(self):
        return cm.MixedGraph, (("b", "a"), (2, 1), (0, 0), (0, 0), (0, 0))


class TestRepresentation:
    """The masks against the labelled edges they stand for."""

    def test_round_trips_on_three_nodes_and_rewrite_outputs(self):
        for g in [*enumerate_mixed_graphs(("a", "b", "c")), *_rewrite_outputs()]:
            _, *tables = masks_by_definition(g)
            assert (g.ln, g.pa, g.ch, g.sp) == tuple(map(tuple, tables))
            built = cm.build_graph(g.nodes, triples(g))
            assert built == g and hash(built) == hash(g)
            assert parse(render(g)) == g
            copy = pickle.loads(pickle.dumps(g))
            assert copy == g and hash(copy) == hash(g)
            assert weakref.ref(g)() is g
            pairs = {frozenset((x, y)) for _, x, y in g.edges}
            assert g.is_simple == (len(pairs) == len(g.edges))

    def test_equality_follows_the_edges(self):
        graphs = list(enumerate_mixed_graphs(("a", "b", "c")))
        assert len(set(graphs)) == len({g.edges for g in graphs}) == len(graphs) == 4096
        g = G("a -> b; b -- c")
        assert g != G("b -> a; b -- c") and g != G("a -> b; b <-> c")
        # the same edges over another node order are no graph at all
        _, *tables = masks_by_definition(g, ("c", "b", "a"))
        with pytest.raises(ValueError, match="sorted order"):
            cm.MixedGraph(("c", "b", "a"), *map(tuple, tables))

    def test_constructor_checks_the_table_lengths(self):
        g = G("a -> b; b -- c")
        assert cm.MixedGraph(g.nodes, g.ln, g.pa, g.ch, g.sp) == g
        for short in range(4):
            tables = [g.ln, g.pa, g.ch, g.sp]
            tables[short] = tables[short][:2]
            with pytest.raises(ValueError, match="one entry per node"):
                cm.MixedGraph(g.nodes, *tables)
        for nodes in [("a", "a"), ("b", "a"), ("a", "c", "b"), ("a", "b", "b"), ("b", "a", "c", "d")]:
            empty = (0,) * len(nodes)
            with pytest.raises(ValueError, match="distinct and in sorted order"):
                cm.MixedGraph(nodes, empty, empty, empty, empty)
        assert cm.MixedGraph((), (), (), (), ()).nodes == ()

    def test_fields_cannot_be_assigned(self):
        g = G("a -> b; b -- c; c <-> a")
        for name in (*FIELDS, "is_cmg", "index"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, None)
        assert g == G("a -> b; b -- c; c <-> a") and g.is_cmg

    def test_pickle_keeps_only_the_fields(self):
        # a cached string hash holds only in the process that made it
        g = G("a -> b; b -- c; c <-> a")
        hash(g), g.index, g.components, g.upward_masks, g.edges, g.is_cmg
        assert set(vars(pickle.loads(pickle.dumps(g)))) == {"nodes", "ln", "pa", "ch", "sp"}

    def test_pickle_loads_through_the_checked_constructor(self):
        g = G("a -> b; b -- c; c <-> a")
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.edge_list() == g.edge_list()
        # a pickle made when the constructor took any order no longer loads
        with pytest.raises(ValueError, match="sorted order"):
            pickle.loads(pickle.dumps(_UnsortedPickle()))

    def test_edge_list_is_the_sorted_edge_set(self):
        # the decoder's order against a sort of the labelled edges by (rank, x, y)
        rank = {cm.LINE: 0, cm.ARROW: 1, cm.ARC: 2}
        large = [_large_cmg(seed, n)[0] for seed, n in LARGE_DIGESTS]
        for g in [*enumerate_mixed_graphs(("a", "b", "c")), *large]:
            assert g.edge_list() == sorted(g.edges, key=lambda e: (rank[e[0]], e[1], e[2]))
            assert parse(render(g)) == g

    def test_edges_stay_unbuilt_through_rewrites_and_queries(self):
        for seed, n in list(LARGE_DIGESTS)[:3]:
            g, m, c = _large_cmg(seed, n)
            for h in (cm.marginalize(g, m), cm.condition(g, c), cm.anterialize(g)):
                a, b, *given = sorted(h.nodes)[:6]
                cm.c_separated(h, [a], [b], given)
                cm.marginalize(h, given[:1])
                cm.condition(h, given[1:2])
                cm.anterialize(h)
                assert "edges" not in vars(h)
            assert "edges" not in vars(g)

    def test_cmg_verdict_and_classes_build_no_label_index(self):
        # the cycle pass and the anterior table read the component table only
        large = _large_cmg(0, 64)[0]
        texts = ["a -> b; b -- c; c <-> d; d -> e", "a <-> b; a -> c; c -- b", "a -> b; b -- c; c -> a"]
        for h in [large, *map(G, texts)]:
            g = cm.build_graph(h.nodes, triples(h))
            g.is_cmg
            cm.classify(g)
            assert "index" not in vars(g) and "components" in vars(g)


FIELDS = {"nodes", "ln", "pa", "ch", "sp"}

# per lazy table, the other tables its first read builds
LAZY_TABLES = {
    "_hash": set(),
    "node_set": set(),
    "edges": set(),
    "is_simple": set(),
    "incidences": set(),
    "is_cmg": {"_upward", "components"},
    "index": set(),
    "components": set(),
    "_upward": {"components"},
}


class TestLazyTables:
    def test_every_table_is_lazy(self):
        lazy = {k for k, v in vars(cm.MixedGraph).items() if isinstance(v, graph._lazy)}
        assert lazy == set(LAZY_TABLES)

    @pytest.mark.parametrize("name", list(LAZY_TABLES))
    def test_computed_once_per_object(self, monkeypatch, name):
        table = vars(cm.MixedGraph)[name]
        built = []
        original = table.func

        def counting(g):
            built.append(g)
            return original(g)

        monkeypatch.setattr(table, "func", counting)
        for text in ("a -> b; b -- c; c <-> d; a <-> c", "a -> b; b -- c; c -> a"):
            g = G(text)
            assert set(vars(g)) == FIELDS
            first = getattr(g, name)
            assert getattr(g, name) is first
            assert len(built) == 1 and built.pop() is g
            assert set(vars(g)) == FIELDS | {name} | LAZY_TABLES[name]
            assert first == original(G(text))


class TestSubgraphs:
    def test_induced_identity(self, g_ex):
        assert g_ex.induced_subgraph(g_ex.nodes) == g_ex

    def test_induced_drops_edges(self):
        g = G("a -> b; b -> c").induced_subgraph(["a", "c"])
        assert g.edges == frozenset()

    def test_induced_single(self):
        assert cm.build_graph("a") == G("a -> b").induced_subgraph(["a"])

    @pytest.mark.parametrize("seed,n", list(LARGE_DIGESTS))
    def test_boundary_cuts_on_large_graphs(self, seed, n):
        # one or two deleted positions are cut with a mask and a shift
        # each, more by moving each kept bit; check both against the
        # labelled edges among the kept labels for cuts at position 0, at
        # n - 1, in runs and at random
        g = _large_cmg(seed, n)[0]
        edges = triples(g)
        rng = random.Random(f"boundary-cuts:{seed}")
        run = rng.randrange(n - 8)
        keeps = [set(g.nodes), set()]
        keeps += [set(g.nodes) - {v} for v in g.nodes]
        keeps.append(set(g.nodes) - {g.nodes[0], g.nodes[-1]})
        keeps += [set(g.nodes) - set(g.nodes[run : run + size]) for size in (2, 3, 8)]
        keeps += [{v for v in g.nodes if rng.random() < 0.5} for _ in range(20)]
        for keep in keeps:
            want = cm.build_graph(keep, [(x, y, kind) for x, y, kind in edges if {x, y} <= keep])
            assert g.induced_subgraph(keep) == want, sorted(set(g.nodes) - keep)


class TestChainComponents:
    def test_three_components(self):
        g = G("l -- j; j -- k; h -- q; h -> j; q -> k; p -> h")
        assert cm.chain_components(g) == [("h", "q"), ("j", "k", "l"), ("p",)]

    def test_dag_all_singletons(self):
        assert cm.chain_components(G("a -> b; b -> c")) == [("a",), ("b",), ("c",)]

    def test_connected_lines_single_component(self):
        assert cm.chain_components(G("a -- b; b -- c")) == [("a", "b", "c")]

    def test_requires_chain_graph(self):
        with pytest.raises(NotAChainGraphError):
            cm.chain_components(G("a <-> b"))

    @given(graphs(classes=("CG",)))
    @HYP
    def test_partition_and_edge_discipline(self, g):
        comps = cm.chain_components(g)
        seen = [v for comp in comps for v in comp]
        assert sorted(seen) == list(g.nodes)
        comp_of = {v: idx for idx, comp in enumerate(comps) for v in comp}
        for kind, x, y in g.edges:
            if kind == cm.LINE:
                assert comp_of[x] == comp_of[y]
            else:
                assert comp_of[x] != comp_of[y]


class TestMoralGraph:
    def test_collider_marries_parents(self):
        moral = cm.moral_graph(G("a -> c; b -> c"))
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            assert edge_in(moral, x, y, cm.LINE)

    def test_chain_no_marriage(self):
        moral = cm.moral_graph(G("a -> b; b -> c"))
        assert moral.edges == G("a -- b; b -- c").edges

    def test_worked_example_moral_path(self, g_ex):
        closure = {"j", "h", "l"} | cm.anteriors(g_ex, ["j", "h", "l"])
        moral = cm.moral_graph(g_ex.induced_subgraph(closure))
        assert edge_in(moral, "j", "k", cm.LINE)
        assert edge_in(moral, "k", "q", cm.LINE)
        assert edge_in(moral, "q", "h", cm.LINE)

    @given(graphs(classes=("CG",)))
    @HYP
    def test_idempotent(self, g):
        moral = cm.moral_graph(g)
        assert cm.moral_graph(moral) == moral


# -- mask queries against the string searches they replaced ---------------------


def _anteriors_by_strings(g, a):
    """``anteriors`` as a search over label sets along lines and arrows."""
    ne, pa, _, _ = adjacency_sets(g)
    reach, stack = set(a), list(a)
    while stack:
        u = stack.pop()
        for w in ne[u] | pa[u]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return frozenset(reach - set(a))


def _moral_by_strings(g):
    """``moral_graph`` from the label-set parents of each chain component."""
    pa = adjacency_sets(g)[1]
    lines = [(x, y, cm.LINE) for _, x, y in g.edges]
    for comp in cm.chain_components(g):
        comp_parents = sorted(set().union(*(pa[t] for t in comp)))
        for k, x in enumerate(comp_parents):
            lines += [(x, y, cm.LINE) for y in comp_parents[k + 1 :]]
    return cm.build_graph(g.nodes, lines)


def _moral_separated_by_strings(g, a, b, given):
    """``moral_separated`` as a label search on :func:`_moral_by_strings`."""
    base = set(a) | set(b) | set(given)
    moral = _moral_by_strings(g.induced_subgraph(base | _anteriors_by_strings(g, base)))
    ne = adjacency_sets(moral)[0]
    reach, stack = set(a), list(a)
    while stack:
        u = stack.pop()
        if u in given:
            continue
        for w in ne[u]:
            if w not in reach:
                if w in b:
                    return False
                reach.add(w)
                stack.append(w)
    return True


def _label_queries(nodes):
    """Every ``(a, b, given)`` of disjoint sets with ``a`` and ``b`` not empty."""
    for roles in product(range(4), repeat=len(nodes)):
        a, b, given = ({v for v, r in zip(nodes, roles) if r == k} for k in (1, 2, 3))
        if a and b:
            yield a, b, given


def _arc_free(g):
    return cm.build_graph(g.nodes, [e for e in triples(g) if e[2] != cm.ARC])


class TestMaskQueriesAgainstStrings:
    def test_three_node_mixed_graphs(self):
        graphs = list(enumerate_mixed_graphs(("a", "b", "c")))
        assert len(graphs) == 4096
        chain_graphs = 0
        for g in graphs:
            ne, pa, ch, sp = adjacency_sets(g)
            for x in g.nodes + ("z",):
                for y in g.nodes + ("z",):
                    want = x in g.nodes and y in ne[x] | pa[x] | ch[x] | sp[x]
                    assert g.adjacent(x, y) == want, (render(g), x, y)
            for a in (c for r in (1, 2, 3) for c in combinations(g.nodes, r)):
                assert cm.anteriors(g, a) == _anteriors_by_strings(g, a), (render(g), a)
            if cm.CG not in cm.classify(g):
                continue
            chain_graphs += 1
            assert cm.moral_graph(g) == _moral_by_strings(g), render(g)
            for a, b, given in _label_queries(g.nodes):
                assert cm.moral_separated(g, a, b, given) == (
                    _moral_separated_by_strings(g, a, b, given)
                ), (render(g), a, b, given)
        assert chain_graphs == 50  # every labelled three-node chain graph

    def test_large_cmgs(self):
        rng = random.Random("mask-queries-against-strings")
        for g in _large_cmgs():
            ne, pa, ch, sp = adjacency_sets(g)
            for x in g.nodes:
                for y in g.nodes:
                    assert g.adjacent(x, y) == (y in ne[x] | pa[x] | ch[x] | sp[x])
            for v in g.nodes:
                assert cm.anteriors(g, [v]) == _anteriors_by_strings(g, [v]), v
            for _ in range(20):
                a = rng.sample(g.nodes, rng.randint(2, 6))
                assert cm.anteriors(g, a) == _anteriors_by_strings(g, a), a

    def test_large_arc_free_cgs(self):
        rng = random.Random("moral-against-strings")
        separated = 0
        for g in map(_arc_free, _large_cmgs()):
            assert cm.moral_graph(g) == _moral_by_strings(g)
            for _ in range(40):
                picked = rng.sample(g.nodes, rng.randint(2, 8))
                a, b, given = picked[:1], picked[1:2], picked[2:]
                got = cm.moral_separated(g, a, b, given)
                assert got == _moral_separated_by_strings(g, a, b, given), (a, b, given)
                separated += got
        assert 0 < separated < 40 * len(_large_cmgs())


_STR_GRAPH = cm.build_graph(["a", "b", "ab", "c"], [("a", "c", cm.ARROW), ("ab", "b", cm.LINE)])


@pytest.mark.parametrize(
    "call",
    [
        lambda g: cm.anteriors(g, "ab"),
        lambda g: g.induced_subgraph("ab"),
    ],
    ids=["anteriors", "induced_subgraph"],
)
def test_bare_string_node_set_rejected(call):
    # "ab" is an iterable of the labels a and b, and would read as {a, b}
    with pytest.raises(MalformedQueryError, match="the string 'ab'"):
        call(_STR_GRAPH)


def test_node_named_ab_in_a_list():
    assert cm.anteriors(_STR_GRAPH, ["ab"]) == {"b"}
    assert _STR_GRAPH.induced_subgraph(["ab"]).nodes == ("ab",)


def test_public_names_resolve_and_test_only_names_are_gone():
    namespace = {}
    exec("from cmgraph import *", namespace)
    assert len(set(cm.__all__)) == len(cm.__all__)
    for name in cm.__all__:
        assert namespace[name] is getattr(cm, name), name
    from cmgraph import errors, propcheck

    for owner, names in (
        (cm, ("ancestors", "enumerate_mixed_graphs", "BlockedStartError")),
        (graph, ("ancestors", "_check_edge")),
        (errors, ("BlockedStartError",)),
        (propcheck, ("enumerate_mixed_graphs",)),
        (cm.MixedGraph, ("line_reachable", "has_edge", "edges_as_triples")),
    ):
        for name in names:
            assert not hasattr(owner, name), (owner, name)
