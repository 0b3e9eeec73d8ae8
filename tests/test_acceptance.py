"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The seeded suites
use seed 0 and 500 instances throughout.

The graph-equality forms of the composition and commutativity laws have
rare known counterexamples (roughly one per thousand random instances)
in which one route keeps a redundant parallel arc the other cannot
rebuild; the model-level forms hold unconditionally.  The concrete
instances are pinned in ``test_transform.py`` as
``test_known_split_order_discrepancy`` and
``test_known_commutativity_discrepancy``.
"""

import functools
import time
from itertools import combinations

import cmgraph as cm
from cmgraph.graphio import parse, render
from cmgraph.propcheck import (
    GeneratorConfig,
    _shifted_model,
    cg_unrepresentability_demo,
    enumerate_cgs,
    random_graph,
    run_suite,
)

from conftest import G, enumerate_mixed_graphs

SEED = 0
COUNT = 500


def criterion(num, desc, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} [{desc}]: FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE {num} [{desc}]: PASS ({elapsed:.1f}s)")
            assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"

        return wrapper

    return deco


@criterion(1, "worked-example fidelity", budget_s=1.0)
def test_criterion_1_worked_example():
    g = G("j -> k; k -> l; l -- r; q -> r; q -> h")
    assert not cm.c_separated(g, ["j"], ["h"], ["l"])
    assert not cm.moral_separated(g, ["j"], ["h"], ["l"])


MARGINAL_ROWS = [
    ("m -> i; j -> m", "j -> i"),
    ("m -> i; j -- m", "j -> i"),
    ("i <-> m; j -- m", "i <-> j"),
    ("m -> i; m -> j", "i <-> j"),
    ("m -> i; j <-> m", "i <-> j"),
    ("i -- m; j -> m", "j -> i"),
    ("i -- m; j -- m", "i -- j"),
    ("m -> i; i -- w; j -> w", "i -- w; j -> i; j -> w"),
    ("m -> i; i -- w; j <-> w", "i -- w; i <-> j; j <-> w"),
]
CONDITIONAL_ROWS = [
    ("i -> s; j -> s", "i -- j"),
    ("i <-> s; j -> s", "j -> i"),
    ("i <-> s; j <-> s", "i <-> j"),
    ("s <-> i; i -- w; j -> w", "i -- w; j -> i; j -> w"),
    ("s <-> i; i -- w; j <-> w", "i -- w; i <-> j; j <-> w"),
]


@criterion(2, "edge-generation row fidelity (14 rows)", budget_s=10.0)
def test_criterion_2_rule_rows():
    checked = 0
    for src, expected in MARGINAL_ROWS:
        assert cm.marginalize(G(src), ["m"]) == G(expected), src
        checked += 1
    for src, expected in CONDITIONAL_ROWS:
        assert cm.condition(G(src), ["s"]) == G(expected), src
        checked += 1
    assert checked == 14


def _pair_queries(g):
    for i, j in combinations(g.nodes, 2):
        rest = [v for v in g.nodes if v not in (i, j)]
        for mask in range(1 << len(rest)):
            yield i, j, frozenset(rest[k] for k in range(len(rest)) if mask >> k & 1)


@criterion(3, "criterion equivalence (exhaustive + seeded)", budget_s=300.0)
def test_criterion_3_separation_equivalence():
    import random

    # every chain mixed graph on three labelled nodes, every query
    for g in enumerate_mixed_graphs(("a", "b", "c")):
        if cm.CMG not in cm.classify(g):
            continue
        for i, j, given in _pair_queries(g):
            expect = cm.c_separated(g, [i], [j], given)
            assert cm.bounded_walk_oracle(g, [i], [j], given) == expect
            assert (
                cm.bounded_walk_oracle(g, [i], [j], given, mode=cm.MODE_PATHS)
                == expect
            )

    # seeded CMGs on 4-5 nodes, both oracle modes, plus set-valued queries
    rng = random.Random(SEED)
    for _ in range(COUNT):
        n = rng.randint(4, 5)
        g = random_graph(
            GeneratorConfig(n, rng.uniform(0.2, 0.6), rng.getrandbits(48), "CMG")
        )
        for i, j, given in _pair_queries(g):
            expect = cm.c_separated(g, [i], [j], given)
            assert cm.bounded_walk_oracle(g, [i], [j], given) == expect
            assert (
                cm.bounded_walk_oracle(g, [i], [j], given, mode=cm.MODE_PATHS)
                == expect
            )
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        a, b, given = nodes[:2], nodes[2:4], nodes[4:]
        assert cm.bounded_walk_oracle(g, a, b, given) == cm.c_separated(g, a, b, given)

    # seeded CGs up to 6 nodes against the moralization criterion
    for _ in range(COUNT):
        n = rng.randint(3, 6)
        g = random_graph(
            GeneratorConfig(n, rng.uniform(0.2, 0.6), rng.getrandbits(48), "CG")
        )
        for i, j, given in _pair_queries(g):
            assert cm.moral_separated(g, [i], [j], given) == cm.c_separated(
                g, [i], [j], given
            )


def _run_clean(suite_id):
    report = run_suite(suite_id, seed=SEED, count=COUNT, max_nodes=7)
    assert report.instances == COUNT
    assert report.failures == 0, report.line()
    return report


@criterion(4, "theorem suites: model preservation + composition", budget_s=600.0)
def test_criterion_4_theorem_suites():
    for suite_id in (
        "marginalization",
        "conditioning",
        "combined",
        "ang",
        "marginal-composition",
        "conditional-composition",
        "combined-composition",
        "commutativity",
    ):
        _run_clean(suite_id)


@criterion(5, "closure and image-class suites", budget_s=600.0)
def test_criterion_5_closure_suites():
    for suite_id in ("closure", "classes", "identity"):
        _run_clean(suite_id)


@criterion(6, "edge-oracle agreement", budget_s=600.0)
def test_criterion_6_edge_oracles():
    for suite_id in (
        "marginal-edge-oracle",
        "conditional-edge-oracle",
        "inducing-walk-oracle",
    ):
        _run_clean(suite_id)


@criterion(7, "chain graphs not closed under marginalization", budget_s=300.0)
def test_criterion_7_unrepresentability():
    report = cg_unrepresentability_demo()
    assert report.failures == 0, report.line()


@criterion(8, "round-trip and determinism", budget_s=300.0)
def test_criterion_8_roundtrip_determinism():
    import random

    rng = random.Random(SEED)
    for _ in range(1000):
        cfg = GeneratorConfig(
            rng.randint(2, 8),
            rng.uniform(0.0, 0.9),
            rng.getrandbits(48),
            rng.choice(("CG", "CMG", "AnG")),
        )
        g = random_graph(cfg)
        assert parse(render(g)) == g
        assert random_graph(cfg) == g

    first = run_suite("marginalization", seed=SEED, count=60, max_nodes=6)
    second = run_suite("marginalization", seed=SEED, count=60, max_nodes=6)
    assert first.line() == second.line()


# with every labelled chain graph over a-d swept, these sets stand for all
# M and C of their sizes
FOUR_NODE_SETS = (frozenset("a"), frozenset("ab"))
FOUR_NODE_SPECS = [
    cm.TransformSpec.of(set(m), set(c)) for m, c in (("a", "b"), ("a", "bc"), ("ab", "c"))
]


@criterion(9, "four-node chain-graph guarantee (exhaustive)", budget_s=120.0)
def test_criterion_9_four_node_chain_graphs():
    """Every route here keeps the model on every labelled four-node chain graph.

    No chain-graph route can see the conditioning arc-flank stage: made a
    no-op, it fails nothing here.  A chain graph has no arcs, so
    conditioning it, and ``ang_transform``, which conditions first, give
    the stage no turn.  A one-step marginal lies in the CG projection
    class (asserted below), where the stage adds no edge for any C (proof
    in ``_condition_arc_flank_stage``, sampled at 5-8 nodes by
    ``test_arc_flank_stage_is_idle_on_the_cg_projection_class``).  The
    stage's no-op is killed on CMG inputs instead: by
    ``TestFlankUnions::test_large_graphs``, ``TestConditionAgainstRescan``,
    the conditional rule rows and acceptance criteria 2, 4 and 6 (34
    failures in all), and by the sampled test, which counts the inputs
    outside the class where the stage adds an edge.
    """
    cgs = list(enumerate_cgs(tuple("abcd")))
    assert len(cgs) == 1688

    def keeps_model(out, g, c, keep):
        return cm.models_equal(cm.pairwise_model(out), _shifted_model(g, c, keep))

    for g in cgs:
        for s in FOUR_NODE_SETS:
            out = cm.marginalize(g, s)
            assert keeps_model(out, g, frozenset(), g.node_set - s), (render(g), s)
            assert cm.in_cg_projection_class(out), (render(g), s)
            out = cm.condition(g, s)
            assert keeps_model(out, g, s, g.node_set - s), (render(g), s)
        for spec in FOUR_NODE_SPECS:
            keep = g.node_set - spec.m - spec.c
            out = cm.marginalize_and_condition(g, spec)
            assert keeps_model(out, g, spec.c, keep), (render(g), spec)
            out = cm.ang_transform(g, spec)
            assert keeps_model(out, g, spec.c, keep), (render(g), spec)
            assert cm.in_ang_projection_class(out), (render(g), spec)
