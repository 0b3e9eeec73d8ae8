import hashlib
import pickle
import random
from itertools import combinations

import pytest

import cmgraph as cm
from cmgraph import kernel, propcheck
from cmgraph.errors import InvalidConfigError, MalformedQueryError, NotACMGError
from cmgraph.graph import mask_of
from cmgraph.graphio import render
from cmgraph.propcheck import (
    GeneratorConfig,
    PropertyReport,
    TransformSpec,
    cg_unrepresentability_demo,
    check_ang,
    check_combined,
    check_combined_composition,
    check_commutativity,
    check_conditioning,
    check_marginalization,
    default_unrepresentable_dag,
    enumerate_cgs,
    find_cg_matching_model,
    random_graph,
    run_all,
    run_suite,
    shrink_instance,
    SUITE_IDS,
    _combined_routes,
    _instance,
    _random_subsets,
    _shifted_model,
    _suites,
)

from cmgraph.cli import main
from cmgraph.kernel import _bits

from conftest import (
    G,
    _four_node_sample,
    _random_graph_by_triples,
    enumerate_mixed_graphs,
    masks_by_definition,
    triples,
)


# sha256 of the models in test_models_keep_their_pinned_digest
MODELS_DIGEST = "92712153c584b9409bc8b244df749889349058db569de686c0ac8345c471f754"
# sha256 of the graphs in TestGenerator.test_draws_keep_their_pinned_digest
GENERATOR_DIGEST = "bd3c58d242c1a561ca26a9017af47fee56ad05196bf6d746050a15184e629295"


def _shifted_model_by_queries(g, base, keep):
    """``_shifted_model`` from one ``kernel.separated`` query per statement."""
    index, ln, pa, ch, sp = masks_by_definition(g)
    table = kernel.components(ln, pa, ch, sp)
    base_mask = mask_of(index, base)
    keep_sorted = sorted(keep)
    stmts = set()
    for i, j in combinations(keep_sorted, 2):
        ibit, jbit = 1 << index[i], 1 << index[j]
        rest = [v for v in keep_sorted if v not in (i, j)]
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                cmask = base_mask | mask_of(index, extra)
                if kernel.separated(table, ln, pa, ch, sp, ibit, jbit, cmask):
                    stmts.add((i, j, frozenset(extra)))
    return cm.IndependenceModel(frozenset(keep), frozenset(stmts))


def labelled_statements(nodes, keep, found):
    """Reference decoder: the statements of the kernel's ``(i, j, sepmask)``
    pairs over the node mask ``keep``, as ``(x, y, frozenset)`` tuples.

    Set number ``c`` is the set of the kept nodes at the set bits of
    ``c``, numbered in the order of ``nodes``; the kernel's ``base`` is
    in none of them.
    """
    # the sets by number: each kept node doubles the table
    sets = [frozenset()]
    for v in kernel._bits(keep):
        one = frozenset((nodes[v],))
        sets += [s | one for s in sets]
    stmts = []
    for i, j, sep in found:
        x, y = sorted((nodes[i], nodes[j]))
        stmts += [(x, y, sets[c]) for c in kernel._bits(sep)]
    return frozenset(stmts)


def _restricted(model, keep):
    """The statements of ``model`` over ``keep``: the marginal model's definition."""
    stmts = frozenset(
        (i, j, c)
        for i, j, c in model.statements
        if i in keep and j in keep and c <= keep
    )
    return cm.IndependenceModel(keep, stmts)


def _suite_instances(suite_id, seed, count):
    """(g, M, C) as ``run_suite`` draws them for a model-preservation suite."""
    suite = _suites()[suite_id]
    rng = random.Random(seed)
    for _ in range(count):
        g = _instance(rng, suite.graph_class, 7)
        sets = _random_subsets(rng, g.nodes, len(suite.keys))
        if suite_id == "marginalization":
            yield g, sets[0], frozenset()
        elif suite_id == "conditioning":
            yield g, frozenset(), sets[0]
        else:
            yield g, sets[0], sets[1]


class TestGenerator:
    def test_zero_density_edgeless(self):
        g = random_graph(GeneratorConfig(2, 0.0, 1, "CG"))
        assert g.edges == frozenset()

    def test_cg_mode_yields_cg(self):
        for seed in range(30):
            g = random_graph(GeneratorConfig(5, 0.5, seed, "CG"))
            assert cm.CG in cm.classify(g)

    def test_cmg_mode_yields_cmg(self):
        for seed in range(30):
            g = random_graph(GeneratorConfig(5, 0.5, seed, "CMG"))
            assert cm.CMG in cm.classify(g)

    def test_ang_mode_yields_simple_ang(self):
        for seed in range(30):
            g = random_graph(GeneratorConfig(5, 0.5, seed, "AnG"))
            assert cm.ANG in cm.classify(g)
            assert g.is_simple

    def test_deterministic(self):
        cfg = GeneratorConfig(6, 0.4, 123456, "CMG")
        assert render(random_graph(cfg)) == render(random_graph(cfg))

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError, match=r"node_count must be in 2\.\.8"):
            random_graph(GeneratorConfig(1, 0.5, 0, "CG"))
        with pytest.raises(InvalidConfigError, match=r"edge_density must be in \[0, 1\]"):
            random_graph(GeneratorConfig(4, 1.5, 0, "CG"))
        with pytest.raises(InvalidConfigError, match=r"edge_density must be in \[0, 1\]"):
            random_graph(GeneratorConfig(4, float("nan"), 0, "CG"))
        with pytest.raises(InvalidConfigError):
            random_graph(GeneratorConfig(4, 0.5, 0, "DAG"))

    @pytest.mark.parametrize("node_count", [3.0, True, "3", None])
    def test_node_count_must_be_an_int(self, node_count):
        with pytest.raises(InvalidConfigError, match="node_count must be an int"):
            random_graph(GeneratorConfig(node_count, 0.5, 0, "CMG"))

    @pytest.mark.parametrize("edge_density", ["x", None, True, 0.5j])
    def test_edge_density_must_be_a_real_number(self, edge_density):
        with pytest.raises(InvalidConfigError, match="edge_density must be a real number"):
            random_graph(GeneratorConfig(4, edge_density, 0, "CMG"))

    def test_int_density_is_accepted(self):
        assert random_graph(GeneratorConfig(4, 0, 3, "CMG")).edges == frozenset()
        assert random_graph(GeneratorConfig(4, 1, 3, "CMG")) == random_graph(
            GeneratorConfig(4, 1.0, 3, "CMG")
        )

    def test_matches_the_triple_reference(self):
        # every class, 2-8 nodes, densities over [0, 1] with both ends
        rng = random.Random("generator-reference")
        for k in range(21000):
            density = rng.choice((0.0, 1.0)) if k % 10 == 0 else rng.random()
            cfg = GeneratorConfig(2 + k % 7, density, rng.getrandbits(32), propcheck.GRAPH_CLASSES[k % 3])
            assert random_graph(cfg) == _random_graph_by_triples(cfg), cfg

    def test_draws_keep_their_pinned_digest(self):
        # every (node_count, density, class) of the grid below once; a
        # change to the order of the draws changes the digest
        configs = [
            GeneratorConfig(2 + k % 7, k % 11 / 10, 7000 + k, propcheck.GRAPH_CLASSES[k % 3])
            for k in range(231)
        ]
        text = "\n".join(
            f"# {cfg.node_count} {cfg.edge_density} {cfg.seed} {cfg.graph_class}\n{render(random_graph(cfg))}"
            for cfg in configs
        )
        assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGEST


class TestEnumeration:
    def test_mixed_graph_count_two_nodes(self):
        assert sum(1 for _ in enumerate_mixed_graphs(("a", "b"))) == 16

    def test_cg_count_two_nodes(self):
        # none, line, two arrow orientations
        assert sum(1 for _ in enumerate_cgs(("a", "b"))) == 4

    def test_all_enumerated_cgs_are_cgs(self):
        for g in enumerate_cgs(("a", "b", "c")):
            assert cm.CG in cm.classify(g)

    def test_every_four_node_cg_is_maximal(self):
        # the premise of find_cg_matching_model's skeleton filter
        for g in enumerate_cgs(("a", "b", "c", "d")):
            assert cm.is_maximal(g)


class TestReports:
    def test_report_line_schema(self):
        report = PropertyReport("demo")
        report.record(True)
        assert (
            report.line()
            == "property=demo instances=1 failures=0 skipped=0 counterexample=none"
        )

    def test_failure_captures_payload(self):
        report = PropertyReport("demo")
        report.record(False, lambda: {"graph": "nodes: a"})
        assert report.failures == 1
        assert '"graph"' in report.line()

    def test_shrinking_reduces_instance(self):
        g = G("a -> b; b -> c; nodes: a b c d e")
        # failure: graph contains the a -> b arrow
        def fails(gg, ss):
            return (cm.ARROW, "a", "b") in gg.edges

        shrunk, _ = shrink_instance(g, {}, fails)
        assert (cm.ARROW, "a", "b") in shrunk.edges
        assert len(shrunk.nodes) == 2

    def test_suite_reports_deterministic(self):
        a = run_suite("marginalization", seed=5, count=40, max_nodes=6)
        b = run_suite("marginalization", seed=5, count=40, max_nodes=6)
        assert a.line() == b.line()

    def test_all_suite_ids_runnable(self):
        for sid in SUITE_IDS:
            if sid == "cg-unrepresentability":
                continue
            report = run_suite(sid, seed=1, count=5, max_nodes=5)
            assert report.instances == 5
            assert report.failures == 0

    def test_negative_count_rejected(self):
        for sid in ("marginalization", "cg-unrepresentability"):
            with pytest.raises(InvalidConfigError):
                run_suite(sid, count=-1)
        with pytest.raises(InvalidConfigError):
            run_all(count=-1)

    @pytest.mark.parametrize("max_nodes", [0, 2, 9])
    def test_max_nodes_out_of_range_rejected_before_running(self, max_nodes, monkeypatch):
        ran = []
        monkeypatch.setattr(propcheck, "_instance", lambda *args: ran.append(args))
        monkeypatch.setattr(propcheck, "cg_unrepresentability_demo", lambda **kw: ran.append(kw))
        for sid in ("marginalization", "witness-soundness", "cg-unrepresentability"):
            with pytest.raises(InvalidConfigError, match="max_nodes"):
                run_suite(sid, count=5, max_nodes=max_nodes)
        with pytest.raises(InvalidConfigError, match="max_nodes"):
            run_all(count=5, max_nodes=max_nodes)
        assert ran == []

    @pytest.mark.parametrize("max_nodes", [3, 8])
    def test_max_nodes_bounds_accepted(self, max_nodes):
        report = run_suite("marginalization", seed=1, count=5, max_nodes=max_nodes)
        assert report.instances == 5 and report.failures == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidConfigError, match="marginalization"):
            run_suite("nope")

    def test_zero_count_runs_nothing(self):
        assert run_suite("marginalization", count=0).instances == 0


class TestChecks:
    def test_marginalization_instance(self):
        assert check_marginalization(G("a -> m; m -> b"), frozenset("m"))

    def test_combined_composition_counterexample_has_model_diagnostic(self):
        # the first combined-composition failure at seed 6, count 500
        g = G(
            "a -- d; a -> e; b -> a; b -> f; c -> a; c -> b; c -> d; d -> e; "
            "d -> f; a <-> b; a <-> e; a <-> f; b <-> e; c <-> d; d <-> e; "
            "d <-> f"
        )
        none = frozenset()
        report = PropertyReport("combined-composition")
        _suites()["combined-composition"].run(
            report, g, (frozenset("d"), none, frozenset("c"), none)
        )
        assert report.failures == 1
        assert report.first_counterexample["models_equal"] is True

    def test_shifted_model_matches_c_separated(self):
        for seed in range(40):
            g = random_graph(GeneratorConfig(6, 0.5, seed, "CMG"))
            base = frozenset(g.nodes[: seed % 3])
            keep = frozenset(g.nodes[3:])
            want = set()
            for i, j in combinations(sorted(keep), 2):
                rest = sorted(keep - {i, j})
                for r in range(len(rest) + 1):
                    for extra in combinations(rest, r):
                        if cm.c_separated(g, [i], [j], base | set(extra)):
                            want.add((i, j, frozenset(extra)))
            got = _shifted_model(g, base, keep)
            assert got.ground == keep and got.statements == want, render(g)

    @pytest.mark.parametrize(
        "suite_id", ["marginalization", "conditioning", "combined", "ang"]
    )
    def test_shifted_model_matches_queries_on_suite_instances(self, suite_id):
        # the marginalization instances give the restricted (empty-base) case
        for g, m, c in _suite_instances(suite_id, 3, 1250):
            keep = g.node_set - m - c
            want = _shifted_model_by_queries(g, c, keep)
            assert _shifted_model(g, c, keep) == want, (render(g), m, c)

    def test_marginalization_check_matches_restriction(self):
        # seed 2 holds a known marginalization failure (ROADMAP item 1),
        # so both verdicts are compared
        verdicts = set()
        for g, m, _ in _suite_instances("marginalization", 2, 500):
            keep = g.node_set - m
            want = _restricted(cm.pairwise_model(g), keep)
            assert _shifted_model(g, frozenset(), keep) == want, (render(g), m)
            ok = check_marginalization(g, m)
            verdicts.add(ok)
            assert ok == cm.models_equal(cm.pairwise_model(cm.marginalize(g, m)), want)
        assert verdicts == {True, False}

    def test_shifted_model_requires_cmg(self):
        with pytest.raises(NotACMGError):
            _shifted_model(G("a -> b; b -- c; c -> a"), frozenset(), frozenset("a"))

    def test_models_keep_their_pinned_digest(self):
        # pairwise_model and _shifted_model on 7-8-node graphs of every
        # class; each conditioning set is rendered sorted, so the digest
        # does not depend on the hash seed
        text = []
        for k in range(42):
            graph_class = ("CG", "CMG", "AnG")[k % 3]
            g = random_graph(
                GeneratorConfig(7 + k % 2, 0.15 + 0.05 * (k % 5), 9000 + k, graph_class)
            )
            rng = random.Random(k)
            roles = [rng.choice((0, 0, 1, 2)) for _ in g.nodes]
            base = frozenset(v for v, r in zip(g.nodes, roles) if r == 1)
            keep = frozenset(v for v, r in zip(g.nodes, roles) if r == 0)
            for model in (cm.pairwise_model(g), _shifted_model(g, base, keep)):
                text.append(f"# {render(g)!r} {sorted(model.ground)}")
                text += [
                    f"{x} {y} | {' '.join(sorted(c))}"
                    for x, y, c in model.sorted_statements()
                ]
        digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
        assert digest == MODELS_DIGEST

    def test_models_label_pairs_in_order(self):
        g = G("d -> b; b -- c; a <-> c; e -> a; e -- d")
        model = cm.pairwise_model(g)
        assert model.statements and all(x < y for x, y, _ in model.statements)
        base, keep = frozenset("c"), frozenset("abe")
        shifted = _shifted_model(g, base, keep)
        assert shifted.ground == keep and all(x < y for x, y, _ in shifted.statements)
        assert shifted == _shifted_model_by_queries(g, base, keep)
        # eight nodes, and kept positions with a gap at e
        g = random_graph(GeneratorConfig(8, 0.3, 13, "CMG"))
        assert g.nodes == tuple("abcdefgh")
        model = cm.pairwise_model(g)
        assert model.statements and all(x < y for x, y, _ in model.statements)
        base, keep = frozenset("e"), frozenset("abcdfgh")
        shifted = _shifted_model(g, base, keep)
        assert shifted.statements and all(x < y for x, y, _ in shifted.statements)
        assert shifted == _shifted_model_by_queries(g, base, keep)

    def test_commutativity_passes_or_skips(self):
        verdict = check_commutativity(G("a -> b; b -- c"), frozenset("b"), frozenset("c"))
        assert verdict in (True, None)


def _combined_composition_by_models(g, m, c, m1, c1):
    """``check_combined_composition`` with both routes' models always enumerated."""
    nested, union = _combined_routes(g, m, c, m1, c1)
    if not cm.models_equal(cm.pairwise_model(nested), cm.pairwise_model(union)):
        return False
    if not (cm.is_maximal(nested) and cm.is_maximal(union)):
        return None
    return nested == union


def _commutativity_by_models(g, m, c):
    """``check_commutativity`` with both orders' models always enumerated."""
    spec = TransformSpec.of(m, c)
    g1 = cm.marginalize_and_condition(g, spec, order="mc")
    g2 = cm.marginalize_and_condition(g, spec, order="cm")
    if not cm.models_equal(cm.pairwise_model(g1), cm.pairwise_model(g2)):
        return False
    return g1 == g2 if cm.is_maximal(g1) else None


class TestEqualRoutes:
    """Routes that give equal graphs share one model and one maximality verdict."""

    def test_agree_with_enumeration_on_the_four_node_sample(self):
        rng = random.Random("equal-routes")
        composed, commuted = set(), set()
        for g in _four_node_sample(300):
            sets = _random_subsets(rng, g.nodes, 4)
            verdict = check_combined_composition(g, *sets)
            assert verdict == _combined_composition_by_models(g, *sets), render(g)
            composed.add(verdict)
            m, c, m1, c1 = sets
            m, c = m | m1, c | c1
            verdict = check_commutativity(g, m, c)
            assert verdict == _commutativity_by_models(g, m, c), render(g)
            commuted.add(verdict)
        assert {True, None} <= composed and {True, None} <= commuted

    def test_agree_with_enumeration_where_routes_differ(self):
        # the pinned discrepancies of test_transform.py, and the first
        # combined-composition failure at seed 6
        none = frozenset()
        for g, m, m1 in (
            (G("f -> b; b -- c; b -- g"), frozenset("f"), frozenset("b")),
            (
                G(
                    "a -- d; a -> e; b -> a; b -> f; c -> a; c -> b; c -> d; d -> e; "
                    "d -> f; a <-> b; a <-> e; a <-> f; b <-> e; c <-> d; d <-> e; "
                    "d <-> f"
                ),
                frozenset("d"),
                frozenset("c"),
            ),
        ):
            sets = (m, none, m1, none)
            nested, union = _combined_routes(g, *sets)
            assert nested != union
            assert check_combined_composition(g, *sets) is False
            assert _combined_composition_by_models(g, *sets) is False
        g = G(
            "a -- d; a -> g; d -> c; e -> b; f -> b; f -> c; "
            "a <-> c; a <-> e; c <-> e; f <-> g"
        )
        m, c = frozenset("ac"), frozenset("ef")
        assert check_commutativity(g, m, c) is _commutativity_by_models(g, m, c) is False

    def test_equal_routes_enumerate_no_model(self, monkeypatch):
        def no_model(g):
            raise AssertionError("a model was enumerated for equal routes")

        monkeypatch.setattr(propcheck, "pairwise_model", no_model)
        g = G("a -> b; b -- c; c <-> d")
        none = frozenset()
        assert check_commutativity(g, frozenset("b"), frozenset("c")) is True
        assert check_combined_composition(g, frozenset("a"), none, none, frozenset("d")) is True


def _model_kept_by_models(g, out, base, keep):
    """The model checks' verdict with both models always enumerated."""
    return cm.models_equal(cm.pairwise_model(out), _shifted_model(g, base, keep))


def _model_checks(g, m, c):
    """(the four checks on ``g``, M and C, their always-enumerating verdicts)."""
    spec = TransformSpec.of(m, c)
    keep = g.node_set - m - c
    got = (
        check_marginalization(g, m),
        check_conditioning(g, c),
        check_combined(g, m, c),
        check_ang(g, m, c),
    )
    ang = cm.ang_transform(g, spec)
    want = (
        _model_kept_by_models(g, cm.marginalize(g, m), frozenset(), g.node_set - m),
        _model_kept_by_models(g, cm.condition(g, c), c, g.node_set - c),
        _model_kept_by_models(g, cm.marginalize_and_condition(g, spec), c, keep),
        cm.ANG in cm.classify(ang) and _model_kept_by_models(g, ang, c, keep),
    )
    return got, want


def _marginalize_returns_its_input(g, m):
    """``marginalize`` broken: the input comes back also for a non-empty M."""
    return g


class TestModelChecks:
    """A rewrite that removed no node and kept its input is decided without enumerating."""

    def test_agree_with_enumeration_on_the_four_node_sample(self):
        rng = random.Random("model-checks")
        kept = 0
        for g in _four_node_sample(300):
            for h in (g, cm.anterialize(g)):  # the second is an AnG, for check_ang
                m, c = _random_subsets(rng, h.nodes, 2)
                got, want = _model_checks(h, m, c)
                assert got == want, (render(h), m, c)
                kept += not (m or c)
        assert kept > 50  # M and C both empty: each check may take the shortcut

    def test_kept_inputs_enumerate_no_model(self, monkeypatch):
        inputs = []
        enumerate_model = propcheck.pairwise_model

        def guarded(h):
            if h == inputs[-1]:
                raise AssertionError("a model was enumerated for a rewrite that kept its input")
            return enumerate_model(h)

        monkeypatch.setattr(propcheck, "pairwise_model", guarded)
        none = frozenset()
        for g in _four_node_sample(100):
            a = cm.anterialize(g)
            inputs.append(g)
            assert check_marginalization(g, none) and check_conditioning(g, none)
            assert check_combined(g, none, none)
            inputs.append(a)
            assert check_ang(a, none, none)
            # a rewrite that removes a node enumerates as before
            v = frozenset(g.nodes[:1])
            assert check_marginalization(a, v) == _model_kept_by_models(a, cm.marginalize(a, v), none, a.node_set - v)

    def test_a_rewrite_that_returns_its_input_still_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(propcheck, "marginalize", _marginalize_returns_its_input)
        report = run_suite("marginalization", seed=0, count=100)
        assert report.instances == 100 and report.failures > 0
        assert report.first_counterexample["error"] == "GroundSetMismatchError"
        assert main(["check", "--suite", "marginalization", "--seed", "0", "--count", "60"]) == 4
        out = capsys.readouterr().out
        assert out.startswith("property=marginalization instances=60 ")
        assert '"error": "GroundSetMismatchError"' in out


    def test_an_output_that_is_no_ang_fails(self, monkeypatch):
        # with arc resolution a no-op, ang_transform keeps arcs between
        # mutually anterior nodes: a CMG, but no AnG
        monkeypatch.setattr(cm.transform, "_ang_resolve_arcs", _resolve_no_arcs)
        report = run_suite("ang", seed=0, count=60)
        assert report.instances == 60 and report.failures > 0
        ce = report.first_counterexample
        assert "error" not in ce
        out = cm.ang_transform(G(ce["graph"]), TransformSpec.of(ce["m"], ce["c"]))
        assert cm.CMG in cm.classify(out) and cm.ANG not in cm.classify(out)

    def test_an_output_that_is_no_cmg_fails(self, monkeypatch):
        # the output's own CMG verdict decides, before any model is enumerated,
        # so the failure is a wrong output, not a NotACMGError
        monkeypatch.setattr(propcheck, "condition", _condition_with_a_two_cycle)
        report = run_suite("conditioning", seed=0, count=60)
        assert report.instances == 60 and report.failures > 0
        ce = report.first_counterexample
        assert set(ce) == {"graph", "set0"}
        assert not _condition_with_a_two_cycle(G(ce["graph"]), ce["set0"]).is_cmg


def _condition_with_a_two_cycle(g, c):
    """``condition`` broken: ``x -> y`` beside ``y -> x`` over the first two kept nodes."""
    out = cm.condition(g, c)
    if len(out.nodes) < 2:
        return out
    x, y = out.nodes[:2]
    return cm.build_graph(out.nodes, [(x, y, cm.ARROW), (y, x, cm.ARROW), *triples(out)])


def _resolve_no_arcs(w, ant):
    """``_ang_resolve_arcs`` broken: no arc is resolved."""


def _resolve_mutual_arcs_to_arrows(w, ant):
    """``_ang_resolve_arcs`` broken: an arc between two mutually anterior
    nodes becomes an arrow, not a line, so ``anterialize`` emits a graph
    with a semi-directed cycle."""
    pa, ch, sp = w.pa, w.ch, w.sp
    for v in range(len(sp)):
        back = sp[v] & ant[v]
        sp[v] ^= back
        pa[v] |= back
        for x in _bits(back):
            sp[x] ^= 1 << v
            ch[x] |= 1 << v


class TestErrorsAreFailures:
    """A ``CmgraphError`` raised on an instance is a failure, and the run goes on."""

    def test_resolve_mutant_gives_a_shrunk_ang_failure(self, monkeypatch):
        monkeypatch.setattr(cm.transform, "_ang_resolve_arcs", _resolve_mutual_arcs_to_arrows)
        report = run_suite("ang", seed=0, count=500)
        assert report.instances == 500 and report.failures > 0
        ce = report.first_counterexample
        assert ce["error"] == "NotACMGError"
        assert len(G(ce["graph"]).nodes) <= 3

    def test_cli_reports_and_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cm.transform, "_ang_resolve_arcs", _resolve_mutual_arcs_to_arrows)
        assert main(["check", "--suite", "ang", "--seed", "0", "--count", "60"]) == 4
        out = capsys.readouterr().out
        assert out.startswith("property=ang instances=60 ") and '"error": "NotACMGError"' in out


# the payload keys of each row's failure, before ``models_equal`` and ``error``
ROW_KEYS = {
    "marginalization": {"set0"},
    "conditioning": {"set0"},
    "combined": {"m", "c"},
    "ang": {"m", "c"},
    "marginal-composition": {"s1", "s2"},
    "conditional-composition": {"s1", "s2"},
    "combined-composition": {"m", "c", "m1", "c1"},
    "commutativity": {"m", "c"},
    "closure": {"set0", "set1"},
    "identity": set(),
    "classes": {"set0", "set1"},
    "marginal-edge-oracle": {"set0"},
    "conditional-edge-oracle": {"set0"},
    "inducing-walk-oracle": set(),
    "witness-soundness": set(),
}
ROUTE_SUITES = {"marginal-composition", "conditional-composition", "combined-composition", "commutativity"}
DRAWN_SUITES = {"combined", "ang", "combined-composition", "commutativity"}


def _fail_always(g, *sets):
    return False


def _raise_always(g, *sets):
    raise NotACMGError("raised by the test")


class TestSuiteRows:
    """Every property is one ``Suite`` row, run through ``Suite.run``."""

    @pytest.mark.parametrize("check", [_fail_always, _raise_always])
    def test_payload_keys(self, monkeypatch, check):
        rows = _suites()
        assert set(rows) == set(ROW_KEYS) == set(SUITE_IDS) - {"cg-unrepresentability"}
        for row in rows.values():
            row.check = check
        monkeypatch.setattr(propcheck, "_suites", lambda: rows)
        raised = check is _raise_always
        for suite_id, keys in ROW_KEYS.items():
            report = run_suite(suite_id, seed=0, count=1)
            assert (report.instances, report.failures, report.skipped) == (1, 1, 0)
            ce = report.first_counterexample
            want = {"graph"} | keys
            if raised:
                assert ce.pop("error") == "NotACMGError"
            elif suite_id in ROUTE_SUITES:
                assert isinstance(ce.pop("models_equal"), bool)
            assert set(ce) == want, suite_id
            # every failure shrinks to two nodes but those reported as drawn
            shrunk = raised or suite_id not in DRAWN_SUITES
            assert (len(G(ce["graph"]).nodes) == 2) == shrunk, suite_id

    def test_a_check_that_returns_none_is_skipped(self, monkeypatch):
        rows = _suites()
        rows["closure"].check = lambda g, m, c: None
        monkeypatch.setattr(propcheck, "_suites", lambda: rows)
        report = run_suite("closure", seed=0, count=9)
        assert (report.instances, report.failures, report.skipped) == (9, 0, 9)

    def test_run_suite_calls_each_run_attribute_once_per_instance(self, monkeypatch):
        # the benchmark's harness workload stamps each instance by
        # replacing every row's run attribute, as here
        calls = {}
        original = propcheck._suites

        def stamped_suites():
            suites = original()
            for suite in suites.values():

                def run(*args, _run=suite.run, _id=suite.property_id):
                    _run(*args)
                    calls[_id] = calls.get(_id, 0) + 1

                suite.run = run
            return suites

        monkeypatch.setattr(propcheck, "_suites", stamped_suites)
        for suite_id in ROW_KEYS:
            report = run_suite(suite_id, seed=0, count=7)
            assert calls[suite_id] == report.instances == 7
        assert set(calls) == set(ROW_KEYS)


class TestIndependenceModel:
    """The mask-keyed model against the reference decoder."""

    @staticmethod
    def _instances(count):
        """(graph, base, keep) on 2-8 nodes of every class."""
        rng = random.Random(21)
        for k in range(count):
            graph_class = ("CG", "CMG", "AnG")[k % 3]
            g = random_graph(
                GeneratorConfig(rng.randint(2, 8), rng.uniform(0.1, 0.7), k, graph_class)
            )
            roles = [rng.choice((0, 0, 1, 2)) for _ in g.nodes]
            base = frozenset(v for v, r in zip(g.nodes, roles) if r == 1)
            keep = frozenset(v for v, r in zip(g.nodes, roles) if r == 0)
            yield g, base, keep

    @staticmethod
    def _reference(g, base, keep):
        index, ln, pa, ch, sp, table = g.index, g.ln, g.pa, g.ch, g.sp, g.components
        keep_mask = mask_of(index, keep)
        found = kernel.pair_separations(
            len(g.nodes), table, ln, pa, ch, sp, keep_mask, mask_of(index, base)
        )
        return labelled_statements(g.nodes, keep_mask, found)

    def test_models_match_the_reference_decoder(self):
        rng = random.Random(5)
        for g, base, keep in self._instances(300):
            full = self._reference(g, frozenset(), g.node_set)
            shifted = self._reference(g, base, keep)
            for model, want in (
                (cm.pairwise_model(g), full),
                (_shifted_model(g, base, keep), shifted),
            ):
                got = model.statements
                assert len(got) == len(want), render(g)
                assert set(got) == want and frozenset(got) == want
                assert got == want and want == got and not got != want
                assert hash(got) == hash(want)
                assert all(s in got for s in want)
                # statements the model lacks: each true one with its pair
                # swapped, and sets from the complement
                for x, y, c in list(want)[:20]:
                    assert (y, x, c) not in got
                ground = sorted(model.ground)
                for _ in range(20 if len(ground) > 1 else 0):
                    x, y, *rest = rng.sample(ground, len(ground))
                    x, y = sorted((x, y))
                    c = frozenset(rest[: rng.randint(0, len(rest))])
                    assert ((x, y, c) in got) == ((x, y, c) in want)
                # the public constructor encodes the same masks
                built = cm.IndependenceModel(model.ground, want)
                assert built == model and hash(built) == hash(model)
                assert cm.models_equal(built, model)
                assert built.sorted_statements() == model.sorted_statements()

    @pytest.mark.parametrize(
        "stmt",
        [
            ("a", "c"),
            ("a", "c", "b"),
            ("a", "c", ["b"]),
            ["a", "c", frozenset("b")],
            ("c", "a", frozenset("b")),
            ("a", "z", frozenset("b")),
            ("a", "c", frozenset("z")),
            ("a", "c", frozenset("ab")),
            ("a", "a", frozenset()),
            ([], "c", frozenset()),
            None,
            "acb",
        ],
    )
    def test_malformed_statements_are_absent(self, stmt):
        model = cm.pairwise_model(G("a -> b; b -> c"))
        assert ("a", "c", frozenset("b")) in model.statements
        assert ("a", "c", {"b"}) in model.statements
        assert stmt not in model.statements

    def test_constructor_rejects_statements_outside_the_ground(self):
        for stmt in [("a", "z", frozenset()), ("a", "a", frozenset()), ("a", "b", "a")]:
            with pytest.raises(MalformedQueryError):
                cm.IndependenceModel(frozenset("ab"), [stmt])

    def test_models_are_immutable_values(self):
        model = cm.pairwise_model(G("a -> b; b -> c"))
        with pytest.raises(AttributeError):
            model.masks = ()
        with pytest.raises(AttributeError):
            del model.ground
        assert pickle.loads(pickle.dumps(model)) == model
        assert {model: 1}[cm.IndependenceModel("abc", model.statements)] == 1


class TestUnrepresentability:
    def test_default_dag_marginal_model_matches_no_cg(self):
        g, m = default_unrepresentable_dag()
        assert cm.DAG in cm.classify(g)
        marginal = cm.pairwise_model(cm.marginalize(g, m))
        assert find_cg_matching_model(marginal) is None

    def test_identity_case_finds_the_cg_itself(self):
        g = G("a -> b; b -- c; nodes: a b c d")
        found = find_cg_matching_model(cm.pairwise_model(g))
        assert found is not None
        assert cm.models_equal(cm.pairwise_model(found), cm.pairwise_model(g))

    def test_skeleton_search_matches_plain_enumeration(self):
        labels = ("a", "b", "c")
        cgs = [(c, cm.pairwise_model(c)) for c in enumerate_cgs(labels)]
        for g in enumerate_cgs(labels):
            model = cm.pairwise_model(g)
            plain = next(c for c, own in cgs if cm.models_equal(own, model))
            assert find_cg_matching_model(model) == plain

    def test_demo_report(self):
        report = cg_unrepresentability_demo()
        assert report.failures == 0

    def test_demo_reports_a_projection_that_loses_the_marginal_model(self, monkeypatch):
        # the demo checks its one DAG: a wrong projection of it is a failure,
        # not a reason to look for another witness
        def drop_edges(g, m):
            return cm.build_graph(sorted(g.node_set - m), [])

        monkeypatch.setattr(propcheck, "marginalize", drop_edges)
        report = cg_unrepresentability_demo()
        assert (report.instances, report.failures) == (1, 1)
        assert report.first_counterexample == {
            "detail": "the projection does not induce the marginal model"
        }
