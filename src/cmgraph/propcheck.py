"""Seeded graph generation and an executable property harness.

Every structural claim the transforms rely on is checked here on random
instances: model preservation under marginalization, conditioning, their
combination and the anterial pipeline; composition and commutativity of
the transforms; closure of the graph classes; membership of transform
images in their characterizing classes; and agreement of the edge
oracles with the rule engines.  Each suite emits one line-delimited
:class:`PropertyReport` with a shrunk counterexample payload on failure.

Report line schema (one line per property)::

    property=<id> instances=<n> failures=<k> skipped=<s> counterexample=<json|none>
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from numbers import Real
from typing import Callable, Optional

from . import graphio, kernel
from .errors import CmgraphError, InvalidConfigError
from .graph import (
    ANG,
    ARROW,
    CG,
    CMG,
    LINE,
    MixedGraph,
    anteriors,
    build_graph,
    classify,
    mask_of,
)
from .separation import (
    IndependenceModel,
    _require_cmg,
    is_maximal,
    kernel_model,
    models_equal,
    non_maximality_witness,
    pairwise_model,
)
from .transform import (
    TransformSpec,
    _marginal_edge,
    _marginal_flank_work,
    ang_transform,
    anterialize,
    condition,
    conditional_edge_oracle,
    in_ang_projection_class,
    in_cg_projection_class,
    marginalize,
    marginalize_and_condition,
    subprimitive_walk_exists,
)
from .walks import is_c_connecting

GRAPH_CLASSES = ("CG", "CMG", "AnG")
_LABELS = "abcdefgh"


@dataclass(frozen=True)
class GeneratorConfig:
    node_count: int
    edge_density: float
    seed: int
    graph_class: str = "CMG"


def random_graph(cfg: GeneratorConfig) -> MixedGraph:
    """Deterministic random graph of the requested class.

    Chain-graph mode samples an ordered partition into chain components,
    lines inside components, and arrows pointing from higher-numbered
    components to lower ones.  CMG mode adds arcs on top (arcs can never
    close a semi-directed cycle); AnG mode anterializes a CMG sample.

    The draws are, in order: a shuffle of the node positions, one per
    partition step, one per pair of a component (a line), one per pair
    of components' nodes (an arrow), then one per pair of nodes (an arc).
    Each drawn edge goes straight into the masks over the first
    ``node_count`` labels, which are in sorted order, so position, bit
    and label order agree and no labelled edge is built.
    """
    n, density = cfg.node_count, cfg.edge_density
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidConfigError(f"node_count must be an int, got {n!r}")
    if not isinstance(density, Real) or isinstance(density, bool):
        raise InvalidConfigError(f"edge_density must be a real number, got {density!r}")
    if not 2 <= n <= len(_LABELS):
        raise InvalidConfigError(f"node_count must be in 2..{len(_LABELS)}")
    if not 0.0 <= density <= 1.0:
        raise InvalidConfigError("edge_density must be in [0, 1]")
    if cfg.graph_class not in GRAPH_CLASSES:
        raise InvalidConfigError(f"graph_class must be one of {GRAPH_CLASSES}")
    rng = random.Random(cfg.seed)
    draw = rng.random
    order = list(range(n))
    rng.shuffle(order)
    blocks: list[list[int]] = [[order[0]]]
    for v in order[1:]:
        if draw() < 0.5:
            blocks.append([v])
        else:
            blocks[-1].append(v)
    ln, pa, ch, sp = [0] * n, [0] * n, [0] * n, [0] * n
    for block in blocks:
        for x, y in combinations(block, 2):
            if draw() < density:
                ln[x] |= 1 << y
                ln[y] |= 1 << x
    for lo_idx, hi_idx in combinations(range(len(blocks)), 2):
        for tail in blocks[hi_idx]:
            for head in blocks[lo_idx]:
                if draw() < density:
                    pa[head] |= 1 << tail
                    ch[tail] |= 1 << head
    if cfg.graph_class != "CG":
        for x, y in combinations(range(n), 2):
            if draw() < density:
                sp[x] |= 1 << y
                sp[y] |= 1 << x
    g = MixedGraph(tuple(_LABELS[:n]), tuple(ln), tuple(pa), tuple(ch), tuple(sp))
    if cfg.graph_class == "AnG":
        return anterialize(g)
    return g


def enumerate_cgs(labels: tuple[str, ...]):
    """Every chain graph over the labels (4 states per pair, acyclic only)."""
    return _cgs_over(labels, list(combinations(sorted(labels), 2)), range(4))


def _cgs_over(labels, pairs, states):
    """Chain graphs whose pairs each take one of ``states``, others empty.

    States are 0 (no edge), 1 (line), 2 (x -> y) and 3 (y -> x) for a
    pair (x, y); graphs come in the order of ``product`` over ``pairs``.
    """
    for choice in product(states, repeat=len(pairs)):
        edges = []
        for state, (x, y) in zip(choice, pairs):
            if state == 1:
                edges.append((x, y, LINE))
            elif state == 2:
                edges.append((x, y, ARROW))
            elif state == 3:
                edges.append((y, x, ARROW))
        g = build_graph(labels, edges)
        if CG in classify(g):
            yield g


# -- reports and shrinking ---------------------------------------------------


@dataclass
class PropertyReport:
    property_id: str
    instances: int = 0
    failures: int = 0
    skipped: int = 0
    first_counterexample: Optional[dict] = None

    def record(self, ok: bool, payload: Callable[[], dict] | None = None) -> None:
        self.instances += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None and payload is not None:
                self.first_counterexample = payload()

    def line(self) -> str:
        ce = (
            "none"
            if self.first_counterexample is None
            else json.dumps(self.first_counterexample, sort_keys=True)
        )
        return (
            f"property={self.property_id} instances={self.instances} "
            f"failures={self.failures} skipped={self.skipped} counterexample={ce}"
        )


def _render(g: MixedGraph) -> str:
    return "; ".join(graphio.render(g).splitlines())


def _payload(g: MixedGraph, **sets) -> dict:
    out = {"graph": _render(g)}
    for key, val in sets.items():
        out[key] = sorted(val) if isinstance(val, (set, frozenset)) else val
    return out


def shrink_instance(
    g: MixedGraph,
    sets: dict[str, frozenset[str]],
    fails: Callable[[MixedGraph, dict[str, frozenset[str]]], bool],
) -> tuple[MixedGraph, dict[str, frozenset[str]]]:
    """Greedy node-deletion shrink keeping the failure alive."""
    changed = True
    while changed and len(g.nodes) > 2:
        changed = False
        for v in g.nodes:
            cand = g.induced_subgraph(set(g.nodes) - {v})
            cand_sets = {k: s - {v} for k, s in sets.items()}
            try:
                if fails(cand, cand_sets):
                    g, sets = cand, cand_sets
                    changed = True
                    break
            except Exception:
                continue
    return g, sets


def _shifted_model(g: MixedGraph, base: frozenset[str], keep: frozenset[str]):
    """Statements (i, j, C1) with i, j, C1 over ``keep``, separated given base|C1.

    With an empty ``base`` this is the model of ``g`` restricted to
    ``keep``.  One ``kernel.pair_separations`` call shares each
    conditioning set's search among all pairs, as ``pairwise_model`` does
    for the full model.  The tests check it against one ``kernel.separated``
    query per statement (``_shifted_model_by_queries``) and against
    ``c_separated``.
    """
    _require_cmg(g)
    index = g.index
    keep_mask = mask_of(index, keep)
    found = kernel.pair_separations(
        len(g.nodes), g.components, g.ln, g.pa, g.ch, g.sp, keep_mask, mask_of(index, base)
    )
    return kernel_model(g.nodes, keep_mask, found)


# -- single-instance checks --------------------------------------------------


def _model_kept(
    g: MixedGraph, out: MixedGraph, base: frozenset[str], keep: frozenset[str]
) -> bool:
    """The model of the rewrite ``out`` of ``g`` equals ``g``'s over ``keep`` given ``base``.

    A rewrite that removed no node (``keep`` is all of ``g``, so ``base``
    is empty) and gave a graph equal to ``g`` is decided without
    enumerating: both sides would be the one full model of equal graphs.
    The test reads the sets and graph equality, not ``out is g``, so a
    rewrite that wrongly returns its input for a non-empty set still
    reaches :func:`models_equal`, whose :class:`GroundSetMismatchError`
    :func:`run_suite` records as a failure.
    """
    if keep == g.node_set and out == g:
        return True
    return models_equal(pairwise_model(out), _shifted_model(g, base, keep))


def check_marginalization(g: MixedGraph, m: frozenset[str]) -> bool:
    """Model of the projection equals the restriction of the model."""
    return _model_kept(g, marginalize(g, m), frozenset(), g.node_set - m)


def check_conditioning(g: MixedGraph, c: frozenset[str]) -> bool:
    """Model of the conditioned graph equals the shifted model."""
    return _model_kept(g, condition(g, c), c, g.node_set - c)


def check_combined(g: MixedGraph, spec: TransformSpec) -> bool:
    out = marginalize_and_condition(g, spec)
    return _model_kept(g, out, spec.c, g.node_set - spec.m - spec.c)


def check_ang(g: MixedGraph, spec: TransformSpec) -> bool:
    out = ang_transform(g, spec)
    return _model_kept(g, out, spec.c, g.node_set - spec.m - spec.c)


def check_marginal_composition(
    g: MixedGraph, m: frozenset[str], m1: frozenset[str]
) -> bool:
    return marginalize(marginalize(g, m), m1) == marginalize(g, m | m1)


def check_conditional_composition(
    g: MixedGraph, c: frozenset[str], c1: frozenset[str]
) -> bool:
    return condition(condition(g, c), c1) == condition(g, c | c1)


def _combined_routes(
    g: MixedGraph, spec: TransformSpec, spec1: TransformSpec
) -> tuple[MixedGraph, MixedGraph]:
    """(spec then spec1, the union of both specs in one step)."""
    nested = marginalize_and_condition(
        marginalize_and_condition(g, spec), spec1
    )
    union = marginalize_and_condition(
        g, TransformSpec.of(spec.m | spec1.m, spec.c | spec1.c)
    )
    return nested, union


def check_combined_composition(
    g: MixedGraph, spec: TransformSpec, spec1: TransformSpec
) -> Optional[bool]:
    """Graph equality under the maximality side condition; None = skipped.

    Model equality has no side condition and is always enforced: equal
    routes decide it, since one graph has one model, and the models of
    routes that differ are enumerated.
    """
    nested, union = _combined_routes(g, spec, spec1)
    same = nested == union
    if not (same or models_equal(pairwise_model(nested), pairwise_model(union))):
        return False
    if not (is_maximal(nested) and (same or is_maximal(union))):
        return None
    return same


def check_commutativity(
    g: MixedGraph, m: frozenset[str], c: frozenset[str]
) -> tuple[bool, Optional[bool]]:
    """(models equal, graphs equal when marginalize-first is maximal).

    Equal orders have one model, so only orders that differ have their
    models enumerated.
    """
    spec = TransformSpec.of(m, c)
    g1 = marginalize_and_condition(g, spec, order="mc")
    g2 = marginalize_and_condition(g, spec, order="cm")
    same = g1 == g2
    models_ok = same or models_equal(pairwise_model(g1), pairwise_model(g2))
    graphs_ok: Optional[bool] = None
    if is_maximal(g1):
        graphs_ok = same
    return models_ok, graphs_ok


def check_closure(g: MixedGraph, m: frozenset[str], c: frozenset[str]) -> bool:
    if CMG not in classify(marginalize(g, m)):
        return False
    conditioned = condition(g, c)
    if CMG not in classify(conditioned):
        return False
    if CG in classify(g) and CG not in classify(conditioned):
        return False
    closed = anterialize(g)
    return ANG in classify(closed) and closed.is_simple


def check_identity(g: MixedGraph) -> bool:
    empty: frozenset[str] = frozenset()
    if marginalize(g, empty) != g or condition(g, empty) != g:
        return False
    if ANG in classify(g) and anterialize(g) != g:
        return False
    return True


def check_class_membership(
    cg: MixedGraph, m: frozenset[str], c: frozenset[str]
) -> bool:
    if not in_cg_projection_class(marginalize(cg, m)):
        return False
    return in_ang_projection_class(ang_transform(cg, TransformSpec.of(m, c)))


def check_marginal_edges(g: MixedGraph, m: frozenset[str]) -> bool:
    h = marginalize(g, m)
    w, mmask = _marginal_flank_work(g, m)  # once for every pair
    for i, j in combinations(sorted(g.node_set - m), 2):
        if _marginal_edge(w, mmask, i, j) != h.adjacent(i, j):
            return False
    return True


def check_conditional_edges(g: MixedGraph, c: frozenset[str]) -> bool:
    h = condition(g, c)
    for i, j in combinations(sorted(g.node_set - c), 2):
        if conditional_edge_oracle(g, c, i, j) != h.adjacent(i, j):
            return False
    return True


def check_inducing_walks(g: MixedGraph) -> bool:
    h = anterialize(g)
    for i, j in combinations(sorted(g.node_set), 2):
        oracle = subprimitive_walk_exists(g, i, j) or subprimitive_walk_exists(g, j, i)
        if oracle != h.adjacent(i, j):
            return False
    return True


def inseparable_pairs(g: MixedGraph) -> list[tuple[str, str]]:
    """Non-adjacent pairs that no set separates, by ``kernel.exists_separator``."""
    index, table, ln, pa, ch, sp = g.index, g.components, g.ln, g.pa, g.ch, g.sp
    n = len(g.nodes)
    return [
        (x, y)
        for x, y in combinations(g.nodes, 2)
        if not g.adjacent(x, y)
        and kernel.exists_separator(n, table, ln, pa, ch, sp, index[x], index[y]) < 0
    ]


def check_witness_soundness(g: MixedGraph) -> bool:
    """A witness exists iff the enumeration finds an inseparable pair.

    Not checked against ``is_maximal``, which shares the witness's
    search.  The witness's pair must be one of those, and its walk must
    lie in ``g`` and c-connect the pair given ``ant({i, j}) \\ {i, j}``.
    """
    reference = inseparable_pairs(g)
    witness = non_maximality_witness(g)
    if witness is None or not reference:
        return witness is None and not reference
    x, y = witness.endpoints
    return (
        (x, y) in reference  # non-adjacent, and no set separates them
        and witness.walk.exists_in(g)
        and is_c_connecting(witness.walk, {x}, {y}, anteriors(g, {x, y}))
    )


# -- suite driver -------------------------------------------------------------


def _random_subsets(rng: random.Random, names, count, allow_empty=True):
    pool = list(names)
    rng.shuffle(pool)
    sizes = []
    remaining = len(pool) - 2  # keep at least two survivors
    for _ in range(count):
        lo = 0 if allow_empty else 1
        size = rng.randint(lo, max(lo, min(2, remaining)))
        remaining -= size
        sizes.append(size)
    sets = []
    idx = 0
    for size in sizes:
        sets.append(frozenset(pool[idx : idx + size]))
        idx += size
    return sets


def _instance(
    rng: random.Random, graph_class: str, max_nodes: int
) -> MixedGraph:
    cfg = GeneratorConfig(
        node_count=rng.randint(3, max_nodes),
        edge_density=rng.uniform(0.15, 0.55),
        seed=rng.getrandbits(48),
        graph_class=graph_class,
    )
    return random_graph(cfg)


@dataclass
class Suite:
    property_id: str
    graph_class: str
    set_count: int
    run: Callable  # (report, graph, sets, rng) -> None
    node_cap: Optional[int] = None  # suites with costly per-instance checks


def _simple_suite(check, *, id, graph_class="CMG", set_count=1, node_cap=None):
    def run(report: PropertyReport, g: MixedGraph, sets, rng) -> None:
        ok = check(g, *sets)
        def payload():
            shrunk_g, shrunk = shrink_instance(
                g,
                {f"set{k}": s for k, s in enumerate(sets)},
                lambda gg, ss: not check(gg, *(ss[f"set{k}"] for k in range(len(sets)))),
            )
            return _payload(shrunk_g, **shrunk)
        report.record(ok, payload)

    return Suite(id, graph_class, set_count, run, node_cap)


def _composition_suite(property_id: str, transform, check):
    """Graph-equality composition check with a model-equality diagnostic.

    The diagnostic distinguishes a genuine engine bug (models differ,
    never expected) from the documented corner where the union route
    keeps a parallel arc whose arrowhead source the split route deleted
    silently: there the graphs differ while the models agree.
    """

    def run(report: PropertyReport, g: MixedGraph, sets, rng) -> None:
        s1, s2 = sets
        ok = check(g, s1, s2)

        def payload():
            def fails(gg, ss):
                return not check(gg, ss["s1"], ss["s2"])

            sg, ss = shrink_instance(g, {"s1": s1, "s2": s2}, fails)
            split = transform(transform(sg, ss["s1"]), ss["s2"])
            union = transform(sg, ss["s1"] | ss["s2"])
            out = _payload(sg, **ss)
            out["models_equal"] = models_equal(
                pairwise_model(split), pairwise_model(union)
            )
            return out

        report.record(ok, payload)

    return Suite(property_id, "CMG", 2, run)


def _commutativity_suite():
    def run(report: PropertyReport, g: MixedGraph, sets, rng) -> None:
        m, c = sets
        models_ok, graphs_ok = check_commutativity(g, m, c)
        if graphs_ok is None:
            report.skipped += 1
        ok = models_ok and graphs_ok is not False

        def payload():
            out = _payload(g, m=m, c=c)
            out["models_equal"] = models_ok
            return out

        report.record(ok, payload)

    return Suite("commutativity", "CMG", 2, run)


def _combined_composition_suite():
    def run(report: PropertyReport, g: MixedGraph, sets, rng) -> None:
        m, c, m1, c1 = sets
        spec, spec1 = TransformSpec.of(m, c), TransformSpec.of(m1, c1)
        verdict = check_combined_composition(g, spec, spec1)
        if verdict is None:
            report.skipped += 1

        def payload():
            nested, union = _combined_routes(g, spec, spec1)
            out = _payload(g, m=m, c=c, m1=m1, c1=c1)
            out["models_equal"] = models_equal(
                pairwise_model(nested), pairwise_model(union)
            )
            return out

        report.record(verdict is not False, payload)

    return Suite("combined-composition", "CMG", 4, run)


def _suites() -> dict[str, Suite]:
    suites = [
        _simple_suite(check_marginalization, id="marginalization", set_count=1),
        _simple_suite(check_conditioning, id="conditioning", set_count=1),
        Suite(
            "combined",
            "CMG",
            2,
            lambda rep, g, sets, rng: rep.record(
                check_combined(g, TransformSpec.of(*sets)),
                lambda: _payload(g, m=sets[0], c=sets[1]),
            ),
        ),
        Suite(
            "ang",
            "AnG",
            2,
            lambda rep, g, sets, rng: rep.record(
                check_ang(g, TransformSpec.of(*sets)),
                lambda: _payload(g, m=sets[0], c=sets[1]),
            ),
        ),
        _composition_suite(
            "marginal-composition", marginalize, check_marginal_composition
        ),
        _composition_suite(
            "conditional-composition", condition, check_conditional_composition
        ),
        _combined_composition_suite(),
        _commutativity_suite(),
        _simple_suite(check_closure, id="closure", set_count=2),
        _simple_suite(check_identity, id="identity", set_count=0),
        _simple_suite(
            check_class_membership, id="classes", graph_class="CG", set_count=2
        ),
        _simple_suite(check_marginal_edges, id="marginal-edge-oracle", set_count=1),
        _simple_suite(
            check_conditional_edges, id="conditional-edge-oracle", set_count=1
        ),
        _simple_suite(check_inducing_walks, id="inducing-walk-oracle", set_count=0),
        _simple_suite(
            check_witness_soundness, id="witness-soundness", set_count=0, node_cap=6
        ),
    ]
    return {s.property_id: s for s in suites}


SUITE_IDS = tuple(_suites().keys()) + ("cg-unrepresentability",)


def _raised(suite: Suite, g: MixedGraph, sets: tuple) -> Optional[str]:
    """The class name of the ``CmgraphError`` that the suite raises on the instance, or None.

    The suite runs on a report and a ``random.Random`` of its own, so
    that no later instance's draws change.
    """
    try:
        suite.run(PropertyReport(suite.property_id), g, sets, random.Random(0))
    except CmgraphError as exc:
        return type(exc).__name__
    return None


def _error_payload(suite: Suite, g: MixedGraph, sets: tuple) -> dict:
    """The instance shrunk while the suite still raises, and the error it raises."""
    keys = [f"set{k}" for k in range(len(sets))]

    def raised(gg, named):
        return _raised(suite, gg, tuple(named[key] for key in keys))

    sg, named = shrink_instance(g, dict(zip(keys, sets)), lambda gg, ss: raised(gg, ss) is not None)
    out = _payload(sg, **named)
    out["error"] = raised(sg, named)
    return out


def run_suite(
    suite_id: str, *, seed: int = 0, count: int = 500, max_nodes: int = 7
) -> PropertyReport:
    """Run one named suite over ``count`` seeded instances of 3 to ``max_nodes`` nodes.

    A ``CmgraphError`` that a check raises on an instance is a failure of
    that instance, and the run goes on.  The generator's instances are
    valid inputs unless a rewrite it uses is broken (AnG mode runs
    :func:`anterialize`), so the error points at a rewrite, not at the
    instance.  The payload names the error's class.
    """
    if count < 0:
        raise InvalidConfigError(f"count must be non-negative, got {count}")
    if not 3 <= max_nodes <= len(_LABELS):
        raise InvalidConfigError(f"max_nodes must be in 3..{len(_LABELS)}, got {max_nodes}")
    if suite_id == "cg-unrepresentability":
        return cg_unrepresentability_demo()
    suite = _suites().get(suite_id)
    if suite is None:
        raise InvalidConfigError(
            f"unknown suite {suite_id!r}; expected one of {', '.join(SUITE_IDS)}"
        )
    report = PropertyReport(suite.property_id)
    rng = random.Random(seed)
    cap = max_nodes if suite.node_cap is None else min(max_nodes, suite.node_cap)
    for _ in range(count):
        g = _instance(rng, suite.graph_class, cap)
        sets = tuple(_random_subsets(rng, g.nodes, suite.set_count))
        try:
            suite.run(report, g, sets, rng)
        except CmgraphError:
            report.record(False, lambda: _error_payload(suite, g, sets))
    return report


def run_all(*, seed: int = 0, count: int = 500, max_nodes: int = 7):
    reports = [
        run_suite(sid, seed=seed, count=count, max_nodes=max_nodes)
        for sid in SUITE_IDS
        if sid != "cg-unrepresentability"
    ]
    reports.append(cg_unrepresentability_demo())
    return reports


# -- the chain-graph non-closure demonstration --------------------------------


def default_unrepresentable_dag() -> tuple[MixedGraph, frozenset[str]]:
    """DAG whose marginal model no chain graph on the survivors matches."""
    g = build_graph(
        "abcdm",
        [("c", "a", ARROW), ("d", "b", ARROW), ("m", "a", ARROW), ("m", "b", ARROW)],
    )
    return g, frozenset("m")


def find_cg_matching_model(model: IndependenceModel) -> Optional[MixedGraph]:
    """Exhaustively search labelled chain graphs for one with this model.

    Every chain graph is maximal, so one with this model is adjacent on
    exactly the pairs that no statement separates; only their edge states
    are searched, in the order of :func:`enumerate_cgs`.
    """
    labels = model.labels
    pairs = combinations(labels, 2)  # in the order of model.masks
    skeleton = [p for p, sep in zip(pairs, model.masks) if not sep]
    for candidate in _cgs_over(labels, skeleton, (1, 2, 3)):
        if models_equal(pairwise_model(candidate), model):
            return candidate
    return None


def cg_unrepresentability_demo() -> PropertyReport:
    """Show chain graphs are not closed under marginalization.

    Marginalizes one node out of a five-node DAG and verifies by
    exhaustive enumeration that no labelled chain graph on the four
    survivors induces the same model.  The projection of the DAG must
    induce that model itself, or the demo fails.
    """
    report = PropertyReport("cg-unrepresentability")
    g, m = default_unrepresentable_dag()
    marginal = _shifted_model(g, frozenset(), g.node_set - m)
    if not models_equal(pairwise_model(marginalize(g, m)), marginal):
        report.record(False, lambda: {"detail": "the projection does not induce the marginal model"})
    elif find_cg_matching_model(marginal) is not None:
        report.record(False, lambda: {"detail": "a chain graph induces the marginal model"})
    else:
        report.record(True)
    return report
