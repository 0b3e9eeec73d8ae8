"""Seeded graph generation and an executable property harness.

Every structural claim the transforms rely on is checked here on random
instances: model preservation under marginalization, conditioning, their
combination and the anterial pipeline; composition and commutativity of
the transforms; closure of the graph classes; membership of transform
images in their characterizing classes; and agreement of the edge
oracles with the rule engines.  Each property is one :class:`Suite`
row, and each suite emits one line-delimited :class:`PropertyReport`
with the first counterexample's payload on failure.

A payload renders the graph and names the sets by the suite's keys.
Suites with ``shrink`` set report the instance shrunk by node deletion
while the check still fails; ``combined``, ``ang``,
``combined-composition`` and ``commutativity`` report it as drawn.  The
four suites that compare two routes (the three compositions and
``commutativity``) add ``models_equal``, the models of the two routes
compared on the reported instance.  ``skipped`` counts instances whose
check returned None: those where a maximality side condition of a
graph-equality law does not hold.  A ``CmgraphError`` raised by a check
is a failure whose payload is shrunk while the check still raises,
names its sets as the failure payload does, and adds ``error``, the
exception's class name.

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

    An output that is no CMG fails first, on its own cached verdict,
    the one :func:`pairwise_model` would read next: it is a wrong output,
    not an error of the check.  A rewrite that removed no node (``keep``
    is all of ``g``, so ``base`` is empty) and gave a graph equal to ``g``
    is decided without enumerating: both sides would be the one full
    model of equal graphs.
    The test reads the sets and graph equality, not ``out is g``, so a
    rewrite that wrongly returns its input for a non-empty set still
    reaches :func:`models_equal`, whose :class:`GroundSetMismatchError`
    :func:`run_suite` records as a failure.
    """
    if not out.is_cmg:
        return False
    if keep == g.node_set and out == g:
        return True
    return models_equal(pairwise_model(out), _shifted_model(g, base, keep))


def check_marginalization(g: MixedGraph, m: frozenset[str]) -> bool:
    """Model of the projection equals the restriction of the model."""
    return _model_kept(g, marginalize(g, m), frozenset(), g.node_set - m)


def check_conditioning(g: MixedGraph, c: frozenset[str]) -> bool:
    """Model of the conditioned graph equals the shifted model."""
    return _model_kept(g, condition(g, c), c, g.node_set - c)


def check_combined(g: MixedGraph, m: frozenset[str], c: frozenset[str]) -> bool:
    out = marginalize_and_condition(g, TransformSpec.of(m, c))
    return _model_kept(g, out, c, g.node_set - m - c)


def check_ang(g: MixedGraph, m: frozenset[str], c: frozenset[str]) -> bool:
    """The anterial pipeline gives an AnG with the shifted model.

    The class is read first: an output that keeps an arc between a node
    and one of its anteriors is no AnG, whatever its model.
    """
    out = ang_transform(g, TransformSpec.of(m, c))
    return ANG in classify(out) and _model_kept(g, out, c, g.node_set - m - c)


def _marginal_routes(
    g: MixedGraph, m: frozenset[str], m1: frozenset[str]
) -> tuple[MixedGraph, MixedGraph]:
    """(M then M1, their union in one step)."""
    return marginalize(marginalize(g, m), m1), marginalize(g, m | m1)


def _conditional_routes(
    g: MixedGraph, c: frozenset[str], c1: frozenset[str]
) -> tuple[MixedGraph, MixedGraph]:
    """(C then C1, their union in one step)."""
    return condition(condition(g, c), c1), condition(g, c | c1)


def check_marginal_composition(g: MixedGraph, m: frozenset[str], m1: frozenset[str]) -> bool:
    split, union = _marginal_routes(g, m, m1)
    return split == union


def check_conditional_composition(g: MixedGraph, c: frozenset[str], c1: frozenset[str]) -> bool:
    split, union = _conditional_routes(g, c, c1)
    return split == union


def _combined_routes(g: MixedGraph, m, c, m1, c1) -> tuple[MixedGraph, MixedGraph]:
    """(M, C then M1, C1, the unions of both in one step)."""
    nested = marginalize_and_condition(
        marginalize_and_condition(g, TransformSpec.of(m, c)), TransformSpec.of(m1, c1)
    )
    return nested, marginalize_and_condition(g, TransformSpec.of(m | m1, c | c1))


def check_combined_composition(g: MixedGraph, m, c, m1, c1) -> Optional[bool]:
    """Graph equality under the maximality side condition; None = skipped.

    Model equality has no side condition and is always enforced: equal
    routes decide it, since one graph has one model, and the models of
    routes that differ are enumerated.
    """
    nested, union = _combined_routes(g, m, c, m1, c1)
    same = nested == union
    if not (same or models_equal(pairwise_model(nested), pairwise_model(union))):
        return False
    if not (is_maximal(nested) and (same or is_maximal(union))):
        return None
    return same


def _commutativity_routes(
    g: MixedGraph, m: frozenset[str], c: frozenset[str]
) -> tuple[MixedGraph, MixedGraph]:
    """(marginalize first, condition first)."""
    spec = TransformSpec.of(m, c)
    return (
        marginalize_and_condition(g, spec, order="mc"),
        marginalize_and_condition(g, spec, order="cm"),
    )


def check_commutativity(
    g: MixedGraph, m: frozenset[str], c: frozenset[str]
) -> Optional[bool]:
    """Graph equality when marginalize-first is maximal; None = skipped.

    Model equality has no side condition: orders whose models differ
    fail.  Equal orders have one model, so only orders that differ have
    their models enumerated.
    """
    g1, g2 = _commutativity_routes(g, m, c)
    same = g1 == g2
    if not (same or models_equal(pairwise_model(g1), pairwise_model(g2))):
        return False
    if not is_maximal(g1):
        return None
    return same


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
    """One property: a check on a drawn instance, and how its failure is reported.

    ``check(g, *sets)`` takes the instance's sets in the order of
    ``keys``, the names its payload gives them.  It returns True, False,
    or None for skipped: the instance passes and is counted in
    ``skipped``.  A failure's payload is shrunk while the check still
    fails if ``shrink`` is set, and reports the instance as drawn
    otherwise.  ``routes(g, *sets)``, set on the suites that compare two
    routes, gives the two graphs whose ``models_equal`` the payload
    carries, computed on the instance it reports.  That diagnostic tells
    an engine bug (the models differ, never expected) from the
    documented corner where one route keeps a parallel arc that the
    other cannot rebuild: the graphs differ while the models agree.
    A ``CmgraphError`` that the check raises is a failure whose payload
    is always shrunk while the check still raises, names the error's
    class, and has no ``models_equal``: its routes run the same rewrites.
    """

    property_id: str
    graph_class: str
    keys: tuple[str, ...]
    check: Callable[..., Optional[bool]]
    shrink: bool = True
    routes: Optional[Callable[..., tuple[MixedGraph, MixedGraph]]] = None
    node_cap: Optional[int] = None  # suites with costly per-instance checks

    def run(self, report: PropertyReport, g: MixedGraph, sets: tuple) -> None:
        """Check one instance and record its verdict in ``report``."""
        outcome = self._outcome(g, sets)
        if outcome is None:
            report.skipped += 1
        raised = isinstance(outcome, str)
        report.record(outcome in (True, None), lambda: self._counterexample(g, sets, raised))

    def _outcome(self, g: MixedGraph, sets) -> Optional[bool] | str:
        """The check's verdict, or the class name of the ``CmgraphError`` it raises."""
        try:
            return self.check(g, *sets)
        except CmgraphError as exc:
            return type(exc).__name__

    def _counterexample(self, g: MixedGraph, sets: tuple, raised: bool) -> dict:
        named = dict(zip(self.keys, sets))
        if raised or self.shrink:

            def fails(gg, ss) -> bool:  # raises still, or fails without raising
                outcome = self._outcome(gg, tuple(ss.values()))
                return isinstance(outcome, str) if raised else outcome is False

            g, named = shrink_instance(g, named, fails)
        out = _payload(g, **named)
        if raised:
            out["error"] = self._outcome(g, tuple(named.values()))
        elif self.routes is not None:
            h1, h2 = self.routes(g, *named.values())
            out["models_equal"] = models_equal(pairwise_model(h1), pairwise_model(h2))
        return out


def _suites() -> dict[str, Suite]:
    one, two, mc, split = ("set0",), ("set0", "set1"), ("m", "c"), ("s1", "s2")
    suites = [
        Suite("marginalization", "CMG", one, check_marginalization),
        Suite("conditioning", "CMG", one, check_conditioning),
        Suite("combined", "CMG", mc, check_combined, shrink=False),
        Suite("ang", "AnG", mc, check_ang, shrink=False),
        Suite(
            "marginal-composition", "CMG", split, check_marginal_composition,
            routes=_marginal_routes,
        ),
        Suite(
            "conditional-composition", "CMG", split, check_conditional_composition,
            routes=_conditional_routes,
        ),
        Suite(
            "combined-composition", "CMG", ("m", "c", "m1", "c1"),
            check_combined_composition, shrink=False, routes=_combined_routes,
        ),
        Suite(
            "commutativity", "CMG", mc, check_commutativity,
            shrink=False, routes=_commutativity_routes,
        ),
        Suite("closure", "CMG", two, check_closure),
        Suite("identity", "CMG", (), check_identity),
        Suite("classes", "CG", two, check_class_membership),
        Suite("marginal-edge-oracle", "CMG", one, check_marginal_edges),
        Suite("conditional-edge-oracle", "CMG", one, check_conditional_edges),
        Suite("inducing-walk-oracle", "CMG", (), check_inducing_walks),
        Suite("witness-soundness", "CMG", (), check_witness_soundness, node_cap=6),
    ]
    return {s.property_id: s for s in suites}


SUITE_IDS = tuple(_suites().keys()) + ("cg-unrepresentability",)


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
        suite.run(report, g, tuple(_random_subsets(rng, g.nodes, len(suite.keys))))
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
