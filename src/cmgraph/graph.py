"""Loopless mixed graphs and their structural queries.

A mixed graph carries three edge types between labelled nodes:

* ``LINE``  -- an undirected edge ``i -- j``
* ``ARROW`` -- a directed edge ``i -> j`` (arrowhead at ``j``)
* ``ARC``   -- a bidirected edge ``i <-> j`` (arrowheads at both ends)

Loops are rejected; multiple edges of *different* types between the same
pair are allowed, duplicates of the same type collapse.  Graphs are
immutable values: every transformation returns a new graph, and equality
is structural (same node set, same typed edge set).

Every structural query reads one adjacency representation, the mask core
:attr:`MixedGraph.masks`, built once per graph: per node, the bit masks
of its line neighbours, parents, children and spouses, plus the table of
line components that ``kernel`` builds from them.  ``edges`` and
:attr:`MixedGraph.incidences` are the labelled views, for output and
for the walk-simulating oracle.

The classifier recognises the nested families used throughout the
package: undirected graphs (UG), DAGs, chain graphs (CG, lines+arrows
with no semi-directed cycle containing an arrow), chain mixed graphs
(CMG, all three edge types under the same cycle condition), and anterial
graphs (AnG, simple CMGs in which no arc joins a node to one of its
anteriors).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from . import kernel
from .errors import (
    BlockedStartError,
    CmgraphError,
    LoopEdgeError,
    MalformedQueryError,
    NotAChainGraphError,
    NotACMGError,
    UnknownNodeError,
)

LINE = "--"
ARROW = "->"
ARC = "<->"

EDGE_TYPES = (LINE, ARROW, ARC)

#: Canonical display order for class flags.
UG = "UG"
DAG = "DAG"
CG = "CG"
CMG = "CMG"
ANG = "AnG"
CLASS_ORDER = (UG, DAG, CG, CMG, ANG)

Edge = tuple[str, str, str]  # (kind, x, y); ordered (tail, head) for arrows


def _canonical_edge(x: str, y: str, kind: str) -> Edge:
    if kind not in EDGE_TYPES:
        raise ValueError(f"unknown edge type {kind!r}")
    if x == y:
        raise LoopEdgeError(x)
    if kind == ARROW:
        return (kind, x, y)
    a, b = sorted((x, y))
    return (kind, a, b)


@dataclass(frozen=True)
class MixedGraph:
    """Immutable loopless mixed graph over string-labelled nodes."""

    nodes: tuple[str, ...]
    edges: frozenset[Edge]

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node labels")

    # -- adjacency indexes ------------------------------------------------

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    # -- basic queries -----------------------------------------------------

    def require_nodes(self, labels: Iterable[str]) -> None:
        for v in labels:
            if v not in self.node_set:
                raise UnknownNodeError(v)

    def has_edge(self, x: str, y: str, kind: str) -> bool:
        return _canonical_edge(x, y, kind) in self.edges

    def adjacent(self, x: str, y: str) -> bool:
        """True iff some edge joins ``x`` and ``y``; False for unknown labels."""
        index, ln, pa, ch, sp = self.masks[:5]
        k = index.get(x)
        if k is None or y not in index:
            return False
        return bool((ln[k] | pa[k] | ch[k] | sp[k]) >> index[y] & 1)

    @cached_property
    def is_simple(self) -> bool:
        pairs = [frozenset((a, b)) for _, a, b in self.edges]
        return len(pairs) == len(set(pairs))

    def edge_list(self) -> list[Edge]:
        """Edges in canonical order: lines, then arrows, then arcs."""
        rank = {LINE: 0, ARROW: 1, ARC: 2}
        return sorted(self.edges, key=lambda e: (rank[e[0]], e[1], e[2]))

    def edges_as_triples(self) -> list[tuple[str, str, str]]:
        """Edges as (x, y, kind) triples accepted by :func:`build_graph`."""
        return [(x, y, kind) for kind, x, y in self.edge_list()]

    @cached_property
    def incidences(self) -> Mapping[str, tuple[tuple[str, bool, bool, Edge], ...]]:
        """Per node, one walk step per incident edge, in canonical edge order.

        A step is ``(other, head_here, head_there, edge)``: the far
        endpoint and whether ``edge`` carries an arrowhead at this node
        and at the far one.
        """
        out: dict[str, list] = {v: [] for v in self.nodes}
        for edge in self.edge_list():
            kind, x, y = edge
            out[x].append((y, kind == ARC, kind != LINE, edge))
            out[y].append((x, kind != LINE, kind == ARC, edge))
        return {v: tuple(steps) for v, steps in out.items()}

    @cached_property
    def is_cmg(self) -> bool:
        """True iff no semi-directed cycle contains an arrow."""
        return not has_semidirected_cycle_with_arrow(self)

    @cached_property
    def masks(self) -> tuple:
        """``(index, ln, pa, ch, sp, table)``: the graph's one mask core.

        The first five are those of :func:`mask_tables`, with the four
        mask lists kept as tuples because every caller shares them;
        ``table`` is ``kernel.components(ln, pa, ch, sp)``.  Built once
        per graph object.
        """
        index, ln, pa, ch, sp = mask_tables(self)
        table = kernel.components(ln, pa, ch, sp)
        return index, tuple(ln), tuple(pa), tuple(ch), tuple(sp), tuple(table)

    @cached_property
    def _upward(self) -> tuple[int, ...] | None:
        """Per node position, its line component and everything anterior to
        it; None when no CMG.

        One depth-first pass over the components of :attr:`masks` along
        their parent unions.  An arrow inside a component, or a directed
        cycle of components, leads back to a component still on the stack.
        """
        table = self.masks[5]
        up: dict[int, int] = {}  # per finished component, its mask
        done = 0
        for entry in table:
            if entry[0] & done:
                continue
            stack = [entry]
            active = entry[0]  # the nodes of the components on the stack
            while stack:
                comp, p, _, _ = stack[-1]
                todo = p & ~done
                if todo & active:
                    return None
                if todo:
                    parent = table[(todo & -todo).bit_length() - 1]
                    active |= parent[0]
                    stack.append(parent)
                    continue
                u = comp
                while p:
                    d = table[(p & -p).bit_length() - 1][0]
                    u |= up[d]
                    p &= ~d
                up[comp] = u
                done |= comp
                active &= ~comp
                stack.pop()
        return tuple(up[entry[0]] for entry in table)

    @cached_property
    def anterior_masks(self) -> Mapping[str, int]:
        """Per node, the node mask of ``anteriors(self, [v])``.

        Bit ``k`` stands for ``nodes[k]``, as in :attr:`masks`.  Read from
        the component pass that also gives :attr:`is_cmg`: a node's
        anteriors are its component and everything anterior to it, less
        the node.
        Raises :class:`NotACMGError` when a semi-directed cycle contains
        an arrow, because then no such order exists.
        """
        upward = self._upward
        if upward is None:
            raise NotACMGError("anteriors table requires a chain mixed graph")
        return {v: upward[k] & ~(1 << k) for k, v in enumerate(self.nodes)}

    # -- reachability ------------------------------------------------------

    def line_reachable(self, v: str, blocked: Iterable[str] = ()) -> frozenset[str]:
        """Nodes reachable from ``v`` along lines avoiding ``blocked``.

        ``v`` itself is included.  Raises :class:`BlockedStartError` if
        ``v`` is blocked.
        """
        self.require_nodes([v])
        blocked = label_set(blocked, MalformedQueryError)
        if v in blocked:
            raise BlockedStartError(f"start node {v!r} is blocked")
        index, ln = self.masks[:2]
        stop = mask_of(index, blocked & self.node_set)
        reach = kernel.line_reach(ln, 1 << index[v], stop)
        return frozenset(self.nodes[k] for k in kernel._bits(reach))

    def induced_subgraph(self, keep: Iterable[str]) -> "MixedGraph":
        keep = label_set(keep, MalformedQueryError)
        self.require_nodes(keep)
        edges = frozenset(e for e in self.edges if e[1] in keep and e[2] in keep)
        return MixedGraph(tuple(sorted(keep)), edges)


def build_graph(
    nodes: Iterable[str], edges: Iterable[tuple[str, str, str]] = ()
) -> MixedGraph:
    """Build a graph from node labels and ``(x, y, kind)`` triples.

    Rejects loops and empty labels; edges mentioning labels outside
    ``nodes`` raise :class:`UnknownNodeError`.  Duplicate edges of the
    same type between the same pair collapse to one.
    """
    node_tuple = tuple(sorted(set(nodes)))
    if any(not n for n in node_tuple):
        raise ValueError("node labels must be non-empty")
    node_set = set(node_tuple)
    canonical = set()
    for x, y, kind in edges:
        if x not in node_set:
            raise UnknownNodeError(x)
        if y not in node_set:
            raise UnknownNodeError(y)
        canonical.add(_canonical_edge(x, y, kind))
    return MixedGraph(node_tuple, frozenset(canonical))


def mask_tables(
    g: MixedGraph,
) -> tuple[dict[str, int], list[int], list[int], list[int], list[int]]:
    """Per-node masks over ``g.nodes``: ``(index, ln, pa, ch, sp)``.

    ``index[v]`` is the bit of ``v`` in a node mask, its position in
    ``g.nodes``.  ``ln[k]``, ``pa[k]``, ``ch[k]`` and ``sp[k]`` are the
    masks of the line neighbours, parents, children and spouses of
    ``g.nodes[k]``.  The one builder of these masks: :attr:`MixedGraph.masks`
    calls it once per graph and keeps the lists as tuples, which callers
    that rewrite the masks copy.
    """
    index = {v: i for i, v in enumerate(g.nodes)}
    n = len(g.nodes)
    ln = [0] * n
    pa = [0] * n
    ch = [0] * n
    sp = [0] * n
    for kind, x, y in g.edges:
        xi, yi = index[x], index[y]
        if kind == LINE:
            ln[xi] |= 1 << yi
            ln[yi] |= 1 << xi
        elif kind == ARROW:
            ch[xi] |= 1 << yi
            pa[yi] |= 1 << xi
        else:
            sp[xi] |= 1 << yi
            sp[yi] |= 1 << xi
    return index, ln, pa, ch, sp


def mask_of(index: Mapping[str, int], labels: Iterable[str]) -> int:
    """The node mask of ``labels``, with bit positions from ``index``."""
    m = 0
    for v in labels:
        m |= 1 << index[v]
    return m


def label_set(labels: Iterable[str], error: type[CmgraphError]) -> frozenset[str]:
    """``labels`` as a set; a bare ``str``, which would read as its letters, raises ``error``."""
    if isinstance(labels, str):
        raise error(f"expected a collection of node labels, got the string {labels!r}")
    return frozenset(labels)


# -- walks over lines and arrows ------------------------------------------


def has_semidirected_cycle_with_arrow(g: MixedGraph) -> bool:
    """True iff some cycle of lines/arrows, arrows all forward, has an arrow.

    Contract each line component to one node.  An arrow inside a
    component closes such a cycle with a line path back to its tail;
    otherwise every such cycle is a directed cycle among the components.
    So the answer is whether the components of ``g.masks``' table have no
    order in which every arrow runs forward.  One pass per graph decides
    it and gives the anteriors (:attr:`MixedGraph.anterior_masks`).
    """
    return g._upward is None


def anteriors(g: MixedGraph, a: Iterable[str]) -> frozenset[str]:
    """All nodes with a semi-directed walk into a member of ``a``.

    Walks consist of lines and forward arrows only; arcs never
    contribute.  Members of ``a`` are excluded from the result, and a
    node is never its own anterior.  One line reach over each node's
    line neighbours and parents, so any mixed graph is accepted.
    """
    a = label_set(a, MalformedQueryError)
    g.require_nodes(a)
    index, ln, pa = g.masks[:3]
    start = mask_of(index, a)
    reach = kernel.line_reach([l | p for l, p in zip(ln, pa)], start, 0)
    return frozenset(g.nodes[k] for k in kernel._bits(reach & ~start))


def ancestors(g: MixedGraph, i: str) -> frozenset[str]:
    """All nodes with a directed (all-arrow) walk to ``i``, excluding ``i``."""
    g.require_nodes([i])
    index, _, pa = g.masks[:3]
    k = index[i]
    reach = kernel.line_reach(pa, pa[k], 0)
    return frozenset(g.nodes[v] for v in kernel._bits(reach & ~(1 << k)))


def classify(g: MixedGraph) -> frozenset[str]:
    """Class flags for ``g``: subset of {UG, DAG, CG, CMG, AnG}."""
    _, ln, pa, _, sp = g.masks[:5]
    has_line, has_arrow, has_arc = any(ln), any(pa), any(sp)
    flags = set()
    if not has_arrow and not has_arc:
        flags.add(UG)
    if g.is_cmg:
        flags.add(CMG)
        if not has_arc:
            flags.add(CG)
            if not has_line:
                flags.add(DAG)
        if g.is_simple and (not has_arc or _arcs_respect_anteriority(g)):
            flags.add(ANG)
    return frozenset(flags)


def _arcs_respect_anteriority(g: MixedGraph) -> bool:
    ant, sp = g.anterior_masks, g.masks[4]
    return not any(ant[v] & sp[k] for k, v in enumerate(g.nodes))


def format_classes(flags: frozenset[str]) -> str:
    return " ".join(f for f in CLASS_ORDER if f in flags)


def chain_components(g: MixedGraph) -> list[tuple[str, ...]]:
    """Connected components of the line-only subgraph of a chain graph."""
    if CG not in classify(g):
        raise NotAChainGraphError("chain components require a chain graph")
    comps = {entry[0] for entry in g.masks[5]}
    return sorted(tuple(sorted(g.nodes[k] for k in kernel._bits(c))) for c in comps)


def moral_graph(g: MixedGraph) -> MixedGraph:
    """All-line graph joining adjacent nodes and co-parents of a chain component."""
    if CG not in classify(g):
        raise NotAChainGraphError("moralization requires a chain graph")
    lines = {_canonical_edge(x, y, LINE) for _, x, y in g.edges}
    for _, comp_parents, _, _ in set(g.masks[5]):
        names = [g.nodes[k] for k in kernel._bits(comp_parents)]
        for i, x in enumerate(names):
            for y in names[i + 1 :]:
                lines.add(_canonical_edge(x, y, LINE))
    return MixedGraph(g.nodes, frozenset(lines))
