"""Loopless mixed graphs and their structural queries.

A mixed graph carries three edge types between labelled nodes:

* ``LINE``  -- an undirected edge ``i -- j``
* ``ARROW`` -- a directed edge ``i -> j`` (arrowhead at ``j``)
* ``ARC``   -- a bidirected edge ``i <-> j`` (arrowheads at both ends)

Loops are rejected; multiple edges of *different* types between the same
pair are allowed, duplicates of the same type collapse.  Graphs are
immutable values, and equality is structural (same labels, same typed
edge set).  A transformation returns a new graph, except that a rewrite
with nothing to do returns its input; only ``is`` can tell the two apart.

A graph stores masks only: per position in ``nodes``, the bit masks of
the node's line neighbours, parents, children and spouses.  ``nodes`` is
always in sorted order, so bit order is label order and one set of
labels and edges has one graph.
:func:`build_graph` is the one encoder of labelled edges, for
``graphio.parse`` and the API.  Rewrites build their outputs with
:func:`subgraph_of_masks`, and ``propcheck.random_graph`` draws its
edges straight into masks, so neither builds a labelled edge.  Each
table is read by its own name: :attr:`MixedGraph.index` maps labels to
positions and :attr:`MixedGraph.components` is the table of line
components that ``kernel`` builds, each once per graph and only when
first read.  Every such table is a :class:`_lazy` attribute: a stand-in
for ``functools.cached_property`` that keeps the value in the instance
``__dict__`` the same way but takes no lock, which the stdlib one does
on each first read before Python 3.12.  The constructor likewise writes
its five fields into ``__dict__`` in one update, not with the frozen
dataclass's five ``object.__setattr__`` calls; assigning a field still
raises ``dataclasses.FrozenInstanceError``.
``edges`` and :attr:`MixedGraph.incidences` are labelled views decoded
on first use, for output and for the walk-simulating oracle.

The classifier recognises the nested families used throughout the
package: undirected graphs (UG), DAGs, chain graphs (CG, lines+arrows
with no semi-directed cycle containing an arrow), chain mixed graphs
(CMG, all three edge types under the same cycle condition), and anterial
graphs (AnG, simple CMGs in which no arc joins a node to one of its
anteriors).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import kernel
from .errors import (
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

#: Canonical display order for class flags.
UG = "UG"
DAG = "DAG"
CG = "CG"
CMG = "CMG"
ANG = "AnG"
CLASS_ORDER = (UG, DAG, CG, CMG, ANG)

Edge = tuple[str, str, str]  # (kind, x, y); ordered (tail, head) for arrows


class _lazy:
    """A graph table computed on first read and kept in the instance ``__dict__``.

    A non-data descriptor, so once the value is stored the instance
    attribute shadows it and later reads never reach :meth:`__get__`.
    ``functools.cached_property`` does the same but, before Python 3.12,
    takes a lock on every first read.  Graphs are immutable, so two
    threads that race on a first read compute the same value, and either
    store is right.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, init=False)
class MixedGraph:
    """Immutable loopless mixed graph: ``ln[k]``, ``pa[k]``, ``ch[k]`` and
    ``sp[k]`` are the masks of the line neighbours, parents, children and
    spouses of ``nodes[k]``, with bit ``j`` standing for ``nodes[j]``.

    The labels in ``nodes`` must be distinct and in sorted order, and the
    masks must agree with each other: ``ln`` and ``sp`` symmetric, ``pa``
    the mirror of ``ch``, no bit ``k`` in row ``k`` and no bit at or past
    ``len(nodes)``.  The constructor checks the order and the lengths;
    build graphs with :func:`build_graph` or :func:`subgraph_of_masks`,
    which keep the rest.
    """

    nodes: tuple[str, ...]
    ln: tuple[int, ...]
    pa: tuple[int, ...]
    ch: tuple[int, ...]
    sp: tuple[int, ...]

    def __init__(
        self,
        nodes: tuple[str, ...],
        ln: tuple[int, ...],
        pa: tuple[int, ...],
        ch: tuple[int, ...],
        sp: tuple[int, ...],
    ):
        if not all(map(operator.lt, nodes, nodes[1:])):
            raise ValueError("node labels must be distinct and in sorted order")
        if not len(ln) == len(pa) == len(ch) == len(sp) == len(nodes):
            raise ValueError("each mask table needs one entry per node")
        # one dict write in place of the frozen dataclass's five object.__setattr__ calls
        self.__dict__.update(nodes=nodes, ln=ln, pa=pa, ch=ch, sp=sp)

    def __hash__(self) -> int:
        return self._hash

    @_lazy
    def _hash(self) -> int:
        # ch mirrors pa, so it adds nothing to the hash
        return hash((self.nodes, self.ln, self.pa, self.sp))

    def __reduce__(self):
        # pickle the fields only: a cached string hash is per process
        return MixedGraph, (self.nodes, self.ln, self.pa, self.ch, self.sp)

    @_lazy
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @_lazy
    def edges(self) -> frozenset[Edge]:
        """Labelled edges ``(kind, x, y)`` decoded on first use; ``x < y`` but for arrows."""
        return frozenset(self.edge_list())

    # -- basic queries -----------------------------------------------------

    def require_nodes(self, labels: Iterable[str]) -> None:
        for v in labels:
            if v not in self.node_set:
                raise UnknownNodeError(v)

    def adjacent(self, x: str, y: str) -> bool:
        """True iff some edge joins ``x`` and ``y``; False for unknown labels."""
        index = self.index
        k = index.get(x)
        if k is None or y not in index:
            return False
        return bool((self.ln[k] | self.pa[k] | self.ch[k] | self.sp[k]) >> index[y] & 1)

    @_lazy
    def is_simple(self) -> bool:
        """True iff no pair of nodes carries two edges."""
        tables = zip(self.ln, self.pa, self.ch, self.sp)
        return not any(l & (p | c | s) | p & (c | s) | c & s for l, p, c, s in tables)

    def edge_list(self) -> list[Edge]:
        """Edges in canonical order: lines, then arrows, then arcs, each in increasing ``(x, y)``."""
        nodes, out = self.nodes, []
        for kind, table in ((LINE, self.ln), (ARROW, self.ch), (ARC, self.sp)):
            for k, m in enumerate(table):
                if kind != ARROW:
                    m &= -2 << k  # each line and arc once, from its lower end
                x = nodes[k]
                out += [(kind, x, nodes[j]) for j in kernel._bits(m)]
        return out

    @_lazy
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

    @_lazy
    def is_cmg(self) -> bool:
        """True iff no semi-directed cycle contains an arrow."""
        return not has_semidirected_cycle_with_arrow(self)

    @_lazy
    def index(self) -> Mapping[str, int]:
        """Per label, its position in ``nodes``: the bit that stands for it."""
        return {v: k for k, v in enumerate(self.nodes)}

    @_lazy
    def components(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per node position, ``kernel.components`` of the graph's masks."""
        return tuple(kernel.components(self.ln, self.pa, self.ch, self.sp))

    @_lazy
    def _upward(self) -> tuple[int, ...] | None:
        """Per node position, its line component and everything anterior to
        it; None when no CMG.

        One depth-first pass over :attr:`components` along their parent
        unions.  An arrow inside a component, or a directed
        cycle of components, leads back to a component still on the path.
        The path holds only the components that wait for a parent, so a
        component whose parents are all done is finished at once.
        """
        table = self.components
        up: dict[int, int] = {}  # per finished component, its mask
        done = 0
        path = []  # the components below ``entry`` that wait for it
        for entry in table:
            if entry[0] & done:
                continue
            active = entry[0]  # the nodes of ``entry`` and of the path
            while True:
                comp, p, _, _ = entry
                todo = p & ~done
                if todo:
                    if todo & active:
                        return None
                    path.append(entry)
                    entry = table[(todo & -todo).bit_length() - 1]
                    active |= entry[0]
                    continue
                u = comp
                while p:
                    d = table[(p & -p).bit_length() - 1][0]
                    u |= up[d]
                    p &= ~d
                up[comp] = u
                done |= comp
                if not path:
                    break
                active &= ~comp
                entry = path.pop()
        return tuple([up[entry[0]] for entry in table])

    @property
    def upward_masks(self) -> tuple[int, ...]:
        """Per node position ``k``, the mask of ``nodes[k]`` and its anteriors,
        bit ``j`` for ``nodes[j]`` as in ``ln``, from the component pass of
        :attr:`is_cmg`.  Raises :class:`NotACMGError` when a semi-directed
        cycle contains an arrow."""
        if self._upward is None:
            raise NotACMGError("anteriors table requires a chain mixed graph")
        return self._upward

    def induced_subgraph(self, keep: Iterable[str]) -> "MixedGraph":
        keep = label_set(keep, MalformedQueryError)
        self.require_nodes(keep)
        keep_mask = mask_of(self.index, keep)
        return subgraph_of_masks(self.nodes, self.ln, self.pa, self.ch, self.sp, keep_mask)


#: Per edge type, the tables among (ln, pa, ch, sp) that hold it at its second and first end.
_END_TABLES = {LINE: (0, 0), ARROW: (1, 2), ARC: (3, 3)}


def build_graph(
    nodes: Iterable[str], edges: Iterable[tuple[str, str, str]] = ()
) -> MixedGraph:
    """Build a graph from node labels and ``(x, y, kind)`` triples, sorting the labels.

    The one encoder of labelled edges.  Rejects empty labels, then per edge
    an unknown label (:class:`UnknownNodeError`), an unknown edge type
    (``ValueError``) and a loop (:class:`LoopEdgeError`).  Duplicate edges
    of the same type between one pair collapse.
    """
    node_tuple = tuple(sorted(set(nodes)))
    if any(not n for n in node_tuple):
        raise ValueError("node labels must be non-empty")
    index = {v: k for k, v in enumerate(node_tuple)}
    tables = [[0] * len(node_tuple) for _ in range(4)]  # ln, pa, ch, sp
    for x, y, kind in edges:
        i, j = index.get(x), index.get(y)
        if i is None or j is None:
            raise UnknownNodeError(x if i is None else y)
        ends = _END_TABLES.get(kind)
        if ends is None:
            raise ValueError(f"unknown edge type {kind!r}")
        if i == j:
            raise LoopEdgeError(x)
        tables[ends[0]][j] |= 1 << i
        tables[ends[1]][i] |= 1 << j
    return MixedGraph(node_tuple, *map(tuple, tables))


def subgraph_of_masks(nodes, ln, pa, ch, sp, keep: int) -> MixedGraph:
    """The graph over the labels at the set bits of ``keep``.

    ``nodes`` is a graph's sorted node tuple and ``ln``, ``pa``, ``ch`` and
    ``sp`` are masks over it; the kept labels stay in sorted order.  One
    or two deleted positions are each cut out of the rows with a mask and
    a shift.  With more, each kept bit moves to its new position, a step
    per set bit: cheaper at three set bits a row, far cheaper when most go.
    """
    gone = ((1 << len(nodes)) - 1) & ~keep
    if gone.bit_count() > 2:
        order = list(kernel._bits(keep))
        bit = [0] * len(nodes)  # per old position its new bit, 0 if deleted
        for t, k in enumerate(order):
            bit[k] = 1 << t
        tables = [[nodes[k] for k in order]]
        for m in ln, pa, ch, sp:
            rows = []
            for k in order:
                old, new = m[k], 0
                while old:
                    low = old & -old
                    new |= bit[low.bit_length() - 1]
                    old ^= low
                rows.append(new)
            tables.append(rows)
    else:
        tables = [list(nodes), list(ln), list(pa), list(ch), list(sp)]
        for k in list(kernel._bits(gone))[::-1]:
            lo, hi = (1 << k) - 1, -1 << k
            for t, rows in enumerate(tables):
                del rows[k]
                if t:  # a row of just the deleted bit is above lo and is cut as well
                    tables[t] = [r & lo | r >> 1 & hi if r > lo else r for r in rows]
    return MixedGraph(*map(tuple, tables))


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
    So the answer is whether :attr:`MixedGraph.components` have no order
    in which every arrow runs forward.  One pass per graph decides
    it and gives the anteriors (:attr:`MixedGraph.upward_masks`).
    """
    return g._upward is None


def anteriors(g: MixedGraph, a: Iterable[str]) -> frozenset[str]:
    """All nodes with a semi-directed walk into a member of ``a``.

    Walks consist of lines and forward arrows only; arcs never
    contribute.  Members of ``a`` are excluded from the result, and a
    node is never its own anterior.  One line reach over each node's
    line neighbours and parents, so any mixed graph is accepted.

    The reach is its own on purpose, not a read of
    :attr:`MixedGraph.upward_masks`: :func:`~cmgraph.separation.moral_separated`
    builds its anterior subgraph here, and as an oracle for a chain
    graph's model it shares no table with the ``upward_masks`` bound of
    ``kernel.separated``.
    """
    a = label_set(a, MalformedQueryError)
    g.require_nodes(a)
    start = mask_of(g.index, a)
    reach = kernel.line_reach([l | p for l, p in zip(g.ln, g.pa)], start, 0)
    return frozenset(g.nodes[k] for k in kernel._bits(reach & ~start))


def classify(g: MixedGraph) -> frozenset[str]:
    """Class flags for ``g``: subset of {UG, DAG, CG, CMG, AnG}."""
    has_line, has_arrow, has_arc = any(g.ln), any(g.pa), any(g.sp)
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
    # no arc joins a node to itself, so the node's own bit in upward_masks meets no arc
    return not any(map(operator.and_, g.upward_masks, g.sp))


def format_classes(flags: frozenset[str]) -> str:
    return " ".join(f for f in CLASS_ORDER if f in flags)


def chain_components(g: MixedGraph) -> list[tuple[str, ...]]:
    """Connected components of the line-only subgraph of a chain graph."""
    if CG not in classify(g):
        raise NotAChainGraphError("chain components require a chain graph")
    comps = {entry[0] for entry in g.components}
    return sorted(tuple(g.nodes[k] for k in kernel._bits(c)) for c in comps)


def moral_graph(g: MixedGraph) -> MixedGraph:
    """All-line graph joining adjacent nodes and co-parents of a chain component."""
    if CG not in classify(g):
        raise NotAChainGraphError("moralization requires a chain graph")
    ln = [l | p | c for l, p, c in zip(g.ln, g.pa, g.ch)]  # a CG has no arcs
    for _, parents, _, _ in set(g.components):
        for k in kernel._bits(parents):
            ln[k] |= parents & ~(1 << k)
    empty = (0,) * len(ln)
    return MixedGraph(g.nodes, tuple(ln), empty, empty, empty)
