"""c-separation for chain mixed graphs and the moralization criterion.

A walk is *c-connecting* given C when every collider section meets C and
every non-collider section avoids C; two node sets are c-separated given
C when no c-connecting walk joins them.  Because walks may repeat nodes
there are infinitely many of them, so :func:`c_separated` decides the
criterion by reachability over the finite space of (section entry node,
entry mark) states; :func:`bounded_walk_oracle` is an independent
ground-truth check that simulates walks edge by edge, and
:func:`moral_separated` implements the moralization criterion for chain
graphs.  All three must agree on their common domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import kernel
from .errors import (
    BoundTooSmallError,
    GroundSetMismatchError,
    MalformedQueryError,
    NotACMGError,
    NotAChainGraphError,
    TooLargeError,
)
from .graph import (
    ARC,
    ARROW,
    CG,
    LINE,
    MixedGraph,
    anteriors,
    classify,
    label_set,
    moral_graph,
)
from .walks import Walk

MODE_WALKS = "walks-in-C"
MODE_PATHS = "paths-in-antC"


@dataclass(frozen=True)
class SeparationQuery:
    """Disjoint node sets (a, b, given); empty a or b reads as separated."""

    a: frozenset[str]
    b: frozenset[str]
    given: frozenset[str]

    @classmethod
    def of(
        cls,
        a: Iterable[str],
        b: Iterable[str],
        given: Iterable[str] = (),
    ) -> "SeparationQuery":
        a, b, given = (label_set(s, MalformedQueryError) for s in (a, b, given))
        if a & b or a & given or b & given:
            raise MalformedQueryError("query sets must be pairwise disjoint")
        return cls(a, b, given)


def _require_cmg(g: MixedGraph) -> None:
    if not g.is_cmg:
        raise NotACMGError("graph has a semi-directed cycle with an arrow")


def _check_query(nodes: frozenset[str], q: SeparationQuery) -> None:
    for v in q.a | q.b | q.given:
        if v not in nodes:
            raise MalformedQueryError(f"query mentions unknown node {v!r}")


@lru_cache(maxsize=512)
def _mask_tables(g: MixedGraph):
    """``(index, ln, pa, ch, sp, table)``: the graph's cached ``g.masks``."""
    return g.masks


def _query_masks(g: MixedGraph, a, b, given) -> tuple[tuple, int, int, int]:
    """``(g.masks, amask, bmask, cmask)`` of a query, checked in one pass.

    Raises what :meth:`SeparationQuery.of`, :func:`_require_cmg` and
    :func:`_check_query` raise, in that order: a bare ``str``, overlapping
    sets, a graph that is no CMG, an unknown node.  Until the last check
    an unknown label holds a bit past the graph's nodes.
    """
    for labels in (a, b, given):
        if isinstance(labels, str):
            label_set(labels, MalformedQueryError)  # raises
    masks = _mask_tables(g)
    index = masks[0]
    unknown: dict = {}
    out = []
    for labels in (a, b, given):
        m = 0
        for v in labels:
            bit = index.get(v)
            if bit is None:
                bit = unknown.setdefault(v, len(index) + len(unknown))
            m |= 1 << bit
        out.append(m)
    amask, bmask, cmask = out
    if amask & bmask or amask & cmask or bmask & cmask:
        raise MalformedQueryError("query sets must be pairwise disjoint")
    _require_cmg(g)
    if unknown:
        raise MalformedQueryError(f"query mentions unknown node {next(iter(unknown))!r}")
    return masks, amask, bmask, cmask


def c_separated(
    g: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
) -> bool:
    """Decide whether ``a`` and ``b`` are c-separated given ``given``."""
    masks, amask, bmask, cmask = _query_masks(g, a, b, given)
    _, ln, pa, ch, sp, table = masks
    return kernel.separated(table, ln, pa, ch, sp, amask, bmask, cmask)


def c_connecting_witness(
    g: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
) -> Optional[Walk]:
    """A c-connecting walk between ``a`` and ``b`` given ``given``, or None.

    The walk of ``kernel.connecting_walk``, from the search that decides
    :func:`c_separated`.  Each of its sections is a shortest line path,
    but the walk need not be shortest in edges.
    """
    masks, amask, bmask, cmask = _query_masks(g, a, b, given)
    return _walk(g, masks, amask, bmask, cmask)


def _walk(
    g: MixedGraph, masks: tuple, amask: int, bmask: int, cmask: int
) -> Optional[Walk]:
    """``kernel.connecting_walk`` on ``g.masks``, as a labelled :class:`Walk`."""
    _, ln, pa, ch, sp, table = masks
    found = kernel.connecting_walk(table, ln, pa, ch, sp, amask, bmask, cmask)
    if found is None:
        return None
    positions, steps = found
    nodes = g.nodes
    edges = []
    for kind, x, y in steps:
        x, y = nodes[x], nodes[y]
        if kind == 1:
            edges.append((ARROW, x, y))
        else:
            edges.append((ARC if kind else LINE, min(x, y), max(x, y)))
    return Walk(tuple(nodes[k] for k in positions), tuple(edges))


# -- edge-stepping simulation (ground-truth oracle) ------------------------


def bounded_walk_oracle(
    g: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
    *,
    maxlen: Optional[int] = None,
    mode: str = MODE_WALKS,
) -> bool:
    """Ground-truth separation check by walk simulation up to ``maxlen`` edges.

    ``mode=walks-in-C`` applies the connecting-walk criterion literally:
    collider sections must meet the conditioning set, non-collider
    sections must avoid it.  ``mode=paths-in-antC`` checks the
    normalized variant in which collider sections must lie entirely
    inside C together with its anteriors.  Any connecting walk
    normalizes to one of at most ``2|V|^2`` edges, so the default bound
    of ``4|V|^2`` is exhaustive; smaller bounds than ``2|V|^2`` raise
    :class:`BoundTooSmallError`.
    """
    q = SeparationQuery.of(a, b, given)
    _require_cmg(g)
    _check_query(g.node_set, q)
    if not q.a or not q.b:
        return True
    n = len(g.nodes)
    floor = 2 * n * n
    if maxlen is None:
        maxlen = 4 * n * n
    if maxlen < floor:
        raise BoundTooSmallError(f"maxlen {maxlen} below sufficiency bound {floor}")
    if mode == MODE_WALKS:
        in_bad = q.given  # non-collider sections must avoid this
        collider_ok = lambda all_good, touched: touched  # noqa: E731
        in_good = q.given  # collider sections must touch this
    elif mode == MODE_PATHS:
        s = q.given | anteriors(g, q.given)
        in_bad = q.given
        in_good = s
        collider_ok = lambda all_good, touched: all_good  # noqa: E731
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")

    steps = g.incidences
    # state: (node, entered-with-head, section-all-in-good, section-clean-of-bad)
    start = [(v, False, v in in_good, v not in in_bad) for v in sorted(q.a)]
    seen = set(start)
    frontier = list(start)
    for _ in range(maxlen):
        if not frontier:
            break
        nxt = []
        for v, head, all_good, clean in frontier:
            if v in q.b and clean:
                return False  # endpoint section is a non-collider
            for w, head_here, head_there, edge in steps[v]:
                if edge[0] == LINE:
                    state = (w, head, all_good and w in in_good, clean and w not in in_bad)
                else:
                    collider = head and head_here
                    if collider:
                        if not collider_ok(all_good, not clean):
                            continue
                    elif not clean:
                        continue
                    state = (w, head_there, w in in_good, w not in in_bad)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    # drain any remaining acceptance checks on the last frontier
    for v, head, all_good, clean in frontier:
        if v in q.b and clean:
            return False
    return True


def moral_separated(
    g: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
) -> bool:
    """Moralization criterion for chain graphs.

    Separated iff in the moral graph of the subgraph induced by the
    query nodes and their anteriors, every path between ``a`` and ``b``
    passes through ``given``.
    """
    q = SeparationQuery.of(a, b, given)
    if CG not in classify(g):
        raise NotAChainGraphError("moral separation requires a chain graph")
    _check_query(g.node_set, q)
    if not q.a or not q.b:
        return True
    base = q.a | q.b | q.given
    keep = base | anteriors(g, base)
    moral = moral_graph(g.induced_subgraph(keep))
    reach = set(q.a)
    stack = list(q.a)
    while stack:
        u = stack.pop()
        if u in q.given:
            continue  # blocked: paths may not pass through the conditioning set
        for w in moral.neighbours[u]:
            if w not in reach:
                if w in q.b:
                    return False
                reach.add(w)
                stack.append(w)
    return True


# -- independence models ---------------------------------------------------

Statement = tuple[str, str, frozenset[str]]


@dataclass(frozen=True)
class IndependenceModel:
    """All pairwise separation statements a graph induces."""

    ground: frozenset[str]
    statements: frozenset[Statement]

    def holds(self, a: Iterable[str], b: Iterable[str], given: Iterable[str]) -> bool:
        """Set-level statement: every cross pair must be separated.

        Overlapping sets and unknown nodes raise, as in ``c_separated``.
        """
        q = SeparationQuery.of(a, b, given)
        _check_query(self.ground, q)
        return all(
            (min(x, y), max(x, y), q.given) in self.statements
            for x in q.a
            for y in q.b
        )

    def sorted_statements(self) -> list[Statement]:
        return sorted(
            self.statements, key=lambda s: (s[0], s[1], len(s[2]), sorted(s[2]))
        )


# pairwise_model enumerates 2^(n-2) sets per pair; larger graphs raise
MODEL_NODE_CAP = 8


def pairwise_model(g: MixedGraph) -> IndependenceModel:
    """Enumerate every (i, j, C) with i, j singleton-separated given C."""
    _require_cmg(g)
    if len(g.nodes) > MODEL_NODE_CAP:
        raise TooLargeError(
            f"{len(g.nodes)} nodes exceeds enumeration cap {MODEL_NODE_CAP}"
        )
    _, ln, pa, ch, sp, table = _mask_tables(g)
    n = len(g.nodes)
    found = kernel.all_pair_separations(n, table, ln, pa, ch, sp)
    stmts = labelled_statements(g.nodes, (1 << n) - 1, found)
    return IndependenceModel(g.node_set, stmts)


def labelled_statements(
    nodes: tuple[str, ...], keep: int, found: Iterable[tuple[int, int, int]]
) -> frozenset[Statement]:
    """Statements of the kernel's ``(i, j, sepmask)`` pairs over ``keep``.

    Set number ``c`` is the set of the kept nodes at the set bits of
    ``c``; the kernel's ``base`` is in none of them.
    """
    # the sets by number: each kept node doubles the table
    sets = [frozenset()]
    for v in kernel._bits(keep):
        one = frozenset((nodes[v],))
        sets += [s | one for s in sets]
    stmts = []
    for i, j, sep in found:
        x, y = nodes[i], nodes[j]
        if y < x:
            x, y = y, x
        while sep:
            low = sep & -sep
            sep ^= low
            stmts.append((x, y, sets[low.bit_length() - 1]))
    return frozenset(stmts)


def models_equal(m1: IndependenceModel, m2: IndependenceModel) -> bool:
    if m1.ground != m2.ground:
        raise GroundSetMismatchError("models are over different node sets")
    return m1.statements == m2.statements


def _unseparated_pair(g: MixedGraph) -> Optional[tuple[int, int, int]]:
    """The first non-adjacent pair that its ``D`` leaves connected, or None.

    Returns ``(i, j, D(i, j))``: positions ``i < j`` in ``g.nodes`` and
    the mask of ``ant({i, j}) \\ {i, j}`` (see :func:`is_maximal`).
    """
    _require_cmg(g)
    _, ln, pa, ch, sp, table = _mask_tables(g)
    ant = [g.anterior_masks[v] for v in g.nodes]
    n = len(g.nodes)
    for i in range(n):
        adjacent = ln[i] | pa[i] | ch[i] | sp[i]
        for j in range(i + 1, n):
            if adjacent >> j & 1:
                continue
            d = (ant[i] | ant[j]) & ~(1 << i | 1 << j)
            if not kernel.separated(table, ln, pa, ch, sp, 1 << i, 1 << j, d):
                return i, j, d
    return None


def is_maximal(g: MixedGraph) -> bool:
    """True iff every non-adjacent pair carries some separation statement.

    One separator per pair decides it, by this lemma: a non-adjacent pair
    ``i, j`` is c-separated given some set iff it is c-separated given
    ``D(i, j) = ant({i, j}) \\ {i, j}``.  Sadeghi and Lauritzen (2014,
    "Markov properties for mixed graphs", Bernoulli) give the pairwise
    Markov property of maximal graphs with this separator; Richardson and
    Spirtes (2002, "Ancestral graph Markov models", Ann. Statist.) cover
    ancestral graphs.  For CMGs the tests check the lemma against the
    enumeration in ``kernel.exists_separator``.  No node cap.
    """
    return _unseparated_pair(g) is None


@dataclass(frozen=True)
class NonMaximalityWitness:
    """A non-adjacent pair that no set separates, and a walk that
    c-connects it given ``D(i, j)`` (see :func:`is_maximal`).
    """

    endpoints: tuple[str, str]  # in the order of g.nodes
    walk: Walk


def non_maximality_witness(g: MixedGraph) -> Optional[NonMaximalityWitness]:
    """The first pair that breaks maximality, with its walk; None iff maximal."""
    found = _unseparated_pair(g)
    if found is None:
        return None
    i, j, d = found
    walk = _walk(g, _mask_tables(g), 1 << i, 1 << j, d)
    return NonMaximalityWitness((g.nodes[i], g.nodes[j]), walk)
