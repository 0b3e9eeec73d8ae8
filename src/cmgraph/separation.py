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

from collections.abc import Set
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
    mask_of,
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
def _mask_tables(g: MixedGraph) -> tuple[tuple[int, int, int, int], ...]:
    """The graph's cached ``g.components``, the table every search takes."""
    return g.components


def _query_masks(g: MixedGraph, a, b, given) -> tuple[tuple, int, int, int, int]:
    """``(g.components, amask, bmask, cmask, within)`` of a query, checked in one pass.

    ``within`` is U, the OR of ``upward_masks`` over the query's nodes,
    the bound of ``kernel.separated``; it is gathered as each bit is set.
    Raises what :meth:`SeparationQuery.of`, :func:`_require_cmg` and
    :func:`_check_query` raise, in that order: a bare ``str``, overlapping
    sets, a graph that is no CMG, an unknown node.  Until the last check
    an unknown label holds a bit past the graph's nodes, and adds nothing
    to U.
    """
    for labels in (a, b, given):
        if isinstance(labels, str):
            label_set(labels, MalformedQueryError)  # raises
    table = _mask_tables(g)
    index = g.index
    up = g.upward_masks if g.is_cmg else None  # no CMG raises below
    unknown = None
    within = 0
    out = []
    for labels in (a, b, given):
        m = 0
        for v in labels:
            bit = index.get(v)
            if bit is None:
                if unknown is None:
                    unknown = {}
                bit = unknown.setdefault(v, len(index) + len(unknown))
            elif up is not None:
                within |= up[bit]
            m |= 1 << bit
        out.append(m)
    amask, bmask, cmask = out
    if amask & bmask or amask & cmask or bmask & cmask:
        raise MalformedQueryError("query sets must be pairwise disjoint")
    _require_cmg(g)
    if unknown:
        raise MalformedQueryError(f"query mentions unknown node {next(iter(unknown))!r}")
    return table, amask, bmask, cmask, within


# the key, in a graph's ``__dict__``, of the last connected query's trail
_LAST_TRAIL = "_last_connected_trail"


def c_separated(
    g: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
) -> bool:
    """Decide whether ``a`` and ``b`` are c-separated given ``given``.

    The search enters only the anteriors of the query's nodes, which
    decides the same (see ``kernel.separated``).  A connected query leaves
    ``(amask, bmask, cmask, trail)`` in a one-entry slot in
    ``g.__dict__``, beside the lazy tables, so that
    :func:`c_connecting_witness` on the same query spells its walk
    without searching again.  Pickles, ``==`` and ``hash`` never read it.
    """
    table, amask, bmask, cmask, within = _query_masks(g, a, b, given)
    trail: list = []
    if kernel.separated(
        table, g.ln, g.pa, g.ch, g.sp, amask, bmask, cmask, trail, within
    ):
        return True
    g.__dict__[_LAST_TRAIL] = (amask, bmask, cmask, trail)
    return False


def c_connecting_witness(
    g: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
) -> Optional[Walk]:
    """A c-connecting walk between ``a`` and ``b`` given ``given``, or None.

    The walk that ``kernel.spell`` reads off the trail of the search
    that decides :func:`c_separated`.  Each of its sections is a shortest
    line path, but the walk need not be shortest in edges.  Right after
    :func:`c_separated` found the same query connected on ``g``, the
    walk is spelled from that search's trail, so the query costs one
    search; otherwise this runs the same bounded ``kernel.separated``
    search itself.  The query is checked first either way, with the same
    errors.
    """
    table, amask, bmask, cmask, within = _query_masks(g, a, b, given)
    last = g.__dict__.get(_LAST_TRAIL)
    if last is None or last[:3] != (amask, bmask, cmask):
        last = (amask, bmask, cmask, [])
        if kernel.separated(table, g.ln, g.pa, g.ch, g.sp, *last, within):
            return None
    return _walk(g, *last)


def _walk(g: MixedGraph, amask: int, bmask: int, cmask: int, trail: list) -> Walk:
    """The query's c-connecting walk on ``g`` as a labelled :class:`Walk`.

    ``trail`` is the accepting trail of a ``kernel.separated`` search of
    this query, and ``kernel.spell`` reads the walk off it.  Nothing is
    searched here: the callers searched, :func:`c_connecting_witness` or
    :func:`c_separated` before it, and :func:`_unseparated_pair` for
    :func:`non_maximality_witness`.
    """
    positions, steps = kernel.spell(g.ln, g.pa, g.ch, g.sp, amask, bmask, cmask, trail)
    nodes = g.nodes
    edges = []
    for kind, x, y in steps:
        x, y = nodes[x], nodes[y]
        if kind == 1:
            edges.append((ARROW, x, y))
        else:
            kind = ARC if kind else LINE
            edges.append((kind, x, y) if x < y else (kind, y, x))
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
    index = moral.index
    # paths may not pass through the conditioning set
    reach = kernel.line_reach(moral.ln, mask_of(index, q.a), mask_of(index, q.given))
    return not reach & mask_of(index, q.b)


# -- independence models ---------------------------------------------------

Statement = tuple[str, str, frozenset[str]]


def _pair_index(a: int, b: int, k: int) -> int:
    """Position of the pair ``a < b`` among the pairs of ``k`` labels in order."""
    return a * (2 * k - a - 1) // 2 + b - a - 1


def _init(model, ground, labels, masks) -> None:
    object.__setattr__(model, "ground", ground)
    object.__setattr__(model, "labels", labels)
    object.__setattr__(model, "masks", masks)


class IndependenceModel:
    """All pairwise separation statements a graph induces.

    ``labels`` is the ground set in sorted order.  ``masks`` holds one
    integer per pair ``a < b`` of it, in that order: bit ``c`` is set
    iff the pair is separated given set number ``c``, the labels at the
    set bits of ``c`` (bit t for the t-th label).  Equality and hashing
    read ``(ground, masks)``; :attr:`statements` decodes them on demand.
    The constructor encodes an iterable of ``(x, y, C)`` statements.
    """

    __slots__ = ("ground", "labels", "masks")

    def __init__(self, ground: Iterable[str], statements: Iterable[Statement] = ()):
        ground = frozenset(ground)
        labels = tuple(sorted(ground))
        rank = {v: t for t, v in enumerate(labels)}
        k = len(labels)
        masks = [0] * (k * (k - 1) // 2)
        for x, y, given in statements:
            try:
                a, b = sorted((rank[x], rank[y]))
                c = sum(1 << rank[v] for v in given)
            except KeyError as exc:
                raise MalformedQueryError(f"statement mentions unknown node {exc}") from None
            if a == b or c >> a & 1 or c >> b & 1:
                raise MalformedQueryError(f"statement sets overlap: {(x, y, given)!r}")
            masks[_pair_index(a, b, k)] |= 1 << c
        _init(self, ground, labels, tuple(masks))

    @classmethod
    def _of_masks(cls, ground, labels, masks) -> "IndependenceModel":
        """The model of ``masks`` over ``labels``, the sorted ``ground``."""
        model = cls.__new__(cls)
        _init(model, ground, labels, masks)
        return model

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return IndependenceModel._of_masks, (self.ground, self.labels, self.masks)

    def __eq__(self, other):
        if not isinstance(other, IndependenceModel):
            return NotImplemented
        return self.ground == other.ground and self.masks == other.masks

    def __hash__(self):
        return hash((self.ground, self.masks))

    def __repr__(self):
        return f"IndependenceModel({sorted(self.ground)!r}, {self.sorted_statements()!r})"

    def _ranks(self) -> dict[str, int]:
        """Position of each label in :attr:`labels`."""
        return {v: t for t, v in enumerate(self.labels)}

    @property
    def statements(self) -> "StatementView":
        """The statements ``(x, y, C)``, ``x < y``, as a lazy set view."""
        return StatementView(self)

    def holds(self, a: Iterable[str], b: Iterable[str], given: Iterable[str]) -> bool:
        """Set-level statement: every cross pair must be separated.

        Overlapping sets and unknown nodes raise, as in ``c_separated``.
        """
        q = SeparationQuery.of(a, b, given)
        _check_query(self.ground, q)
        rank = self._ranks()
        k = len(self.labels)
        c = sum(1 << rank[v] for v in q.given)
        for x in q.a:
            for y in q.b:
                i, j = sorted((rank[x], rank[y]))
                if not self.masks[_pair_index(i, j, k)] >> c & 1:
                    return False
        return True

    def sorted_statements(self) -> list[Statement]:
        return sorted(
            self.statements, key=lambda s: (s[0], s[1], len(s[2]), sorted(s[2]))
        )


class StatementView(Set):
    """The statements of an :class:`IndependenceModel`, decoded on demand.

    A read-only ``collections.abc.Set`` that compares and hashes equal to
    the ``frozenset`` of its statements.  ``len`` counts bits and ``in``
    tests one; only iteration decodes.
    """

    __slots__ = ("_model",)

    def __init__(self, model: IndependenceModel):
        self._model = model

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self) -> int:
        return sum(map(int.bit_count, self._model.masks))

    def __contains__(self, stmt) -> bool:
        model = self._model
        if not (isinstance(stmt, tuple) and len(stmt) == 3):
            return False
        x, y, given = stmt
        if not isinstance(given, (set, frozenset)):
            return False
        rank = model._ranks()
        try:
            a, b = rank[x], rank[y]
            c = sum(1 << rank[v] for v in given)
        except (KeyError, TypeError):
            return False
        return a < b and bool(model.masks[_pair_index(a, b, len(model.labels))] >> c & 1)

    def __iter__(self):
        labels = self._model.labels
        # the sets by number: each label doubles the table
        sets = [frozenset()]
        for v in labels:
            one = frozenset((v,))
            sets += [s | one for s in sets]
        pairs = ((x, y) for a, x in enumerate(labels) for y in labels[a + 1 :])
        for (x, y), sep in zip(pairs, self._model.masks):
            for c in kernel._bits(sep):
                yield x, y, sets[c]

    def __hash__(self):
        return self._hash()

    def __repr__(self):
        return f"StatementView({set(self)!r})"


# pairwise_model enumerates 2^(n-2) sets per pair; larger graphs raise
MODEL_NODE_CAP = 8


def pairwise_model(g: MixedGraph) -> IndependenceModel:
    """Enumerate every (i, j, C) with i, j singleton-separated given C."""
    _require_cmg(g)
    if len(g.nodes) > MODEL_NODE_CAP:
        raise TooLargeError(
            f"{len(g.nodes)} nodes exceeds enumeration cap {MODEL_NODE_CAP}"
        )
    n = len(g.nodes)
    found = kernel.all_pair_separations(n, _mask_tables(g), g.ln, g.pa, g.ch, g.sp)
    return kernel_model(g.nodes, (1 << n) - 1, found)


def kernel_model(
    nodes: tuple[str, ...], keep: int, found: list[tuple[int, int, int]]
) -> IndependenceModel:
    """The model over the labels of ``keep`` of the kernel's ``(i, j, sepmask)`` pairs.

    ``found`` is ``kernel.pair_separations`` over the node mask ``keep``
    of the graph with node tuple ``nodes``.  The kernel numbers the kept
    nodes in the order of ``nodes``, which is sorted, so its masks are the
    model's as they are.
    """
    if keep == (1 << len(nodes)) - 1:
        labels = nodes
    else:
        labels = tuple(nodes[v] for v in kernel._bits(keep))
    return IndependenceModel._of_masks(frozenset(labels), labels, tuple([f[2] for f in found]))


def models_equal(m1: IndependenceModel, m2: IndependenceModel) -> bool:
    if m1.ground != m2.ground:
        raise GroundSetMismatchError("models are over different node sets")
    return m1.masks == m2.masks


def _unseparated_pair(
    g: MixedGraph, trail: Optional[list] = None
) -> Optional[tuple[int, int, int]]:
    """The first non-adjacent pair that its ``D`` leaves connected, or None.

    Returns ``(i, j, D(i, j))``: positions ``i < j`` in the sorted
    ``g.nodes``, so ``g.nodes[i] < g.nodes[j]``, and the mask of
    ``ant({i, j}) \\ {i, j}`` (see :func:`is_maximal`).  With a ``trail``
    list, as in ``kernel.separated``, the searches record their trails in
    it, and it ends as that of the search that found the pair connected,
    for ``kernel.spell``.
    """
    _require_cmg(g)
    table = _mask_tables(g)
    ln, pa, ch, sp, up = g.ln, g.pa, g.ch, g.sp, g.upward_masks
    n = len(g.nodes)
    for i in range(n):
        adjacent = ln[i] | pa[i] | ch[i] | sp[i]
        for j in range(i + 1, n):
            if adjacent >> j & 1:
                continue
            pair = 1 << i | 1 << j
            d = (up[i] | up[j]) & ~pair
            # d | pair is the OR of upward_masks over the query's nodes
            if not kernel.separated(
                table, ln, pa, ch, sp, 1 << i, 1 << j, d, trail, d | pair
            ):
                return i, j, d
            if trail is not None:
                trail.clear()
    return None


def is_maximal(g: MixedGraph) -> bool:
    """True iff every non-adjacent pair carries some separation statement.

    One separator per pair decides it, by this lemma: a non-adjacent pair
    ``i, j`` is c-separated given some set iff it is c-separated given
    ``D(i, j) = ant({i, j}) \\ {i, j}``.  The closest source is
    Sadeghi and Lauritzen (2018, "Unifying Markov properties for
    graphical models", Ann. Statist.), whose pairwise Markov property for
    chain mixed graphs uses this separator and is equivalent to the
    global one for compositional graphoids.  Sadeghi and Lauritzen (2014,
    "Markov properties for mixed graphs", Bernoulli) give the pairwise
    Markov property of maximal graphs with it; Richardson and Spirtes
    (2002, "Ancestral graph Markov models", Ann. Statist.) cover
    ancestral graphs.  The lemma is not proved here for CMGs: the tests
    check it against the enumeration in ``kernel.exists_separator``.  No
    node cap.
    """
    return _unseparated_pair(g) is None


@dataclass(frozen=True)
class NonMaximalityWitness:
    """A non-adjacent pair that no set separates, and a walk that
    c-connects it given ``D(i, j)`` (see :func:`is_maximal`).
    """

    endpoints: tuple[str, str]  # in sorted order
    walk: Walk


def non_maximality_witness(g: MixedGraph) -> Optional[NonMaximalityWitness]:
    """The first pair that breaks maximality, with its walk; None iff maximal."""
    trail: list = []
    found = _unseparated_pair(g, trail)
    if found is None:
        return None
    i, j, d = found
    walk = _walk(g, 1 << i, 1 << j, d, trail)
    return NonMaximalityWitness((g.nodes[i], g.nodes[j]), walk)
