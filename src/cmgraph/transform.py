"""Latent projection, conditioning, and anterial closure for CMGs.

Marginalization rewrites a chain mixed graph so that the surviving nodes
induce the same independence model with the marginalized nodes removed;
conditioning does the same for nodes fixed by observation.  Both work by
generating endpoint-identical edges across tripaths and trislides until
a fixpoint, then deleting (or de-arrowing) the affected nodes.  The
anterial closure turns the result into an anterial graph with the same
model.

Edge-generation rules, written with ``m`` a marginalized node, ``s`` a
node of S = C together with its anteriors, and sections drawn as
``--..--``:

flank stage (an entry edge into a section: ``m -> i`` when
marginalizing, ``s <-> i`` when conditioning; ``e *-> i`` stands for
either)::

    e *-> i --..-- o <- j   =>   j -> i
    e *-> i --..-- o <-> j  =>   i <-> j

marginalize, tripath stage (inner node ``m``)::

    i <- m <- j   =>  i <- j        i <- m -> j   =>  i <-> j
    i <- m -- j   =>  i <- j        i <- m <-> j  =>  i <-> j
    i <-> m -- j  =>  i <-> j       i -- m <- j   =>  i <- j
    i -- m -- j   =>  i -- j

condition, collider stage (inner section inside S)::

    i -> s --..-- s <- j    =>  i -- j
    i <-> s --..-- s <- j   =>  j -> i
    i <-> s --..-- s <-> j  =>  i <-> j

The collider stage never uses lines it generated itself to build new
sections.  Afterwards every arrowhead pointing at S is removed (arrows
into S become lines, arcs at S lose that head) and the conditioned nodes
are deleted.

anterial closure, generate stage (``k`` anterior of ``i`` in the first
pair, the section anterior of ``i`` in the second)::

    j -> o --..-- i <-> k      =>  j -> i
    j <-> o --..-- i <-> k     =>  i <-> j
    j -> k1 --..-- km <-> i    =>  j -> i
    j <-> k1 --..-- km <-> i   =>  j <-> i

This is the flank stage once more, entered through an arc ``u <-> i``
and generating for each target ``t``: ``u`` when ``i`` is anterior of
``u``, ``i`` when ``u`` is anterior of ``i``.  A generated edge stands
for a walk whose inner sections are anterior to the target it was
generated for, so it may feed a later match only where that walk stays
anterior to the new target.  Every far node of a section from ``u``
avoiding ``i`` is anterior to (or is) either target, so a generated
arrow, whose target is its head, and the entry arc always qualify.  A
generated arc ``j <-> o`` at the far node ``o`` qualifies for ``t`` iff
it was generated for ``o`` or ``j`` is anterior to (or is) ``t``.
Afterwards an arc with one end anterior to the other becomes an arrow
out of that end, and an arc with each end anterior to the other becomes
a line.

Every rule engine runs on ``_Work``: list copies of the per-node int
masks ``ln``, ``pa``, ``ch`` and ``sp`` over ``g.nodes`` that the input
graph caches once (``MixedGraph.masks``), with M, S and every other
node set as one mask.  The far flanks of the sections from a node are
the OR of ``pa`` and ``sp`` over its line reach, and a rule adds all
the edges of one flank with one mask operation (``_link``).  Every
rule stage rescans in index order until a round adds nothing.  Lines
are fixed inside every stage that searches sections: the flank and
anterial generate stages add only arrows and arcs, and the lines that
the collider stage makes go to a table of their own that no section
reads.  Section reach is therefore memoized per
(node, blocked mask).  One emitter, ``_condition_strip_heads``, strips
the heads at S and deletes C or M while it writes the output edges.

The projection-class tests search the same sections with
``_section_flanks``: one search from ``i`` avoiding ``k`` per arc
``k <-> i`` finds every collider trislide at that arc.  The edge oracles
read the immutable graph's own indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    NotACMGError,
    NotAnAnGError,
    TransformSpecError,
)
from .graph import (
    ANG,
    ARC,
    ARROW,
    LINE,
    MixedGraph,
    classify,
    label_set,
    mask_of,
)
from .kernel import _bits, line_reach


@dataclass(frozen=True)
class TransformSpec:
    """Disjoint marginalization and conditioning sets."""

    m: frozenset[str]
    c: frozenset[str]

    @classmethod
    def of(cls, m: Iterable[str] = (), c: Iterable[str] = ()) -> "TransformSpec":
        m, c = label_set(m, TransformSpecError), label_set(c, TransformSpecError)
        if m & c:
            raise TransformSpecError("marginalization and conditioning sets overlap")
        return cls(m, c)


def _require_cmg(g: MixedGraph) -> None:
    if not g.is_cmg:
        raise NotACMGError("transform input has a semi-directed cycle with an arrow")


class _Work:
    """Node masks of a graph under rewrite, with a line-reach memo.

    ``index``, ``ln``, ``pa``, ``ch`` and ``sp`` start as the input's
    cached ``g.masks``: ``index`` is shared, and the four masks are
    copied into lists that the rule stages change in place, so the
    input's own masks stay as they are.
    """

    def __init__(self, g: MixedGraph):
        self.nodes = g.nodes
        self.index, ln, pa, ch, sp, _ = g.masks
        self.ln, self.pa, self.ch, self.sp = list(ln), list(pa), list(ch), list(sp)
        self._reach: dict[tuple[int, int], int] = {}

    def line_reach(self, v: int, blocked: int) -> int:
        """Mask of the nodes joined to node ``v`` by a line walk avoiding the mask ``blocked``.

        ``v`` itself is never blocked.  Memoized: the stages that search
        sections add no lines.
        """
        key = (v, blocked)
        r = self._reach.get(key)
        if r is None:
            r = self._reach[key] = line_reach(self.ln, 1 << v, blocked)
        return r

    def to_graph(self, s: int = 0, c: int = 0) -> MixedGraph:
        """The output graph: heads at the mask ``s`` stripped, the mask ``c`` deleted."""
        return _condition_strip_heads(self.nodes, self.ln, self.pa, self.ch, self.sp, s, c)


def _section_flanks(reach, pa: list[int], ch: list[int], sp: list[int], v: int, stop: int):
    """Masks of the far flanks of the sections from node ``v``: (tails, arc ends).

    ``j`` is in ``tails`` (``arcs``) when ``j -> far`` (``j <-> far``) for
    some ``far`` joined to ``v`` by a line walk that avoids the node mask
    ``stop`` and ``j`` itself; ``j`` is neither ``v`` nor in ``stop``.
    ``reach(v, blocked)`` is a line-reach memo such as ``_Work.line_reach``.
    """
    r = reach(v, stop)
    tails = arcs = 0
    rest = r
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        tails |= pa[w]
        arcs |= sp[w]
    drop = stop | (1 << v)
    tails &= ~drop
    arcs &= ~drop
    # blocking j changes nothing unless the walk can reach j
    inner = (tails | arcs) & r
    while inner:
        low = inner & -inner
        inner ^= low
        j = low.bit_length() - 1
        r_j = reach(v, stop | low)
        if not ch[j] & r_j:
            tails &= ~low
        if not sp[j] & r_j:
            arcs &= ~low
    return tails, arcs


def _link(v: int, others: int, at_v: list[int], at_other: list[int]) -> bool:
    """Join node ``v`` to each node ``j`` of the mask ``others``.

    Sets ``others`` in ``at_v[v]`` and ``v`` in ``at_other[j]``: pass
    ``(pa, ch)`` for arrows into ``v``, ``(ch, pa)`` for arrows out of it,
    and one table twice for lines or arcs.  True if an edge is new.
    """
    new = others & ~at_v[v]
    if not new:
        return False
    at_v[v] |= new
    vbit = 1 << v
    while new:
        low = new & -new
        new ^= low
        at_other[low.bit_length() - 1] |= vbit
    return True


def _flank_stage(w: _Work, entry: list[int], removed: int) -> None:
    # e *-> u --..-- o <- j  =>  j -> u ; an arc far flank gives u <-> j,
    # for each e in entry[u] & removed; rescans until a round adds nothing
    reach, pa, ch, sp = w.line_reach, w.pa, w.ch, w.sp
    changed = True
    while changed:
        changed = False
        for u in range(len(pa)):
            ends = entry[u] & removed
            while ends:
                low = ends & -ends
                ends ^= low
                tails, arcs = _section_flanks(reach, pa, ch, sp, u, low)
                changed |= _link(u, tails, pa, ch)
                changed |= _link(u, arcs, sp, sp)


def _marginalize_flank_stage(w: _Work, m: int) -> None:
    # m -> u --..-- o <- j  =>  j -> u ; arc far flank gives u <-> j
    _flank_stage(w, w.pa, m)


def _condition_arc_flank_stage(w: _Work, s: int) -> None:
    # s <-> u --..-- o <- j  =>  j -> u ; arc far flank gives u <-> j
    _flank_stage(w, w.sp, s)


def _marginalize_tripath_stage(w: _Work, m: int) -> None:
    # the seven tripath rows of the module docstring, per inner node k in M;
    # rescans until a round adds nothing
    ln, pa, ch, sp = w.ln, w.pa, w.ch, w.sp
    changed = True
    while changed:
        changed = False
        rest = m
        while rest:
            kbit = rest & -rest
            rest ^= kbit
            k = kbit.bit_length() - 1
            for i in _bits(ch[k]):  # i <- k
                others = ~(1 << i)
                changed |= _link(i, (pa[k] | ln[k]) & others, pa, ch)
                changed |= _link(i, (ch[k] | sp[k]) & others, sp, sp)
            for i in _bits(ln[k]):  # i -- k
                others = ~(1 << i)
                changed |= _link(i, pa[k] & others, pa, ch)
                changed |= _link(i, ln[k] & others, ln, ln)
            for i in _bits(sp[k]):  # i <-> k
                changed |= _link(i, ln[k] & ~(1 << i), sp, sp)


def _condition_collider_stage(w: _Work, s: int) -> list[int]:
    """Run the collider rules; return the line masks they generate.

    Sections read only ``w.ln``, which this stage leaves alone, so the
    generated lines never build sections and never call for another round.
    """
    # i -> s --..-- s <- j   =>  i -- j        (both flanks arrows)
    # i <-> s --..-- s <- j  =>  j -> i        (arc flank wins the head)
    # i <-> s --..-- s <-> j =>  i <-> j
    reach, pa, ch, sp = w.line_reach, w.pa, w.ch, w.sp
    made = [0] * len(pa)
    changed = True
    while changed:
        changed = False
        rest = s
        while rest:
            sbit = rest & -rest
            rest ^= sbit
            s1 = sbit.bit_length() - 1
            heads, arcs_at = pa[s1], sp[s1]
            flanks = heads | arcs_at
            while flanks:
                low = flanks & -flanks
                flanks ^= low
                i = low.bit_length() - 1
                tails, arcs = _section_flanks(reach, pa, ch, sp, s1, low)
                if heads & low:
                    # i -> s1 --..-- o <-> j gives i -> j, but so does the
                    # search from o's arc flank j: S is closed under line
                    # reach and the same line walk leads back to s1
                    _link(i, tails, made, made)
                if arcs_at & low:
                    changed |= _link(i, tails, pa, ch)
                    changed |= _link(i, arcs, sp, sp)
    return made


def _condition_strip_heads(
    nodes: tuple[str, ...], ln: list[int], pa: list[int], ch: list[int], sp: list[int], s: int, c: int
) -> MixedGraph:
    """Strip the arrowheads at S, delete C and build the output graph.

    An arrow into S becomes a line, an arc with both ends in S a line, and
    an arc with one end in S an arrow out of that end.  Marginalization
    passes ``s = 0`` and M as ``c``: it strips nothing and deletes M.
    """
    keep = ((1 << len(nodes)) - 1) & ~c
    edges = []
    rest = keep
    while rest:
        vbit = rest & -rest
        rest ^= vbit
        v = vbit.bit_length() - 1
        if s & vbit:
            lines = ln[v] | pa[v] | ((ch[v] | sp[v]) & s)
            arrows = (ch[v] | sp[v]) & ~s
            arcs = 0
        else:
            lines = ln[v] | (ch[v] & s)
            arrows = ch[v] & ~s
            arcs = sp[v] & ~s
        above = keep & -(vbit << 1)  # each symmetric edge once, from its lower end
        x = nodes[v]
        for mask, kind in ((lines & above, LINE), (arcs & above, ARC)):
            while mask:
                low = mask & -mask
                mask ^= low
                y = nodes[low.bit_length() - 1]
                edges.append((kind, x, y) if x < y else (kind, y, x))
        arrows &= keep
        while arrows:
            low = arrows & -arrows
            arrows ^= low
            edges.append((ARROW, x, nodes[low.bit_length() - 1]))
    kept = sorted(v for k, v in enumerate(nodes) if keep >> k & 1)
    return MixedGraph(tuple(kept), frozenset(edges))



def _marginal_flank_work(g: MixedGraph, m: Iterable[str]) -> tuple[_Work, int]:
    """``g`` after the collider-flank stage, and the mask of M."""
    m = label_set(m, TransformSpecError)
    _require_cmg(g)
    g.require_nodes(m)
    w = _Work(g)
    mmask = mask_of(w.index, m)
    _marginalize_flank_stage(w, mmask)
    return w, mmask


def marginalize(g: MixedGraph, m: Iterable[str]) -> MixedGraph:
    """Project the marginalized nodes out of a chain mixed graph."""
    w, mmask = _marginal_flank_work(g, m)
    _marginalize_tripath_stage(w, mmask)
    return w.to_graph(0, mmask)


def marginalize_flank_closure(g: MixedGraph, m: Iterable[str]) -> MixedGraph:
    """The intermediate graph after the collider-flank stage only.

    The marginal edge oracle is stated over this graph rather than the
    input; it searches the same stage's masks without building it.
    """
    return _marginal_flank_work(g, m)[0].to_graph()


def condition(g: MixedGraph, c: Iterable[str]) -> MixedGraph:
    """Condition a chain mixed graph on the nodes of ``c``.

    Neither rule stage adds a line that a section reads (the arc-flank
    stage adds none, the collider stage keeps its own), so one line-reach
    memo serves both.
    """
    c = label_set(c, TransformSpecError)
    _require_cmg(g)
    g.require_nodes(c)
    w = _Work(g)
    cmask = mask_of(w.index, c)
    s = _s_mask(g, c)
    _condition_arc_flank_stage(w, s)
    made = _condition_collider_stage(w, s)
    w.ln = [a | b for a, b in zip(w.ln, made)]
    return w.to_graph(s, cmask)


def _s_mask(g: MixedGraph, c: Iterable[str]) -> int:
    """The mask of S, the nodes of ``c`` together with their anteriors."""
    index, ant = g.masks[0], g.anterior_masks
    s = 0
    for v in c:
        s |= 1 << index[v] | ant[v]
    return s


def marginalize_and_condition(
    g: MixedGraph, spec: TransformSpec, *, order: str = "mc"
) -> MixedGraph:
    """Apply both operations; ``order`` picks which runs first.

    The canonical order marginalizes first.  On maximal results the two
    orders produce the same graph; they always produce the same model.
    """
    g.require_nodes(spec.m | spec.c)
    if order == "mc":
        return condition(marginalize(g, spec.m), spec.c)
    if order == "cm":
        return marginalize(condition(g, spec.c), spec.m)
    raise ValueError(f"unknown order {order!r}")


# -- anterial closure -------------------------------------------------------


def _ang_generate(w: _Work, down: list[int]) -> None:
    # The rules and the reuse rule are in the module docstring; ``down[t]``
    # is the mask of t and its anteriors.  Rescans until a round adds nothing.
    reach, pa, ch, sp = w.line_reach, w.pa, w.ch, w.sp
    free = sp[:]  # j in free[o]: j <-> o is an input arc or was generated for o
    free_t = sp[:]  # o in free_t[j] iff j in free[o]
    changed = True
    while changed:
        changed = False
        for u in range(len(sp)):
            for i in _bits(sp[u]):
                # target u needs i anterior of u, target i needs u anterior of i
                targets = [t for t, k in ((u, i), (i, u)) if down[t] >> k & 1]
                if not targets:
                    continue
                stop = 1 << i
                tails, arcs = _section_flanks(reach, pa, ch, sp, u, stop)
                free_arcs = 0  # read only for arc ends outside down[t]
                if any(arcs & ~down[t] for t in targets):
                    free_arcs = _section_flanks(reach, free, free_t, sp, u, stop)[0]
                for t in targets:
                    changed |= _link(t, tails, pa, ch)
                    usable = arcs & down[t] | free_arcs
                    _link(t, usable, sp, sp)  # an arc new to sp is new to free
                    changed |= _link(t, usable, free, free_t)


def _ang_resolve_arcs(w: _Work, ant: list[int]) -> None:
    # x <-> v with x anterior of v becomes x -> v, or x -- v when v is
    # anterior of x as well
    ln, pa, ch, sp = w.ln, w.pa, w.ch, w.sp
    for v in range(len(sp)):
        vbit = 1 << v
        back = sp[v] & ant[v]
        sp[v] ^= back
        for x in _bits(back):
            xbit = 1 << x
            sp[x] ^= vbit
            if ant[x] & vbit:
                ln[v] |= xbit
                ln[x] |= vbit
            else:
                pa[v] |= xbit
                ch[x] |= vbit


def anterialize(h: MixedGraph) -> MixedGraph:
    """Close a chain mixed graph into an anterial graph with the same model.

    Neither stage changes anteriors: a generated arrow runs from a node
    already anterior to its head, and arc resolution follows
    anteriority.  So both stages read the input's anteriors table.
    """
    _require_cmg(h)
    w = _Work(h)
    if any(w.sp):  # both stages start from arcs: an arc-free CMG is anterial
        masks = h.anterior_masks
        ant = [masks[v] for v in h.nodes]
        _ang_generate(w, [a | 1 << k for k, a in enumerate(ant)])
        _ang_resolve_arcs(w, ant)
    return w.to_graph()


def ang_transform(g: MixedGraph, spec: TransformSpec) -> MixedGraph:
    """Condition, marginalize, then take the anterial closure."""
    g.require_nodes(spec.m | spec.c)
    return anterialize(marginalize(condition(g, spec.c), spec.m))


# -- image classes ----------------------------------------------------------


def _in_projection_class(g: MixedGraph, ij_kind: str) -> bool:
    """No arc-flanked collider trislide lacks its required edges.

    ``ij_kind`` is the edge (``ARC`` or ``LINE``) that the double-arc
    trislide needs between ``i`` and ``j``.  The sections are those of
    the flank stages, searched from ``i`` avoiding ``k``.
    """
    w = _Work(g)
    reach, ln, pa, ch, sp = w.line_reach, w.ln, w.pa, w.ch, w.sp
    ij = sp if ij_kind == ARC else ln
    for i in range(len(pa)):
        for k in _bits(sp[i]):  # k <-> i
            kbit = 1 << k
            tails, arcs = _section_flanks(reach, pa, ch, sp, i, kbit)
            # ... j <- l needs l -> i; ... j <-> l needs i <-> l
            if tails & ~pa[i] or arcs & ~sp[i]:
                return False
            # ... j <-> l with j != i also needs k <-> j and i <-> j (i -- j)
            r = reach(i, kbit)
            for j in _bits(r & ~(sp[k] & ij[i]) & ~(1 << i)):
                for l in _bits(sp[j] & arcs):
                    # blocking l changes nothing unless the walk can reach l
                    if not r >> l & 1 or reach(i, kbit | 1 << l) >> j & 1:
                        return False
    return True


def in_cg_projection_class(g: MixedGraph) -> bool:
    """Membership in the image of chain graphs under projection.

    Violated by a collider trislide ``k <-> i --..-- j <- l`` without the
    arrow ``l -> i``, or ``k <-> i --..-- j <-> l`` without all three of
    the arcs ``k <-> j``, ``i <-> l``, ``i <-> j``.
    """
    _require_cmg(g)
    return _in_projection_class(g, ARC)


def in_ang_projection_class(g: MixedGraph) -> bool:
    """Membership in the image of chain graphs under the anterial pipeline.

    Same first pattern as :func:`in_cg_projection_class`; the double-arc
    trislide instead requires the ``j <-> k`` and ``i <-> l`` arcs plus a
    line ``i -- j``.
    """
    if ANG not in classify(g):
        raise NotAnAnGError("class test requires an anterial graph")
    return _in_projection_class(g, LINE)


# -- edge-characterization oracles ------------------------------------------


def _require_oracle_endpoints(i: str, j: str, removed: frozenset[str], role: str) -> None:
    if i == j:
        raise TransformSpecError(f"edge oracle needs two distinct endpoints, got {i!r} twice")
    for v in (i, j):
        if v in removed:
            raise TransformSpecError(f"edge oracle endpoint {v!r} is in the {role} set")


def marginal_edge_oracle(g: MixedGraph, m: Iterable[str], i: str, j: str) -> bool:
    """Adjacency of i, j after marginalization, decided by walk search.

    True iff the post-flank-stage graph contains a walk from i to j whose
    inner nodes all lie in the marginalized set and whose inner sections
    are all non-colliders.  Must agree with :func:`marginalize`.

    A search over mask frontiers in node-index order on the flank stage's
    masks.  A section is its entry node's line reach through M; an entry
    state of the same mark at a node of a popped section has its section
    inside it, so one pop settles them all.  The start section at i and a section entered by a tail
    leave by any edge, a section entered by an arrowhead only by an arrow
    out of it; the search reaches j at any edge into j, lines included,
    and moves on to the states at the nodes of M that the exits enter.
    """
    m = label_set(m, TransformSpecError)
    g.require_nodes({i, j} | m)
    _require_oracle_endpoints(i, j, m, "marginalized")
    w, mmask = _marginal_flank_work(g, m)
    ln, pa, ch, sp = w.ln, w.pa, w.ch, w.sp
    target = 1 << w.index[j]
    outside = ~mmask
    pend_t = seen_t = 1 << w.index[i]
    pend_h = seen_h = 0
    while pend_t or pend_h:
        head = not pend_t
        low = pend_h & -pend_h if head else pend_t & -pend_t
        section = line_reach(ln, low, outside)
        # the line neighbours, and the exits' far ends by their entry mark
        near = tails = heads = 0
        for u in _bits(section):
            near |= ln[u]
            heads |= ch[u]
            if not head:
                tails |= pa[u]
                heads |= sp[u]
        if (near | tails | heads) & target:
            return True
        if head:
            seen_h |= section
            pend_h &= ~section
        else:
            seen_t |= section
            pend_t &= ~section
        tails &= mmask & ~seen_t
        heads &= mmask & ~seen_h
        seen_t |= tails
        seen_h |= heads
        pend_t |= tails
        pend_h |= heads
    return False


def conditional_edge_oracle(g: MixedGraph, c: Iterable[str], i: str, j: str) -> bool:
    """Adjacency of i, j after conditioning, decided by walk search in ``g``.

    True iff g has a walk between i and j whose inner sections are all
    colliders inside S = C plus anteriors, with singleton endpoint
    sections unless the endpoint has an arc into S and the flanking edge
    points into its section.  Direct edges always survive.  Must agree
    with :func:`condition`.

    A search over mask frontiers in node-index order: a head state at a
    node of S moves, over that node's line component, to tail states at
    the component's parents and head states at its spouses; a tail state
    never moves.  The search reaches j at any state at j, and at a head
    state anywhere in j's line component when j has an arc into S.
    """
    c = label_set(c, TransformSpecError)
    _require_cmg(g)
    g.require_nodes({i, j} | c)
    _require_oracle_endpoints(i, j, c, "conditioning")
    index, ln, pa, ch, sp, table = g.masks
    s = _s_mask(g, c)
    at_i, at_j = index[i], index[j]
    target = 1 << at_j
    if (ln[at_i] | pa[at_i] | ch[at_i] | sp[at_i]) & target:
        return True
    # the start section is i, or i's line component when i has an arc into S
    if sp[at_i] & s:
        _, tails, _, heads = table[at_i]
    else:
        tails, heads = pa[at_i], sp[at_i]
    heads |= ch[at_i]
    goal = table[at_j][0] if sp[at_j] & s else target
    done = 0
    frontier = heads & s
    while frontier and not (tails & target or heads & goal):
        comp, cpa, _, csp = table[(frontier & -frontier).bit_length() - 1]
        done |= comp
        tails |= cpa
        heads |= csp
        frontier = heads & s & ~done
    return bool(tails & target or heads & goal)


def subprimitive_walk_exists(h: MixedGraph, j: str, i: str) -> bool:
    """Inducing-walk test behind the anterial closure's adjacencies.

    True iff ``h`` has a walk from j to i with singleton endpoint
    sections whose inner sections are all colliders lying inside the
    anteriors of i (i itself allowed).  Direct edges count.  Adjacency in
    :func:`anterialize` equals this test in one direction or the other.

    A search over mask frontiers: a head state at a node anterior to i
    (or at i) moves, over the line reach of that node, to tail states at
    its parents and head states at its spouses; a tail state never moves.
    """
    _require_cmg(h)
    h.require_nodes({i, j})
    if i == j:
        return False
    index, ln, pa, ch, sp, _ = h.masks
    at_j, target = index[j], 1 << index[i]
    allowed = h.anterior_masks[i] | target
    reached = ln[at_j] | pa[at_j] | ch[at_j] | sp[at_j]
    heads = done = 0
    frontier = ch[at_j] | sp[at_j]
    while frontier and not reached & target:
        heads |= frontier
        far = line_reach(ln, frontier & allowed & ~done, ~allowed)
        done |= far
        entered = 0
        for w in _bits(far):
            reached |= pa[w]
            entered |= sp[w]
        reached |= entered
        frontier = entered & ~heads
    return bool(reached & target)
