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

A generated edge may feed a later anterial match only for a target
inside the anterior scope it was generated for.  Afterwards an arc with
one end anterior to the other becomes an arrow out of that end, and an
arc with each end anterior to the other becomes a line.

Lines are fixed inside every stage that searches sections: the flank
and anterial generate stages add only arrows and arcs, and the lines
that the collider stage makes go to a table of their own that no
section reads.  Section reach is therefore memoized per (node, blocked
set).

Marginalization and conditioning run on node masks: per-node int masks
``ln``, ``pa``, ``ch`` and ``sp`` over ``g.nodes`` (``graph.mask_tables``),
with M or S as one mask.  The far flanks of the sections from a node are
the OR of ``pa`` and ``sp`` over its line reach, and a rule adds all the
edges of one flank with one mask operation (``_link``).  One flank stage
serves both transforms; it enters a section through ``pa[u] & M`` or
``sp[u] & S``.  Every rule stage rescans until a round adds nothing.
One emitter, ``_condition_strip_heads``, strips the heads at S and
deletes C or M while it writes the output edges.

The projection-class tests search the same sections with
``_section_flanks``: one search from ``i`` avoiding ``k`` per arc
``k <-> i`` finds every collider trislide at that arc.

Only the anterial closure still rewrites ``_Work``, the string-keyed
edge store, whose reach memo is dropped whenever a line is added.  Its
generate stage runs a worklist instead of rescanning (see
``_ang_generate``), reads anteriors from the input graph's
``anterior_masks`` table and keeps scopes as node masks.  The edge
oracles read the immutable graph's own indexes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

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
    anteriors,
    build_graph,
    classify,
    label_set,
    mask_of,
    mask_tables,
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
    """Mutable string-keyed edge store of the anterial closure."""

    def __init__(self, g: MixedGraph):
        self.nodes: set[str] = set(g.nodes)
        self.lines: set[tuple[str, str]] = set()
        self.arrows: set[tuple[str, str]] = set()
        self.arcs: set[tuple[str, str]] = set()
        self.ne: dict[str, set[str]] = defaultdict(set)
        self.pa: dict[str, set[str]] = defaultdict(set)
        self.sp: dict[str, set[str]] = defaultdict(set)
        self._reach: dict[tuple[str, frozenset[str]], frozenset[str]] = {}
        for kind, x, y in g.edges:
            if kind == LINE:
                self.add_line(x, y)
            elif kind == ARROW:
                self.add_arrow(x, y)
            else:
                self.add_arc(x, y)

    def add_line(self, x: str, y: str) -> bool:
        pair = (min(x, y), max(x, y))
        if pair in self.lines:
            return False
        self.lines.add(pair)
        self.ne[x].add(y)
        self.ne[y].add(x)
        self._reach.clear()
        return True

    def add_arrow(self, tail: str, head: str) -> bool:
        if (tail, head) in self.arrows:
            return False
        self.arrows.add((tail, head))
        self.pa[head].add(tail)
        return True

    def add_arc(self, x: str, y: str) -> bool:
        pair = (min(x, y), max(x, y))
        if pair in self.arcs:
            return False
        self.arcs.add(pair)
        self.sp[x].add(y)
        self.sp[y].add(x)
        return True

    def remove_arc(self, x: str, y: str) -> None:
        self.arcs.discard((min(x, y), max(x, y)))
        self.sp[x].discard(y)
        self.sp[y].discard(x)

    def line_reach(self, v: str, blocked: frozenset[str] = frozenset()) -> frozenset[str]:
        """Nodes joined to ``v`` by a line walk avoiding ``blocked``.

        Empty when ``v`` itself is blocked.  Memoized until a line is added.
        """
        key = (v, blocked)
        out = self._reach.get(key)
        if out is None:
            if v in blocked:
                out = frozenset()
            else:
                seen = {v}
                stack = [v]
                while stack:
                    for u in self.ne[stack.pop()]:
                        if u not in seen and u not in blocked:
                            seen.add(u)
                            stack.append(u)
                out = frozenset(seen)
            self._reach[key] = out
        return out

    def to_graph(self) -> MixedGraph:
        edges = [(x, y, LINE) for x, y in self.lines]
        edges += [(t, h, ARROW) for t, h in self.arrows]
        edges += [(x, y, ARC) for x, y in self.arcs]
        return build_graph(sorted(self.nodes), edges)


def _mask_reach(ln: list[int]):
    """Line reach over the fixed line masks ``ln``, memoized by (node, blocked mask).

    ``reach(v, blocked)`` is the mask of the nodes joined to node ``v`` by
    a line walk avoiding ``blocked``; ``v`` is never blocked.
    """
    memo: dict[tuple[int, int], int] = {}

    def reach(v: int, blocked: int) -> int:
        key = (v, blocked)
        r = memo.get(key)
        if r is None:
            r = memo[key] = line_reach(ln, 1 << v, blocked)
        return r

    return reach


def _section_flanks(reach, pa: list[int], ch: list[int], sp: list[int], v: int, stop: int):
    """Masks of the far flanks of the sections from node ``v``: (tails, arc ends).

    ``j`` is in ``tails`` (``arcs``) when ``j -> far`` (``j <-> far``) for
    some ``far`` joined to ``v`` by a line walk that avoids the node mask
    ``stop`` and ``j`` itself; ``j`` is neither ``v`` nor in ``stop``.
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


def _flank_stage(
    reach, pa: list[int], ch: list[int], sp: list[int], entry: list[int], removed: int
) -> None:
    # e *-> u --..-- o <- j  =>  j -> u ; an arc far flank gives u <-> j,
    # for each e in entry[u] & removed; rescans until a round adds nothing
    n = len(pa)
    changed = True
    while changed:
        changed = False
        for u in range(n):
            ends = entry[u] & removed
            while ends:
                low = ends & -ends
                ends ^= low
                tails, arcs = _section_flanks(reach, pa, ch, sp, u, low)
                changed |= _link(u, tails, pa, ch)
                changed |= _link(u, arcs, sp, sp)


def _marginalize_flank_stage(reach, pa: list[int], ch: list[int], sp: list[int], m: int) -> None:
    # m -> u --..-- o <- j  =>  j -> u ; arc far flank gives u <-> j
    _flank_stage(reach, pa, ch, sp, pa, m)


def _condition_arc_flank_stage(reach, pa: list[int], ch: list[int], sp: list[int], s: int) -> None:
    # s <-> u --..-- o <- j  =>  j -> u ; arc far flank gives u <-> j
    _flank_stage(reach, pa, ch, sp, sp, s)


def _marginalize_tripath_stage(
    ln: list[int], pa: list[int], ch: list[int], sp: list[int], m: int
) -> None:
    # the seven tripath rows of the module docstring, per inner node k in M;
    # rescans until a round adds nothing
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


def _condition_collider_stage(
    reach, pa: list[int], ch: list[int], sp: list[int], s: int
) -> list[int]:
    """Run the collider rules; return the line masks they generate.

    Sections read only the lines that ``reach`` was built on, so the
    generated lines never build sections and never call for another round.
    """
    # i -> s --..-- s <- j   =>  i -- j        (both flanks arrows)
    # i <-> s --..-- s <- j  =>  j -> i        (arc flank wins the head)
    # i <-> s --..-- s <-> j =>  i <-> j
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


def _marginal_flank_tables(g: MixedGraph, m: Iterable[str]):
    """Node masks of ``g`` after the collider-flank stage: (M, ln, pa, ch, sp)."""
    m = label_set(m, TransformSpecError)
    _require_cmg(g)
    g.require_nodes(m)
    index, ln, pa, ch, sp = mask_tables(g)
    mmask = mask_of(index, m)
    _marginalize_flank_stage(_mask_reach(ln), pa, ch, sp, mmask)
    return mmask, ln, pa, ch, sp


def marginalize(g: MixedGraph, m: Iterable[str]) -> MixedGraph:
    """Project the marginalized nodes out of a chain mixed graph."""
    mmask, ln, pa, ch, sp = _marginal_flank_tables(g, m)
    _marginalize_tripath_stage(ln, pa, ch, sp, mmask)
    return _condition_strip_heads(g.nodes, ln, pa, ch, sp, 0, mmask)


def marginalize_flank_closure(g: MixedGraph, m: Iterable[str]) -> MixedGraph:
    """The intermediate graph after the collider-flank stage only.

    Exposed for the marginal edge oracle, which is stated over this
    graph rather than the input.
    """
    _, ln, pa, ch, sp = _marginal_flank_tables(g, m)
    return _condition_strip_heads(g.nodes, ln, pa, ch, sp, 0, 0)


def condition(g: MixedGraph, c: Iterable[str]) -> MixedGraph:
    """Condition a chain mixed graph on the nodes of ``c``.

    Runs on node masks.  Neither rule stage adds a line that a section
    reads (the arc-flank stage adds none, the collider stage keeps its
    own), so one line-reach memo serves both.
    """
    c = label_set(c, TransformSpecError)
    _require_cmg(g)
    g.require_nodes(c)
    if not c:  # S is empty: no rule fires and no head is stripped
        return build_graph(g.nodes, [(x, y, kind) for kind, x, y in g.edges])
    index, ln, pa, ch, sp = mask_tables(g)
    cmask = mask_of(index, c)
    s = cmask | mask_of(index, anteriors(g, c))
    reach = _mask_reach(ln)
    _condition_arc_flank_stage(reach, pa, ch, sp, s)
    made = _condition_collider_stage(reach, pa, ch, sp, s)
    lines = [a | b for a, b in zip(ln, made)]
    return _condition_strip_heads(g.nodes, lines, pa, ch, sp, s, cmask)


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


class _RoleTracker:
    """Reuse scopes for edges generated during the anterial closure.

    A generated edge stands in for a walk whose inner sections are
    anterior to the target it was generated for, so it may only feed a
    later match when that target lies inside the new target's anterior
    scope; chaining without this guard manufactures adjacencies the walk
    characterization excludes.  Edges of the input graph carry no
    restriction and have no scope.

    A scope is a node mask of the targets an edge was generated for.
    With ``down[t]`` the mask of ``t`` and its anteriors, the edge may
    feed a match for target ``t`` iff ``scope & down[t]``.  Arrows are
    keyed ``(tail, head)`` and arcs under both orders of their ends, so
    no lookup sorts a key.
    """

    def __init__(self, ant: Mapping[str, int], bits: Mapping[str, int]):
        self.bits = bits
        self.down = {v: bits[v] | ant[v] for v in bits}
        self.scopes: dict[str, dict[tuple[str, str], int]] = {ARROW: {}, ARC: {}}

    def generate(self, w: _Work, kind: str, j: str, t: str) -> bool:
        """Add ``j -> t`` (or ``j <-> t``) for target ``t``.

        True when the edge is new or its scope widens to take in ``t``.
        """
        scopes = self.scopes[kind]
        scope = scopes.get((j, t))
        if scope is None:
            if not (w.add_arrow(j, t) if kind == ARROW else w.add_arc(j, t)):
                return False  # an input edge
            scope = self.bits[t]
        elif scope & self.down[t]:
            return False
        else:
            scope |= self.bits[t]
        scopes[j, t] = scope
        if kind == ARC:
            scopes[t, j] = scope
        return True


class _ArcEnd:
    """End ``u`` of an arc ``u <-> i`` and the sections that start there.

    ``reach`` is the line reach of ``u`` avoiding ``i``; lines are fixed
    during the closure, so it never changes.  ``targets`` are the targets
    this end can generate for: ``u`` when ``i`` is anterior of ``u``
    (arc at the section), ``i`` when ``u`` is anterior of ``i`` (arc
    beyond the section).  ``live`` pairs each target that the arc's own
    scope serves with the target's ``down`` mask, as of the end's last
    full search; a widened arc is due another one.
    """

    __slots__ = ("u", "i", "reach", "targets", "live")

    def __init__(self, w: _Work, u: str, i: str, targets: list[str]):
        self.u = u
        self.i = i
        self.reach = w.line_reach(u, frozenset((i,)))
        self.targets = targets
        self.live: list[tuple[str, int]] = []


def _ang_generate(w: _Work, tracker: _RoleTracker) -> None:
    # The rules are in the module docstring.  Matches come from a worklist
    # rather than from rescanning every arc end until nothing changes.  An
    # arc end is searched in full when its arc first appears or its scope
    # widens.  An edge with a head at v that appears or widens later is
    # matched only against the arc ends whose section reach holds v.
    # Every rule is monotone, so the edges and scopes reach the same least
    # fixpoint in any order.
    down, bits, scopes_of = tracker.down, tracker.bits, tracker.scopes
    ends: dict[tuple[str, str], _ArcEnd | None] = {}
    ends_reaching: dict[str, list[_ArcEnd]] = defaultdict(list)
    arcs = sorted(w.arcs)  # arcs whose two ends are due a full search
    heads: list[tuple[str, str, str]] = []  # (v, j, kind): j puts a head at v

    def match(e: _ArcEnd, far: str, tails: Iterable[str], kind: str) -> None:
        # the edges of ``kind`` from ``tails`` with a head at ``far``
        u, i, reach, scopes = e.u, e.i, e.reach, scopes_of[kind]
        for j in tails:
            if j == i or j == u:
                continue
            # blocking j changes nothing unless the walk can reach j
            if j in reach and far not in w.line_reach(u, frozenset((i, j))):
                continue
            flank = scopes.get((j, far))
            for t, d in e.live:
                if flank is None or flank & d:
                    if tracker.generate(w, kind, j, t):
                        heads.append((t, j, kind))
                        if kind == ARC:
                            heads.append((j, t, kind))
                            arcs.append((j, t))

    def search(u: str, i: str) -> None:
        key = (u, i)
        if key in ends:
            e = ends[key]
            if e is None:
                return
        else:
            # a target t needs the arc's other end s anterior of t
            targets = [t for t, s in ((u, i), (i, u)) if down[t] & bits[s]]
            e = ends[key] = _ArcEnd(w, u, i, targets) if targets else None
            if e is None:
                return
            for v in e.reach:
                ends_reaching[v].append(e)
        own = scopes_of[ARC].get(key)
        e.live = [(t, down[t]) for t in e.targets if own is None or own & down[t]]
        if e.live:
            for far in e.reach:
                if w.pa[far]:
                    match(e, far, tuple(w.pa[far]), ARROW)
                if w.sp[far]:
                    match(e, far, tuple(w.sp[far]), ARC)

    while heads or arcs:
        if heads:
            v, j, kind = heads.pop()
            for e in ends_reaching.get(v, ()):
                if e.live:
                    match(e, v, (j,), kind)
        else:
            x, y = arcs.pop()
            search(x, y)
            search(y, x)


def _ang_resolve_arcs(w: _Work, ant: Mapping[str, int], bits: Mapping[str, int]) -> None:
    for x, y in sorted(w.arcs):
        x_ant_y = ant[y] & bits[x]
        y_ant_x = ant[x] & bits[y]
        if x_ant_y and y_ant_x:
            w.remove_arc(x, y)
            w.add_line(x, y)
        elif x_ant_y:
            w.remove_arc(x, y)
            w.add_arrow(x, y)
        elif y_ant_x:
            w.remove_arc(x, y)
            w.add_arrow(y, x)


def anterialize(h: MixedGraph) -> MixedGraph:
    """Close a chain mixed graph into an anterial graph with the same model.

    Neither stage changes anteriors: a generated arrow runs from a node
    already anterior to its head, and arc resolution follows
    anteriority.  So both stages read the input's anteriors table.
    """
    _require_cmg(h)
    w = _Work(h)
    if w.arcs:  # both stages start from arcs: an arc-free CMG is anterial
        ant, bits = h.anterior_masks, h.node_bits
        _ang_generate(w, _RoleTracker(ant, bits))
        _ang_resolve_arcs(w, ant, bits)
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
    _, ln, pa, ch, sp = mask_tables(g)
    ij = sp if ij_kind == ARC else ln
    reach = _mask_reach(ln)
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
    """
    m = label_set(m, TransformSpecError)
    g.require_nodes({i, j} | m)
    _require_oracle_endpoints(i, j, m, "marginalized")
    h = marginalize_flank_closure(g, m)

    def m_section(v: str) -> set[str]:
        # v plus line-reachable nodes staying inside the marginalized set
        reach = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for nxt in h.neighbours[u]:
                if nxt in m and nxt not in reach:
                    reach.add(nxt)
                    stack.append(nxt)
        return reach

    def lands_on_j(section: set[str]) -> bool:
        return any(j in h.neighbours[u] for u in section) or j in section

    def exits(section: set[str]):
        for u in sorted(section):
            for x in sorted(h.children[u]):
                yield x, False, True
            for x in sorted(h.parents[u]):
                yield x, True, False
            for x in sorted(h.spouses[u]):
                yield x, True, True

    first = m_section(i)
    if lands_on_j(first):
        return True
    seen: set[tuple[str, bool]] = set()
    frontier: list[tuple[str, bool]] = []
    for x, head_here, head_there in exits(first):
        if x == j:
            return True
        if x in m and (x, head_there) not in seen:
            seen.add((x, head_there))
            frontier.append((x, head_there))
    while frontier:
        v, mark = frontier.pop()
        section = m_section(v)
        if lands_on_j(section):
            return True
        for x, head_here, head_there in exits(section):
            if mark and head_here:
                continue  # inner sections must be non-colliders
            if x == j:
                return True
            if x in m and (x, head_there) not in seen:
                seen.add((x, head_there))
                frontier.append((x, head_there))
    return False


def conditional_edge_oracle(g: MixedGraph, c: Iterable[str], i: str, j: str) -> bool:
    """Adjacency of i, j after conditioning, decided by walk search in ``g``.

    True iff g has a walk between i and j whose inner sections are all
    colliders inside S = C plus anteriors, with singleton endpoint
    sections unless the endpoint has an arc into S and the flanking edge
    points into its section.  Direct edges always survive.  Must agree
    with :func:`condition`.
    """
    c = label_set(c, TransformSpecError)
    _require_cmg(g)
    g.require_nodes({i, j} | c)
    _require_oracle_endpoints(i, j, c, "conditioning")
    if g.adjacent(i, j):
        return True
    s_set = c | anteriors(g, c)

    def arc_into_s(v: str) -> bool:
        return any(x in s_set for x in g.spouses[v])

    def entries_from(v: str, wide: bool):
        # singleton start section, plus the widened section when allowed
        for x in sorted(g.children[v]):
            yield x, True
        for x in sorted(g.parents[v]):
            yield x, False
        for x in sorted(g.spouses[v]):
            yield x, True
        if wide:
            for far in sorted(g.line_reachable(v)):
                if far == v:
                    continue
                for x in sorted(g.parents[far]):
                    yield x, False
                for x in sorted(g.spouses[far]):
                    yield x, True

    seen: set[tuple[str, bool]] = set()
    frontier: list[tuple[str, bool]] = []
    for x, mark in entries_from(i, arc_into_s(i)):
        if (x, mark) not in seen:
            seen.add((x, mark))
            frontier.append((x, mark))
    j_wide = arc_into_s(j)
    while frontier:
        v, mark = frontier.pop()
        if v == j:
            return True
        if j_wide and mark and j in g.line_reachable(v):
            return True
        if not mark or v not in s_set:
            continue  # inner sections are colliders inside S
        for far in sorted(g.line_reachable(v)):
            for x in sorted(g.parents[far]):
                if (x, False) not in seen:
                    seen.add((x, False))
                    frontier.append((x, False))
            for x in sorted(g.spouses[far]):
                if (x, True) not in seen:
                    seen.add((x, True))
                    frontier.append((x, True))
    return False


def subprimitive_walk_exists(h: MixedGraph, j: str, i: str) -> bool:
    """Inducing-walk test behind the anterial closure's adjacencies.

    True iff ``h`` has a walk from j to i with singleton endpoint
    sections whose inner sections are all colliders lying inside the
    anteriors of i (i itself allowed).  Direct edges count.  Adjacency in
    :func:`anterialize` equals this test in one direction or the other.
    """
    _require_cmg(h)
    h.require_nodes({i, j})
    if i == j:
        return False
    if h.adjacent(i, j):
        return True
    allowed = anteriors(h, [i]) | {i}

    # (node, entered with an arrowhead); the search is exhaustive, so the
    # order in which states are taken does not change the answer
    frontier = [(x, True) for x in h.children[j] | h.spouses[j]]
    frontier += [(x, False) for x in h.parents[j]]
    seen = set(frontier)
    while frontier:
        v, mark = frontier.pop()
        if v == i:
            return True
        if not mark or v not in allowed:
            continue
        for far in h.line_reachable(v) & allowed:
            for x in h.parents[far]:
                if (x, False) not in seen:
                    seen.add((x, False))
                    frontier.append((x, False))
            for x in h.spouses[far]:
                if (x, True) not in seen:
                    seen.add((x, True))
                    frontier.append((x, True))
    return False
