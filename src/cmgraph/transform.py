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
marginalizing, ``s <-> i`` with ``i`` outside S when conditioning;
``e *-> i`` stands for either)::

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

Every rule engine runs on ``_Work``: list copies of the input graph's
per-node int masks ``ln``, ``pa``, ``ch`` and ``sp`` over ``g.nodes``,
with M, S and every other node set as one mask.  The far flanks of
the sections from a node are the OR of ``pa`` and ``sp`` over its line
reach, and a rule adds all the edges of one flank with one mask
operation.  Every rule stage works in index order.  The
conditioning arc-flank stage makes one pass, over the nodes outside S,
and its docstring proves that a rescan, or turns at S, would emit the
same graph; the anterial resolve stage is one pass by construction.
The marginalization stages, the collider stage and the anterial
generate stage rescan until a round adds nothing.  Lines
are fixed inside every stage that searches sections: the flank and
anterial generate stages add only arrows and arcs, and the lines that
the collider stage makes go to a table of their own that no section
reads.  So the line components stay those of the input's
``components`` table, and section reach is memoized per (node,
blocked mask).  ``_Work`` also keeps, per line component, the OR of
``pa`` and of ``sp`` over it: the searching stages add their arrows
and arcs with ``link_arrows`` and ``link_arcs``, which keep these
unions current, and ``_link`` is left for the made lines and the
tripath stage.  One emitter, ``_condition_strip_heads``, strips
the heads at S, in the rows of S and of the nodes with a head at S,
and deletes C or M (``subgraph_of_masks``); the output is those masks.

The flank and collider stages search sections with ``_Work.flanks``,
and so do the projection-class tests: one search from ``i`` avoiding
``k`` per arc ``k <-> i`` finds every collider trislide at that arc.
A search that blocks no node of its start's line component reaches
that whole component, so it reads the component's unions in a few mask
operations; only a collider flank inside the pivot's component makes
it walk the reach (``_section_flanks``).  Either way, each far flank
inside the reach is blocked once, to keep only flanks that a section
avoiding them reaches.  The anterial generate stage needs no such
filter and walks no reach: every arc end reads its start's component
unions of ``pa``, ``sp`` and the free arcs, even when its other end
lies in that component, where the two ends' reaches together cover it
(``_ang_generate`` proves the fixpoint is the same).  A node whose
component's unions and arcs are what they were on its last visit is
skipped.

The edge oracles reuse the other searches.  ``marginal_edge_oracle`` is
one ``kernel.separated`` query on the flank stage's masks cut down to
M and the two endpoints.  ``conditional_edge_oracle`` and
``subprimitive_walk_exists`` run ``_collider_closure`` on the input's
``components``: S and the anteriors of a node with the node itself are
both unions of line components.
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
    LINE,
    MixedGraph,
    _arcs_respect_anteriority,
    classify,
    label_set,
    mask_of,
    subgraph_of_masks,
)
from .kernel import _bits, _union, components, line_reach, separated


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
    """Node masks of a graph under rewrite, with a line-reach memo and flank unions.

    ``index`` is the input's ``g.index``, shared.  ``ln``, ``pa``,
    ``ch`` and ``sp`` are list copies of the input's masks that the rule
    stages change in place, so the input's own masks stay as they are.

    The flank unions are the OR of ``pa`` and the OR of ``sp`` over each
    line component.  The input's ``components`` table holds them as the
    input has them; ``pa_unions`` and ``sp_unions``, keyed by component
    mask, hold them for the components whose rows have grown since.  An
    entry is made when its component's rows first grow, from the table's
    union, which is the OR of those rows until then.  The unions equal
    the OR of the rows while a searching stage runs (both flank stages,
    the collider stage, the anterial generate stage): none of these adds
    a line, so the components stay those of the table, and every row of
    ``pa`` or ``sp`` they change, they change through :meth:`link_arrows`
    or :meth:`link_arcs`, which OR each new bit into the union of the
    row's component.  The tripath stage adds lines and links with
    ``_link``, :func:`condition` joins the collider stage's made lines
    to ``ln``, and arc resolution changes rows by hand; the unions go
    stale there, and nothing reads them afterwards.
    """

    def __init__(self, g: MixedGraph):
        self.nodes = g.nodes
        self.index = g.index
        self.ln, self.pa, self.ch, self.sp = list(g.ln), list(g.pa), list(g.ch), list(g.sp)
        self._reach: dict[tuple[int, int], int] = {}
        self.table = g.components
        self.pa_unions: dict[int, int] = {}
        self.sp_unions: dict[int, int] = {}

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

    def flanks(self, v: int, stop: int) -> tuple[int, int]:
        """``_section_flanks(self.line_reach, self.pa, self.ch, self.sp, v, stop)``.

        A line reach from ``v`` that blocks only nodes outside ``v``'s
        line component K is K itself: a line walk from ``v`` never leaves
        K, and every node of K is joined to ``v`` by a walk inside K, which
        meets no blocked node.  So when ``stop`` misses K the far flanks
        before the filter are K's unions less ``stop`` and ``v``, and only
        the flanks inside K go through the far-node filter (the filter
        passes every flank outside the reach).  When ``stop`` meets K,
        which happens only for a collider flank inside the pivot's
        component, this is the reach search itself.
        """
        comp, cpa, _, csp = self.table[v]
        if stop & comp:
            return _section_flanks(self.line_reach, self.pa, self.ch, self.sp, v, stop)
        drop = ~(stop | 1 << v)
        tails = self.pa_unions.get(comp, cpa) & drop
        arcs = self.sp_unions.get(comp, csp) & drop
        if (tails | arcs) & comp:
            # blocking stop as well would change no reach inside comp
            return _reached_flanks(self.line_reach, self.ch, self.sp, v, 0, comp, tails, arcs)
        return tails, arcs

    def link_arrows(self, v: int, tails: int) -> bool:
        """Add ``j -> v`` for each node ``j`` of the mask ``tails``; True if one is new."""
        pa = self.pa
        new = tails & ~pa[v]
        if not new:
            return False
        pa[v] |= new
        comp, cpa, _, _ = self.table[v]
        self.pa_unions[comp] = self.pa_unions.get(comp, cpa) | new
        ch, vbit = self.ch, 1 << v
        while new:
            low = new & -new
            new ^= low
            ch[low.bit_length() - 1] |= vbit
        return True

    def link_arcs(self, v: int, ends: int) -> bool:
        """Add ``v <-> j`` for each node ``j`` of the mask ``ends``; True if one is new."""
        sp, table, unions = self.sp, self.table, self.sp_unions
        new = ends & ~sp[v]
        if not new:
            return False
        sp[v] |= new
        comp, _, _, csp = table[v]
        unions[comp] = unions.get(comp, csp) | new
        vbit = 1 << v
        while new:
            low = new & -new
            new ^= low
            j = low.bit_length() - 1
            sp[j] |= vbit
            comp, _, _, csp = table[j]
            unions[comp] = unions.get(comp, csp) | vbit
        return True

    def to_graph(self, s: int = 0, c: int = 0) -> MixedGraph:
        """The output graph: heads at the mask ``s`` stripped, the mask ``c`` deleted."""
        return _condition_strip_heads(self.nodes, self.ln, self.pa, self.ch, self.sp, s, c)


def _section_flanks(reach, pa: list[int], ch: list[int], sp: list[int], v: int, stop: int):
    """Masks of the far flanks of the sections from node ``v``: (tails, arc ends).

    ``j`` is in ``tails`` (``arcs``) when ``j -> far`` (``j <-> far``) for
    some ``far`` joined to ``v`` by a line walk that avoids the node mask
    ``stop`` and ``j`` itself; ``j`` is neither ``v`` nor in ``stop``.
    ``reach(v, blocked)`` is a line-reach memo such as ``_Work.line_reach``.
    The rule engines call it through :meth:`_Work.flanks`, which reads
    the same masks from its unions when ``stop`` misses ``v``'s component.

    The tail filter can fire only in the collider stage.  A tail ``j``
    that the walk reaches is line-joined to its head, which closes a
    semi-directed cycle in a CMG (the "Tails" argument of
    ``_ang_generate``), and every other caller searches a CMG: the
    projection-class tests their input, and the flank stages a work that
    stays one (``_flank_pass``).
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
    drop = ~(stop | 1 << v)
    return _reached_flanks(reach, ch, sp, v, stop, r, tails & drop, arcs & drop)


def _reached_flanks(reach, ch: list[int], sp: list[int], v: int, stop: int, r: int, tails: int, arcs: int):
    """The far-node filter: keep the flanks ``j`` that a section from ``v`` avoiding ``j`` reaches.

    ``r`` is the line reach of ``v`` avoiding ``stop``, and ``tails`` and
    ``arcs`` the far flanks over it.
    """
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


def _flank_pass(w: _Work, entry: list[int], removed: int, turns: int) -> bool:
    """Run one round of the flank rules in node-index order; True if an edge is new.

    ``e *-> u --..-- o <- j`` gives ``j -> u`` and an arc far flank gives
    ``u <-> j``, for each entry ``e`` in ``entry[u] & removed``.  The
    nodes of the mask ``turns`` take a turn, and each must have an entry:
    the marginal stage passes the children of M, the conditioning stage
    the spouses of S outside S.  No pass changes that set: it adds only
    ``j -> u`` and ``u <-> j`` at a turn ``u``, which give ``j`` a child
    or a spouse, and when conditioning a spouse outside S: no entry.

    A turn makes one section search, which blocks the entry if ``u`` has
    only one and nothing otherwise.  That finds what one search per
    entry, each blocking its entry, finds together:

    1. No entry lies in ``u``'s line component.  A parent cannot, in a
       CMG, and the flank stages keep the work a CMG: they add no line,
       and only arrows ``j -> u`` out of an anterior ``j`` of ``u``
       (``j -> o`` with ``o`` line-joined to ``u``).  S is a union of
       line components, so a spouse in S of a node outside S lies
       outside that node's component.
    2. So blocking an entry changes no line reach from ``u``, and the
       search reads the same reaches with or without it.  It never walks
       one: a stop outside ``u``'s component sends :meth:`_Work.flanks`
       to the component's unions.
    3. So the per-entry searches differ only in the entry each drops
       from the flanks it returns.
    4. So their union drops an entry only when it is the only one.  With
       one entry ``e``, the walk ``e *-> u --..-- o <-* e`` returns to
       ``e``.  With two, ``e' *-> u --..-- o <-* e`` is a walk, and the
       search for ``e'`` keeps ``e``.

    Run in turn with their links in between, the per-entry searches find
    no more: a link adds to ``u``'s row only flanks that the first search
    found, and to the row of such a flank only ``u``, so the next search
    keeps that flank and finds nothing new.
    """
    changed = False
    for u in _bits(turns):
        ends = entry[u] & removed
        tails, arcs = w.flanks(u, 0 if ends & ends - 1 else ends)
        changed |= w.link_arrows(u, tails)
        changed |= w.link_arcs(u, arcs)
    return changed


def _marginalize_flank_stage(w: _Work, m: int) -> None:
    # m -> u --..-- o <- j  =>  j -> u ; arc far flank gives u <-> j;
    # rescans until a round adds nothing
    while _flank_pass(w, w.pa, m, _union(w.ch, m)):
        pass


def _condition_arc_flank_stage(w: _Work, s: int) -> None:
    """Run the arc-flank rules in one pass over the nodes outside S, in index order.

    A second pass can add edges (``b -- d; c -> d; a <-> d; b <-> c``
    with C = {a, c} gets ``c -> b`` beside ``b <-> c``), and the rules at
    the nodes of S can too, but none that :func:`condition` emits
    differently.  A node's visit in the pass is its turn, the arcs from S
    that it reads then are its entries, and ``*->`` is an arrow or an
    arc.  Let L be the work after this pass and the collider stage,
    which rescans, so that L is closed under the collider rules; R that
    of both stages rescanned at every node; Z the closure of L under
    both stages' rules.  The stages add only arrows and arcs, and a rule
    that matches keeps matching as they grow, so L is in R and R is in
    Z.  It is enough that Z emits what L emits.

    Emission.  Every parent of a node of S is in S, before and after
    both stages: a rule copies the tail of an arrow into a section onto
    the section's start or an arc end there, and a section from a node
    of S stays in S.  So made lines join nodes of S, and outside C the
    emitter joins two nodes of S by a line iff the work or a made line
    joins them, gives ``s -> v`` for s in S and v outside S iff the work
    has ``s *-> v``, and keeps the arrows and arcs outside S.  Let D be
    L plus every arrow ``j -> x`` beside an arc ``j <-> x`` of L with j
    in S, and every made line between two nodes of S that L joins by an
    arrow or an arc.  D emits what L emits, and Z is in D if no rule
    adds anything outside D to D.

    A match that uses an arrow of D outside L also matches with the arc
    beside it, and that match gives the same ends an arc, or an arrow
    for a made line (by the search from the arc end).  So let every
    premise be in L.  L is closed under the collider rules, and so under
    the arc-flank rule at a node x of S entered from y, where the pass
    takes no turn: the collider rule at x with arc flank y makes the
    same search and gives y the far flanks of x's sections, and then the
    one at y with arc flank x gives them to x.  That leaves the rule at
    a node x outside S entered from y in S, with a far flank
    ``j *-> o`` in L, o on x's line component K and reached from x
    avoiding j.  Call a cluster a connected part of S under lines and
    the input's arcs inside S.  Four facts hold on the way to L:

    1. A rule adds an arc from a far arc flank of a section to the
       section's start or to an arc flank there.  Both ends have arcs
       into the section's cluster if the section lies in S, and else the
       start is outside S and has an entry.  So only a node with an
       input arc into S gets one, and an arc inside S stays inside a
       cluster.
    2. An S-node with an arc to K is in a cluster with an input arc to
       K: the arc is an input arc, copies one from K to the same node,
       or is made by the collider rules between two nodes with arcs into
       the pivot's cluster.
    3. x has an input arc into S (1), so a turn with an entry.  On its
       turn x gets an arc to each S-node r with an input arc to K (r is
       a far flank for every other entry), or r is its only entry and so
       its spouse already.
    4. In L two nodes with arcs into one cluster Q are joined by an arc.
       Take a walk between them by lines and arcs through Q that meets
       them only at its ends, with the fewest arcs.  If it leaves the
       first end x by lines up to an arc ``o <-> q``, x is in S with an
       arc to some e in S, and L's closure under the arc-flank rule at x
       with entry e (the lines avoid e), else the collider rule at e
       along the lines after their last e, gives ``x <-> q``.  The
       collider rule at q along the next lines then gives x the far end
       of the next arc, and so on.  Lines into the second end are met
       from that end in the same way.  A walk of lines only ends at a
       node with an arc to some f in S: if f is on the lines, the walk
       up to f and then that arc has one arc; else the first step, along
       the walk and on to f, gives ``x <-> f``, and the collider rule at
       f joins x to that end.

    Now by how ``j *-> o`` was made, in order:

    - in the input: x's turn gives ``j *-> x``, or j is x's only entry,
      so j is in S and ``j <-> x`` is in L;
    - on o's turn, from ``j *-> o'`` with o' reached from o avoiding j,
      hence from x avoiding j: by induction;
    - on j's turn (so j is outside S), an arc, from ``o <-> r`` with r
      on a section from j: if j is in K, 3 gives x and j arcs into the
      clusters with input arcs to K, of which there is one, so 4;
      otherwise ``o <-> r`` copies an input arc between K and j's line
      component (this pass joins two line components outside S only by
      copying an arc between them), and of x and j the one whose turn
      comes first gets an arc to the other's end of it, at which the
      later one finds it;
    - by the collider rule at a pivot p with arc flank o: ``x <-> p`` is
      in L, by 2, 3 and 4 if p has an arc into S, else by 3, since by 1
      every arc from p to K copies an input arc from p to K; the
      collider rule at p with arc flank x then gives ``j *-> x``;
    - by the collider rule at a pivot p with arc flank j and o a far arc
      flank: by 2 and 3, x and j have arcs into p's cluster, so 4.

    Idle on the CG projection class.  On an input in
    :func:`in_cg_projection_class` the pass adds no edge, for any C.  A
    turn at u with one entry e calls ``w.flanks(u, e)``, which is the
    search from u avoiding e that the class test makes for the arc
    ``e <-> u``.  On the class every tail l of that search is a parent of
    u (the test demands ``l -> u``), and every arc end l is a spouse of u
    (at u itself it is one; elsewhere the reversed trislide forces
    ``u <-> l``, as :func:`_in_projection_class` shows).  Those are exactly
    the edges ``l -> u`` and ``u <-> l`` that the two rows add.  A turn
    with two or more entries blocks nothing, and by steps 1-4 of
    :func:`_flank_pass` it finds what the per-entry searches find
    together, each of which is such a class search.  So the first turn
    links nothing, the work stays the input, and by induction so does
    every later turn.  A chain graph has no arcs, and its one-step
    marginals lie in the class (acceptance criterion 9 checks every
    four-node one), so on these routes conditioning's output comes from
    the collider stage alone.
    """
    _flank_pass(w, w.sp, s, _union(w.sp, s) & ~s)


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

    Rescans until a round adds no arrow or arc.  Sections read only
    ``w.ln``, which this stage leaves alone, so the generated lines never
    build sections and a round that adds only lines ends the stage.  The
    rescan stays because one pass can change the output: the arc-flank
    stage takes no turn at S, so an arc that a pivot adds late may feed a
    pivot visited earlier.  ``c -- d; a <-> d; b <-> c`` with C = {a, c}
    gets ``a <-> b`` at pivot c, after a's visit, and only a second visit
    to a gives ``b <-> d``, which is emitted as ``d -> b``.  The proof in
    :func:`_condition_arc_flank_stage` reads the work as closed under
    these rules.  A search reads the pivot's component unions unless its
    flank lies in that component (:meth:`_Work.flanks`), so the last
    round, which adds nothing, costs a few mask operations per flank,
    and the stage does not skip pivots whose reads stayed the same.
    """
    # i -> s --..-- s <- j   =>  i -- j        (both flanks arrows)
    # i <-> s --..-- s <- j  =>  j -> i        (arc flank wins the head)
    # i <-> s --..-- s <-> j =>  i <-> j
    pa, sp = w.pa, w.sp
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
                tails, arcs = w.flanks(s1, low)
                if heads & low:
                    # i -> s1 --..-- o <-> j gives i -> j, but so does the
                    # search from o's arc flank j: S is closed under line
                    # reach and the same line walk leads back to s1
                    _link(i, tails, made, made)
                if arcs_at & low:
                    changed |= w.link_arrows(i, tails)
                    changed |= w.link_arcs(i, arcs)
    return made


def _condition_strip_heads(
    nodes: tuple[str, ...], ln: list[int], pa: list[int], ch: list[int], sp: list[int], s: int, c: int
) -> MixedGraph:
    """Strip the arrowheads at S, delete C and build the output graph.

    An arrow into S becomes a line, an arc with both ends in S a line, and
    an arc with one end in S an arrow out of that end.  Marginalization
    passes ``s = 0`` and M as ``c``: it strips nothing and deletes M.
    """
    if s:
        ln, pa, ch, sp = list(ln), list(pa), list(ch), list(sp)
        near = 0  # the nodes with a head at S: a child or a spouse in S
        for v in _bits(s):
            near |= pa[v] | sp[v]
            # parents and spouses in S join the lines, other spouses become children
            ln[v] |= pa[v] | (ch[v] | sp[v]) & s
            ch[v] = (ch[v] | sp[v]) & ~s
            pa[v] = sp[v] = 0
        for v in _bits(near & ~s):
            # children in S join the lines, spouses in S become parents
            ln[v] |= ch[v] & s
            pa[v] |= sp[v] & s
            ch[v] &= ~s
            sp[v] &= ~s
    return subgraph_of_masks(nodes, ln, pa, ch, sp, ((1 << len(nodes)) - 1) & ~c)


def _checked_set(g: MixedGraph, labels: Iterable[str]) -> frozenset[str]:
    """The set M or C of a rewrite of ``g``, after the input checks in their order."""
    labels = label_set(labels, TransformSpecError)
    _require_cmg(g)
    g.require_nodes(labels)
    return labels


def _marginal_flank_work(g: MixedGraph, m: Iterable[str]) -> tuple[_Work, int]:
    """``g`` after the collider-flank stage, and the mask of M; the input is checked."""
    w = _Work(g)
    mmask = mask_of(w.index, m)
    _marginalize_flank_stage(w, mmask)
    return w, mmask


def marginalize(g: MixedGraph, m: Iterable[str]) -> MixedGraph:
    """Project the marginalized nodes out of a chain mixed graph.

    One wrong output is known (ROADMAP item 1): the output can lack an
    edge, and so state an independence that the input's marginal lacks.
    Each input found to reach it joins a kept ``v`` to some ``m`` in M by
    both a line ``v -- m`` and an arc ``v <-> m``.  A chain graph has no
    arcs, and conditioning one adds none.  No chain-graph input reached
    it: not in 20,000 random 4-8-node chain graphs through six one- and
    two-step routes, nor in ``test_criterion_9_four_node_chain_graphs``,
    which sweeps every labelled four-node chain graph; a statement check
    flagged none of 1,347 two-step outputs at 64 nodes.  The strict-xfail
    tests ``test_parallel_line_and_arc_at_marginalized_node`` pin it.

    With M empty the input checks run and ``g`` itself is returned: no
    stage has a turn (the flank stage turns at children of M, the tripath
    stage pivots on M), and the emitter deletes nothing.
    """
    m = _checked_set(g, m)
    if not m:
        return g
    w, mmask = _marginal_flank_work(g, m)
    _marginalize_tripath_stage(w, mmask)
    return w.to_graph(0, mmask)


def condition(g: MixedGraph, c: Iterable[str]) -> MixedGraph:
    """Condition a chain mixed graph on the nodes of ``c``.

    Neither rule stage adds a line that a section reads (the arc-flank
    stage adds none, the collider stage keeps its own), so one line-reach
    memo serves both.  The arc-flank stage makes one pass over the nodes
    outside S and the collider stage rescans; the output is that of both
    stages rescanned with the arc-flank rules at every node (proof in
    :func:`_condition_arc_flank_stage`).

    With C empty the input checks run and ``g`` itself is returned: S is
    empty, so neither stage has a turn or a pivot, and the emitter strips
    no head and deletes nothing.
    """
    c = _checked_set(g, c)
    if not c:
        return g
    w = _Work(g)
    cmask = mask_of(w.index, c)
    s = _s_mask(g, c)
    _condition_arc_flank_stage(w, s)
    made = _condition_collider_stage(w, s)
    w.ln = [a | b for a, b in zip(w.ln, made)]
    return w.to_graph(s, cmask)


def _s_mask(g: MixedGraph, c: Iterable[str]) -> int:
    """The mask of S, the nodes of ``c`` together with their anteriors."""
    return _union(g.upward_masks, mask_of(g.index, c))


def marginalize_and_condition(
    g: MixedGraph, spec: TransformSpec, *, order: str = "mc"
) -> MixedGraph:
    """Apply both operations; ``order`` picks which runs first.

    The canonical order marginalizes first.  On maximal results the two
    orders produce the same graph; they always produce the same model.
    An empty side costs its input checks only: that step returns its
    input, and the other step reads the input's cached tables.
    """
    g.require_nodes(spec.m | spec.c)
    if order == "mc":
        return condition(marginalize(g, spec.m), spec.c)
    if order == "cm":
        return marginalize(condition(g, spec.c), spec.m)
    raise ValueError(f"unknown order {order!r}")


# -- anterial closure -------------------------------------------------------


def _ang_generate(w: _Work, down: tuple[int, ...]) -> None:
    """Run the generate rules; ``down[t]`` is the mask of t and its anteriors.

    The rules and the reuse rule are in the module docstring.  Call ``j``
    free at ``o`` when ``j <-> o`` is an input arc or was generated for
    ``o``.  The stage keeps only the ORs of ``pa``, ``sp`` and the free
    nodes over each line component, P, S and F (``w.pa_unions``,
    ``w.sp_unions``, ``free_unions``).  Every input spouse is free, so F
    starts as the table's ``sp`` unions, and a free node is a spouse.

    Each arc end ``u <-> i`` with a target reads P, S and F of ``u``'s
    line component K, and links the tails and the usable arc ends,
    ``S & (down[t] | F)``, less ``u`` and ``i``, to each target ``t``.
    The rules search the sections from ``u`` avoiding ``i`` through the
    far-node filter of ``_section_flanks``; the fixpoint is the same.
    First without the filter, over the line reach ``r`` of ``u`` avoiding
    ``i``:

    - Tails.  No tail ``j -> o`` at a node ``o`` of K lies in K: ``o``
      would be line-joined to ``j`` and close a semi-directed cycle.
      The stage adds only arrows out of nodes already anterior to their
      head, so the work graph stays a CMG.
    - Arc ends.  Say the filter drops ``j`` in ``r`` for target ``t``:
      each ``o`` in ``r`` with ``j <-> o`` is reached only through
      ``j``.  A shortest walk to ``j`` avoids ``o``, and ``o`` is neither
      ``u`` nor ``i``, so ``o`` is an arc end at the far node ``j`` and
      gives ``t <-> o``.  The one-node section at ``o``, from the arc end
      ``(o, t)``, then gives ``t <-> j``.  Both ``j`` and ``o`` are in
      ``r``, so in ``down[t]``, and neither needs F.

    Then from ``r`` to K.  When ``i`` lies outside K, ``r`` is K.  When
    it lies inside, ``u`` and ``i`` are each anterior of the other, so
    the ends ``(u, i)`` and ``(i, u)`` both have both targets, and their
    reaches together cover K: a shortest line walk from ``u`` to a node
    of K avoids ``i``, or its part after ``i`` avoids ``u``.
    The two ends' searches link the ORs of ``pa`` and ``sp`` over K to
    each target, and every usable arc end of K's reads: a node of S that
    is free at a node of one reach is a spouse of that node, so the
    search over that reach finds it usable.  K's reads give each end all
    of that at once.  So every edge and free node the component reads
    add, the filtered rules add too, and K holds every reach, so the
    converse holds: both rescans stop at the same fixpoint.

    The stage rescans until a round adds no edge, even if F grew in it:
    after such a round R no later round would add one.  Say one did,
    first an arc ``j <-> t`` (arrows never read F), with ``j`` outside
    ``down[t]``.  Call ``g`` a far node for ``(t, j)`` when it lies in
    the line component of an end of an arc with target ``t`` and ``j``
    not in it; such ``g`` are in ``down[t]``, and the arc ``j <-> t``
    needs ``j`` free at one of them.  Take the first-added such ``j``
    free at ``g``.  R added no edge, and no round after it did before
    ``j <-> t``, so the arcs are those of R.  R would have linked
    ``j <-> t`` from it, so ``j`` came after, for target ``g`` of an arc
    ``u <-> i``, ``g`` in ``{u, i}``, free at a node ``g1`` of ``u``'s
    component (``j`` in ``down[g]`` would put it in ``down[t]``).  If
    ``u`` lies in the component of an end of the first arc, ``g1`` is an
    earlier far node for ``(t, j)``.  Else ``g = i``, and ``u`` is
    anterior of ``g`` and a spouse of it, so R linked ``u <-> t``, an
    arc with target ``t`` and without ``j``, and ``g1`` is an earlier far
    node for ``(t, j)`` again.  Both contradict the choice of ``g``.

    A node ``u`` is skipped when P, S and F of K and ``sp[u]`` are what
    they were on its last visit.  The skip is exact.  A visit reads
    nothing but these, ``down`` and K, which are fixed, and its own
    links, which change P, S and F only by masks that its reads so far
    fix (an arc to a target joins K's S only through an end in K).  So
    two visits that start from the same reads make the same links, and
    the second adds no edge and no free node.  Every round thus ends in
    the state it ends in without the skip, and the rescan stops after
    the same round, at the same fixpoint.
    """
    sp, table = w.sp, w.table
    pa_unions, sp_unions = w.pa_unions, w.sp_unions
    free_unions: dict[int, int] = {}
    last = [None] * len(sp)  # per node, what its last visit read
    changed = True
    while changed:
        changed = False
        for u in range(len(sp)):
            ends = sp[u]
            if not ends:
                continue
            comp, cpa, _, csp = table[u]
            reads = pa_unions.get(comp, cpa), sp_unions.get(comp, csp), free_unions.get(comp, csp), ends
            if reads == last[u]:
                continue
            last[u] = reads
            while ends:
                low = ends & -ends
                ends ^= low
                i = low.bit_length() - 1
                # target u needs i anterior of u, target i needs u anterior of i
                to_u, to_i = down[u] & low, down[i] >> u & 1
                if not (to_u or to_i):
                    continue
                keep = ~(1 << i | 1 << u)
                tails = pa_unions.get(comp, cpa) & keep
                arcs = sp_unions.get(comp, csp) & keep
                free_arcs = free_unions.get(comp, csp)
                for t, ok in ((u, to_u), (i, to_i)):
                    if ok:
                        changed |= w.link_arrows(t, tails)
                        usable = arcs & (down[t] | free_arcs)
                        changed |= w.link_arcs(t, usable)
                        tcomp, _, _, tsp = table[t]
                        free_unions[tcomp] = free_unions.get(tcomp, tsp) | usable


def _ang_resolve_arcs(w: _Work, ant: tuple[int, ...]) -> None:
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
    anteriority.  So both stages read the input's ``upward_masks``, each
    node with its anteriors: no arc joins a node to itself.

    When no arc joins a node to one of its anteriors, ``h`` itself is
    returned: no arc end has a target, so the generate stage links
    nothing, arc resolution finds no arc to resolve, and the emitter
    would copy the masks unchanged.  Such a CMG is simple, since each
    second edge on a pair joins a node to an anterior or closes a cycle,
    so it is anterial: the closure is the identity on anterial graphs.
    """
    _require_cmg(h)
    if _arcs_respect_anteriority(h):
        return h
    w = _Work(h)
    _ang_generate(w, h.upward_masks)
    _ang_resolve_arcs(w, h.upward_masks)
    return w.to_graph()


def ang_transform(g: MixedGraph, spec: TransformSpec) -> MixedGraph:
    """Condition, marginalize, then take the anterial closure.

    A step with nothing to do returns its input (an empty C or M, or an
    anterial graph to close), and the next step reads its cached tables.
    """
    g.require_nodes(spec.m | spec.c)
    return anterialize(marginalize(condition(g, spec.c), spec.m))


# -- image classes ----------------------------------------------------------


def _in_projection_class(g: MixedGraph, ij_kind: str) -> bool:
    """No arc-flanked collider trislide lacks its required edges.

    ``ij_kind`` is the edge (``ARC`` or ``LINE``) that the double-arc
    trislide needs between ``i`` and ``j``.  The sections are those of
    the flank stages, searched from ``i`` avoiding ``k``.

    The arc ``i <-> l`` that ``k <-> i --..-- j <-> l`` needs is not
    tested here: the reversed trislide forces it.  An arc flank ``l``
    at ``j == i`` is a spouse of ``i`` already.  Otherwise a line walk
    from ``i`` reaches ``j`` avoiding ``k`` and ``l``.  Read backwards
    it is a section from ``j`` avoiding ``l`` (and ``k``) that reaches
    ``i``, where ``k`` is an arc flank; ``k`` is neither ``j`` nor
    ``l``.  So the search from ``j`` avoiding ``l`` meets the trislide
    ``l <-> j --..-- i <-> k`` with ``i != j``, and returns False unless
    ``i`` is a spouse of ``l``.
    """
    w = _Work(g)
    reach, ln, pa, sp = w.line_reach, w.ln, w.pa, w.sp
    ij = sp if ij_kind == ARC else ln
    for i in range(len(pa)):
        for k in _bits(sp[i]):  # k <-> i
            kbit = 1 << k
            tails, arcs = w.flanks(i, kbit)
            # ... j <- l needs l -> i
            if tails & ~pa[i]:
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

    One ``kernel.separated`` query of i and j given the empty set, on the
    flank stage's masks cut down to M, i and j.  Given the empty set a
    c-connecting walk has no collider section.  A walk it finds may
    revisit i or j; cut at its last visit to i and the first visit to j
    after that, it keeps whole sections in between, so its inner nodes
    all lie in M and its inner sections are non-colliders.
    """
    m = label_set(m, TransformSpecError)
    g.require_nodes({i, j} | m)
    _require_oracle_endpoints(i, j, m, "marginalized")
    _require_cmg(g)
    return _marginal_edge(*_marginal_flank_work(g, m), i, j)


def _marginal_edge(w: _Work, mmask: int, i: str, j: str) -> bool:
    """:func:`marginal_edge_oracle` on the flank stage's work ``w``, left for the next pair."""
    a, b = 1 << w.index[i], 1 << w.index[j]
    keep = mmask | a | b
    n = len(w.nodes)
    # the rows of the other nodes stay empty: no walk or line component enters them
    ln, pa, ch, sp = [0] * n, [0] * n, [0] * n, [0] * n
    for v in _bits(keep):
        ln[v], pa[v], ch[v], sp[v] = w.ln[v] & keep, w.pa[v] & keep, w.ch[v] & keep, w.sp[v] & keep
    return not separated(components(ln, pa, ch, sp), ln, pa, ch, sp, a, b, 0)


def _collider_closure(table, tails: int, heads: int, inside: int, target: int, goal: int) -> bool:
    """True iff a walk through collider sections inside ``inside`` meets the goal.

    ``tails`` and ``heads`` are the masks of the tail and head states
    that the start section leaves to; ``table`` is the graph's
    ``components``, and ``inside`` is a union of line components.  A
    head state at a node of ``inside`` moves, once per line component,
    to tail states at the component's parents and head states at its
    spouses; a tail state never moves.  The search succeeds at a tail
    state at ``target`` or a head state in ``goal``, and stops as soon
    as it does.
    """
    done = 0
    frontier = heads & inside
    while frontier and not (tails & target or heads & goal):
        comp, cpa, _, csp = table[(frontier & -frontier).bit_length() - 1]
        done |= comp
        tails |= cpa
        heads |= csp
        frontier = heads & inside & ~done
    return bool(tails & target or heads & goal)


def conditional_edge_oracle(g: MixedGraph, c: Iterable[str], i: str, j: str) -> bool:
    """Adjacency of i, j after conditioning, decided by walk search in ``g``.

    True iff g has a walk between i and j whose inner sections are all
    colliders inside S = C plus anteriors, with singleton endpoint
    sections unless the endpoint has an arc into S and the flanking edge
    points into its section.  Direct edges always survive.  Must agree
    with :func:`condition`.

    A :func:`_collider_closure` inside S, which holds the line component
    of each of its nodes.  The search reaches j at any state at j, and at
    a head state anywhere in j's line component when j has an arc into S.
    """
    c = label_set(c, TransformSpecError)
    _require_cmg(g)
    g.require_nodes({i, j} | c)
    _require_oracle_endpoints(i, j, c, "conditioning")
    index, table = g.index, g.components
    ln, pa, ch, sp = g.ln, g.pa, g.ch, g.sp
    s = _s_mask(g, c)
    at_i, at_j = index[i], index[j]
    # the start section is i, or i's line component when i has an arc into S
    if sp[at_i] & s:
        _, tails, _, heads = table[at_i]
    else:
        tails, heads = pa[at_i], sp[at_i]
    goal = table[at_j][0] if sp[at_j] & s else 1 << at_j
    # a line i -- j is a direct edge, so it counts as a tail state at j
    return _collider_closure(table, tails | ln[at_i], heads | ch[at_i], s, 1 << at_j, goal)


def subprimitive_walk_exists(h: MixedGraph, j: str, i: str) -> bool:
    """Inducing-walk test behind the anterial closure's adjacencies.

    True iff ``h`` has a walk from j to i with singleton endpoint
    sections whose inner sections are all colliders lying inside the
    anteriors of i (i itself allowed).  Direct edges count.  Adjacency in
    :func:`anterialize` equals this test in one direction or the other.

    A :func:`_collider_closure` inside the anteriors of i and i itself,
    which hold the line component of each of their nodes.
    """
    _require_cmg(h)
    h.require_nodes({i, j})
    if i == j:
        return False
    index, ln, pa, ch, sp = h.index, h.ln, h.pa, h.ch, h.sp
    at_j, target = index[j], 1 << index[i]
    allowed = h.upward_masks[index[i]]
    tails, heads = ln[at_j] | pa[at_j], ch[at_j] | sp[at_j]
    return _collider_closure(h.components, tails, heads, allowed, target, target)
