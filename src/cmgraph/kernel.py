"""Bitmask kernel for c-separation reachability.

States are (node, mark) pairs: mark "head" means the current section was
entered through an edge with an arrowhead at the entry node.  From a
state the walk either exits the section as a non-collider (section must
avoid the conditioning set) or as a collider (section must be entered
with an arrowhead, leave through an arrowhead, and its line component
must touch the conditioning set; walks may detour inside the component
to pick the node up).  Endpoint sections are never colliders, so the
start states carry the tail mark and acceptance requires reaching a
target through lines avoiding the conditioning set.

A state at ``v`` outside C moves only through ``v``'s line reach
avoiding C and through ``v``'s full line component, so the states of one
mark at the nodes of one such reach move alike: the searches settle a
whole reach group per visit.  :func:`components` is the per-graph table
of line components and their flank unions; where a component does not
meet C it is its nodes' reach, and the table answers without a search.
One search loop gives both the verdict (:func:`separated`) and, in walk
mode, a witness (:func:`connecting_walk`) spelled from a trail of the
settled groups: each section is a shortest line path, but the walk is
not always shortest in edges.

Node sets are bitmasks; Python integers make this work for any node
count.  :func:`pair_separations` gives the model over a node set ``keep``
shifted by a set ``base``; it enumerates one conditioning set at a time
and shares each search among all pairs.
"""

from __future__ import annotations

from itertools import chain


def backend_name() -> str:
    """The kernel's name, for benchmark records; this module is the only one."""
    return "python"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def line_reach(ln: list[int], start: int, blocked: int) -> int:
    """Mask of the nodes joined to the mask ``start`` by line walks avoiding ``blocked``."""
    reach = start
    frontier = start
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= ln[v]
        frontier = nxt & ~blocked & ~reach
        reach |= frontier
    return reach


def components(
    ln: list[int], pa: list[int], ch: list[int], sp: list[int]
) -> list[tuple[int, int, int, int]]:
    """Per node, ``(comp, parents, children, spouses)`` of its line component.

    ``comp`` is the node's full line component and the other three are
    the ORs of ``pa``, ``ch`` and ``sp`` over it.  The nodes of one
    component share one tuple.  One pass over the graph; the table does
    not depend on any query, so ``MixedGraph.masks`` builds it once per
    graph and every search here takes it as its ``table`` argument.
    """
    table: list = [None] * len(ln)
    for v, entry in enumerate(table):
        if entry is not None:
            continue
        if not ln[v]:
            table[v] = (1 << v, pa[v], ch[v], sp[v])
            continue
        comp = frontier = 1 << v
        p = c = s = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            w = low.bit_length() - 1
            p |= pa[w]
            c |= ch[w]
            s |= sp[w]
            fresh = ln[w] & ~comp
            comp |= fresh
            frontier |= fresh
        entry = (comp, p, c, s)
        rest = comp
        while rest:
            low = rest & -rest
            rest ^= low
            table[low.bit_length() - 1] = entry
    return table


def separated(
    table: list[tuple[int, int, int, int]],
    ln: list[int],
    pa: list[int],
    ch: list[int],
    sp: list[int],
    amask: int,
    bmask: int,
    cmask: int,
) -> bool:
    """True iff no c-connecting walk joins ``amask`` and ``bmask`` given ``cmask``.

    ``table`` is :func:`components` of the graph.  The verdict of
    :func:`_search`, which keeps no trail on this path.
    """
    return _search(table, ln, pa, ch, sp, amask, bmask, cmask, None)


def connecting_walk(
    table: list[tuple[int, int, int, int]],
    ln: list[int],
    pa: list[int],
    ch: list[int],
    sp: list[int],
    amask: int,
    bmask: int,
    cmask: int,
) -> tuple[list[int], list[tuple[int, int, int]]] | None:
    """A c-connecting walk from ``amask`` to ``bmask`` given ``cmask``, or None.

    The walk is ``(nodes, edges)``: node positions, and per step one
    ``(kind, x, y)`` with kind 0 a line, 1 an arrow ``x -> y`` and 2 an
    arc.  It comes from the same search as :func:`separated`, spelled
    backward from its trail (see :func:`_spell`); each section is a
    shortest line path, but the walk need not be shortest in edges.
    """
    trail: list = []
    if _search(table, ln, pa, ch, sp, amask, bmask, cmask, trail):
        return None
    return _spell(ln, pa, ch, sp, amask, bmask, cmask, trail)


def _search(table, ln, pa, ch, sp, amask, bmask, cmask, trail) -> bool:
    """The one search behind :func:`separated` and :func:`connecting_walk`.

    A state at ``v`` outside C moves only through ``r``, ``v``'s line
    reach avoiding C, and through ``v``'s line component, so the states of
    one mark at the nodes of ``r`` move alike and one pop settles them
    all.  When the component does not meet C, ``r`` is the component and
    its flank unions come from the table; otherwise one search inside the
    component gives them.  The head states at the nodes of C in one
    component share the collider exit, which is taken once per component.

    With a ``trail`` list, each pop appends ``(low, head, r, comp, add_t,
    add_h)``: the popped state, its settled group, its line component and
    the tail and head states it added; an accepting pop adds none.
    """
    if amask == 0 or bmask == 0:
        return True
    free = ~cmask
    # a tail state in C has no moves, so it starts out seen
    seen_t = amask | cmask
    seen_h = 0
    pend_t = amask & free
    pend_h = 0
    collided = 0  # the line components whose collider exit is taken
    while pend_t or pend_h:
        head = not pend_t
        low = pend_h & -pend_h if head else pend_t & -pend_t
        comp, cpa, cch, csp = table[low.bit_length() - 1]
        if low & cmask:
            # a head state in C: the collider exit is its only move
            r = comp & cmask
            add_t = add_h = 0
        else:
            if comp & cmask:
                # the line reach avoiding C, with its flank unions
                r = frontier = low
                p = c = s = 0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    w = bit.bit_length() - 1
                    p |= pa[w]
                    c |= ch[w]
                    s |= sp[w]
                    fresh = ln[w] & free & ~r
                    r |= fresh
                    frontier |= fresh
            else:
                r, p, c, s = comp, cpa, cch, csp
            if r & bmask:
                if trail is not None:
                    trail.append((low, head, r, comp, 0, 0))
                return False
            # as a non-collider a tail state leaves r by any edge and a
            # head state only by an arrow out of r
            if head:
                add_t, add_h = 0, c
            else:
                add_t, add_h = p, c | s
        if head:
            seen_h |= r
            pend_h &= ~r
            # as a collider a head state leaves comp by an arrowhead, when
            # comp meets C; the walk may wander comp to pick C up
            if comp & cmask and not comp & collided:
                collided |= comp
                add_t |= cpa
                add_h |= csp
        else:
            seen_t |= r
            pend_t &= ~r
        add_t &= ~seen_t
        add_h &= ~seen_h
        seen_t |= add_t
        seen_h |= add_h
        pend_t |= add_t
        pend_h |= add_h
        if trail is not None:
            trail.append((low, head, r, comp, add_t, add_h))
    return True


def _spell(ln, pa, ch, sp, amask, bmask, cmask, trail):
    """The walk of an accepting :func:`_search` trail, spelled backward.

    The last record accepts: its section runs inside ``r`` to the lowest
    node of B there.  Each earlier step finds the record that added the
    current section's entry state and joins it by one edge from ``u``,
    the lowest node of that record's group with the edge kind that the
    entry mark needs.  The section before that edge is a shortest line
    path to ``u``: inside ``r`` for a non-collider, and inside the line
    component through a node of C for a collider.
    """
    low, head, r, _, _, _ = trail[-1]
    start = low.bit_length() - 1
    hit = r & bmask
    nodes = _line_path(ln, start, (hit & -hit).bit_length() - 1, r, 0)
    edges = [(0, x, y) for x, y in zip(nodes, nodes[1:])]
    at = len(trail) - 1
    while not (low & amask and not head):
        at -= 1
        while not trail[at][5 if head else 4] & low:
            at -= 1
        plow, phead, r, comp, _, _ = trail[at]
        # the non-collider exits out of r first, then the collider exit
        u = -1
        if not plow & cmask and (head or not phead):
            for w in _bits(r):
                if (ch[w] | (0 if phead else sp[w]) if head else pa[w]) & low:
                    u = w
                    break
        via = 0
        if u < 0:
            via = comp & cmask
            for w in _bits(comp):
                if (sp[w] if head else pa[w]) & low:
                    u = w
                    break
        if not head:
            edge = (1, start, u)
        elif ch[u] & low and not via:
            edge = (1, u, start)
        else:
            edge = (2, u, start)
        path = _line_path(ln, plow.bit_length() - 1, u, comp if via else r, via)
        edges = [(0, x, y) for x, y in zip(path, path[1:])] + [edge] + edges
        nodes = path + nodes
        low, head, start = plow, phead, plow.bit_length() - 1
    return nodes, edges


def _line_path(ln, start: int, goal: int, inside: int, via: int) -> list[int]:
    """A shortest line path from ``start`` to ``goal`` inside the mask
    ``inside`` that meets the mask ``via``; ``via`` 0 asks for nothing.

    One breadth-first pass over (node, met) states, one pair of masks per
    layer, then back from ``goal`` through the lowest predecessor.
    """
    first = 1 << start
    if via and not first & via:
        layers = [(first, 0)]  # (not yet met via, met via)
    else:
        layers = [(0, first)]
    seen_u, seen_m = layers[0]
    goal_bit = 1 << goal
    while not layers[-1][1] & goal_bit:
        out_u = out_m = 0
        for v in _bits(layers[-1][0]):
            out_u |= ln[v]
        for v in _bits(layers[-1][1]):
            out_m |= ln[v]
        next_m = (out_m | out_u & via) & inside & ~seen_m
        next_u = out_u & inside & ~via & ~seen_u
        seen_u |= next_u
        seen_m |= next_m
        layers.append((next_u, next_m))
    path = [goal]
    met = True
    for unmet, done in reversed(layers[:-1]):
        v = path[-1]
        # a met state comes from a met one, or from an unmet one at a node of via
        if not met:
            preds = unmet
        elif 1 << v & via:
            preds = done | unmet
        else:
            preds = done
        p = ln[v] & preds
        p &= -p
        met = met and bool(p & done)
        path.append(p.bit_length() - 1)
    path.reverse()
    return path


def _states_given(
    ln: list[int],
    pa: list[int],
    ch: list[int],
    sp: list[int],
    component: tuple[int, int, int, int],
    sub: int,
) -> list[tuple[int, tuple[int, int, int, int, int]]]:
    """(v, entry) for every node v of a line component, given C.

    ``component`` is the component's :func:`components` tuple and ``sub``
    is C & comp; nothing else of C changes an entry.  An entry is
    ``(group, tail_t, tail_h, head_t, head_h)``: a tail state at v moves
    to tail states at ``tail_t`` and head states at ``tail_h``, a head
    state to ``head_t`` and ``head_h``.  The states at the nodes of
    ``group`` move alike, so one visit settles them all.  For v outside C
    the group is ``r[v]``, v's line reach avoiding C; for v in C it is
    the nodes of C in ``comp`` (only its head states move).
    """
    comp, cpa, _, csp = component
    out = []
    left = comp & ~sub
    while left:
        r = frontier = left & -left
        p = c = s = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            w = low.bit_length() - 1
            p |= pa[w]
            c |= ch[w]
            s |= sp[w]
            fresh = ln[w] & left & ~r
            r |= fresh
            frontier |= fresh
        left &= ~r
        # as a non-collider a tail state leaves r by any edge and a head
        # state only by an arrow out of r; as a collider a head state
        # leaves comp by an arrowhead, when comp meets C
        if sub:
            entry = (r, p, c | s, cpa, c | csp)
        else:
            entry = (r, p, c | s, 0, c)
        while r:
            low = r & -r
            r ^= low
            out.append((low.bit_length() - 1, entry))
    entry = (sub, 0, 0, cpa, csp)
    while sub:
        low = sub & -sub
        sub ^= low
        out.append((low.bit_length() - 1, entry))
    return out


def all_pair_separations(
    n: int, table: list, ln: list[int], pa: list[int], ch: list[int], sp: list[int]
) -> list[tuple[int, int, int]]:
    """All (i, j, cmask) with i < j separated given cmask, sorted: the full model."""
    return pair_separations(n, table, ln, pa, ch, sp, (1 << n) - 1, 0)


def pair_separations(
    n: int,
    table: list,
    ln: list[int],
    pa: list[int],
    ch: list[int],
    sp: list[int],
    keep: int,
    base: int,
) -> list[tuple[int, int, int]]:
    """All (i, j, cmask) with i < j in ``keep`` separated given cmask, sorted.

    ``table`` is :func:`components` of the graph.  ``cmask`` ranges over
    ``base | sub`` for the subsets ``sub`` of ``keep`` without i and j;
    ``base`` must not meet ``keep``.  Nodes outside both are walked
    through but never reported.

    Works one conditioning set C at a time, which is exact for this
    reason.  ``separated(table, ..., 1 << i, 1 << j, cmask)`` explores the
    same states whatever ``j`` is.  It returns False exactly when a state
    ``v`` outside C that it pops has ``reach(v, avoiding C)`` containing
    ``j``.  A state's moves depend on ``v`` only through that reach,
    ``r[v]`` (the line component of ``v`` in the graph with C removed),
    and through ``v``'s full line component.  So one closure over the
    (node, mark) states from a tail state at ``i`` collects ``conn``, the
    union of ``r[v]`` over the states it reaches, and ``i`` is separated
    given C from every ``j > i`` outside C and outside ``conn``.  Sources
    with the same ``r`` share that closure; only the nodes of ``keep``
    outside C are reported as sources and targets.
    """
    # (line component, {C & component: its nodes' entries}); the loops
    # here and in _states_given are inlined, not _bits/line_reach calls,
    # because most calls are on graphs of 2-4 nodes, where they would
    # dominate the fixed cost
    comps = []
    rest = (1 << n) - 1
    while rest:
        comp = table[(rest & -rest).bit_length() - 1][0]
        rest &= ~comp
        comps.append((comp, {}))
    state = [None] * n
    found = [[] for _ in range(n * n)]  # at i * n + j, in cmask order
    # subsets of keep in increasing order; keep itself leaves no pair
    sub = 0
    while sub != keep:
        outside = keep & ~sub
        cmask = base | sub
        sub = (sub - keep) & keep
        if outside & (outside - 1) == 0:
            continue
        for comp, known in comps:
            entries = known.get(cmask & comp)
            if entries is None:
                component = table[(comp & -comp).bit_length() - 1]
                entries = known[cmask & comp] = _states_given(
                    ln, pa, ch, sp, component, cmask & comp
                )
            for v, entry in entries:
                state[v] = entry
        sources = outside
        while sources:
            low = sources & -sources
            src, pend_t, pend_h, _, _ = state[low.bit_length() - 1]
            sources &= ~src
            above = outside & ~src & -(low << 1)
            if not above:
                continue
            # nodes of C in conn are never targets, and a tail state in C
            # has no moves, so it starts out seen
            conn = src
            seen_t = src | cmask
            pend_t &= ~seen_t
            seen_t |= pend_t
            seen_h = pend_h
            while pend_t or pend_h:
                if pend_t:
                    group, add_t, add_h, _, _ = state[
                        (pend_t & -pend_t).bit_length() - 1
                    ]
                    seen_t |= group
                    pend_t &= ~group
                else:
                    group, _, _, add_t, add_h = state[
                        (pend_h & -pend_h).bit_length() - 1
                    ]
                    seen_h |= group
                    pend_h &= ~group
                conn |= group
                add_t &= ~seen_t
                add_h &= ~seen_h
                seen_t |= add_t
                seen_h |= add_h
                pend_t |= add_t
                pend_h |= add_h
            targets = above & ~conn
            src &= outside
            while targets and src:
                a = src & -src
                src ^= a
                i = a.bit_length() - 1
                row = i * n
                t = targets & -(a << 1)
                while t:
                    b = t & -t
                    t ^= b
                    j = b.bit_length() - 1
                    found[row + j].append((i, j, cmask))
    return list(chain.from_iterable(found))


def exists_separator(
    n: int,
    table: list,
    ln: list[int],
    pa: list[int],
    ch: list[int],
    sp: list[int],
    i: int,
    j: int,
) -> int:
    """Smallest-by-enumeration cmask separating i and j, or -1.

    ``table`` is :func:`components` of the graph.  The reference that
    the tests and the witness-soundness suite check ``separation.is_maximal``
    against; it tries up to 2^(n-2) sets.
    """
    pair = 1 << i | 1 << j
    for cmask in range(1 << n):
        if not cmask & pair and separated(
            table, ln, pa, ch, sp, 1 << i, 1 << j, cmask
        ):
            return cmask
    return -1
