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
shifted by a set ``base``, deciding all pairs and all ``2^k``
conditioning sets (``k = |keep|``) in one fixpoint, bit-sliced: bit
``q * 2^k + c`` of an integer stands for the search from the q-th kept
node given set ``c``, so the integers are ``(k - 1) * 2^k`` bits wide.
Every move of the search above depends on C only through whether one
node, or one line component, meets C, and never on the source.  So each
move maps the walks from one source given set ``c`` to walks from the
same source given the same set, and a per-node mask of the sets that
contain (avoid) the node, repeated over the source blocks, gates it
bitwise.  The fixpoint therefore computes, in each bit, exactly the
states that the search from that source given that set reaches.  The
callers keep ``k`` at 8 or less: ``separation.MODEL_NODE_CAP`` and the
property harness's graph sizes.
"""

from __future__ import annotations

from functools import lru_cache


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


@lru_cache(maxsize=None)
def _patterns(k: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The slicing constants for ``k`` kept nodes.

    ``(full, wide, pats, wide_pats)``: ``full`` is the ``2^k``-bit block
    of ones and pattern t has bit c set iff bit t of c is, that is iff
    the t-th kept node is in the conditioning set numbered c.  ``wide``
    and ``wide_pats`` repeat them in each of the ``k - 1`` source blocks.
    """
    size = 1 << k
    full = (1 << size) - 1
    # 2^t clear bits then 2^t set ones, repeated
    pats = tuple(full // ((1 << (1 << t)) + 1) << (1 << t) for t in range(k))
    # bit q * 2^k set for each source q: one multiplication repeats a block
    rep = ((1 << ((k - 1) << k)) - 1) // full
    return full, full * rep, pats, tuple(p * rep for p in pats)


@lru_cache(maxsize=1 << 12)
def _members(mask: int) -> tuple[int, ...]:
    """The nodes of ``mask`` in increasing order."""
    return tuple(_bits(mask))


def all_pair_separations(
    n: int, table: list, ln: list[int], pa: list[int], ch: list[int], sp: list[int]
) -> list[tuple[int, int, int]]:
    """One (i, j, sepmask) per pair i < j, as :func:`pair_separations`: the model."""
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
    """One ``(i, j, sepmask)`` per pair ``i < j`` of ``keep``, in order.

    ``table`` is :func:`components` of the graph.  Bit ``c`` of
    ``sepmask`` is set iff ``i`` and ``j`` are separated given set number
    ``c``: ``base`` plus the kept nodes at the set bits of ``c``, the t-th
    kept node at bit t.  Only sets without ``i`` and ``j`` are asked.
    ``base`` must not meet ``keep``.  Nodes outside both are walked
    through but never reported.

    Decides all pairs and all ``2^k`` sets, for ``k`` kept nodes, in one
    fixpoint, bit-sliced.  Bit ``q * 2^k + c`` of a state's integer
    stands for the search from source ``q`` (the q-th kept node; the last
    needs no search) given set ``c``, so the integers are ``(k - 1) * 2^k``
    bits wide.  ``IN[v]`` has bit ``c`` of every block set iff ``v`` is in
    set ``c``, and ``OUT[v]`` is its complement; a node outside ``keep``
    is in all sets or in none.

    Exactness.  Given one set C, the search of :func:`separated` from
    ``i`` moves a state at ``v`` outside C along a line to ``w`` outside
    C, out of a tail state by any edge and out of a head state by an
    arrow; and a head state anywhere in a line component that meets C
    leaves it by an arrowhead into the component (the collider exit).
    These moves test C only by ``v in C``, ``w in C`` and ``comp & C``,
    and never the source.  So, with one integer per (node, mark) state,
    the same moves applied to whole integers, gated by ``OUT[v] & OUT[w]``,
    ``OUT[v]`` and the OR of ``IN`` over the component, compute in bit
    ``q * 2^k + c`` exactly the states that the search from source ``q``
    given set ``c`` reaches: no move mixes bits.  The fixpoint starts from
    the tail state at each source ``q`` with its ``OUT`` in block ``q``; a
    state moves only the bits it has not moved before, and a component's
    collider exit only its new bits.  ``j`` is reached from ``i`` given
    set ``c`` iff a state at ``j`` holds the bit while ``j`` is outside
    the set, so the pair is separated given every set of ``OUT[i] &
    OUT[j]`` whose bit no state at ``j`` holds in ``i``'s block.
    """
    kept = _members(keep)
    k = len(kept)
    if k < 2:
        return []
    full, wide, pats, wide_pats = _patterns(k)
    # IN per node, repeated over the source blocks, then OUT
    into = [wide if base >> v & 1 else 0 for v in range(n)]
    for v, p in zip(kept, wide_pats):
        into[v] = p
    out = [wide ^ m for m in into]
    lines = list(map(_members, ln))
    parents = list(map(_members, pa))
    children = list(map(_members, ch))
    heads = [_members(c | s) for c, s in zip(ch, sp)]
    # per node, of its line component: the lowest node, the OR of IN, the
    # parents and the spouses
    colliders: list = [None] * n
    rest = (1 << n) - 1
    while rest:
        comp, cpa, _, csp = table[(rest & -rest).bit_length() - 1]
        rest &= ~comp
        nodes = _members(comp)
        meet = 0
        for v in nodes:
            meet |= into[v]
        entry = (nodes[0], meet, _members(cpa), _members(csp))
        for v in nodes:
            colliders[v] = entry
    tail = [0] * n
    head = [0] * n
    sent_t = [0] * n  # the bits of each state already moved on
    sent_h = [0] * n
    collided = [0] * n  # by lowest node: the bits whose collider exit is taken
    pend_t = pend_h = 0
    for q in range(k - 1):
        tail[kept[q]] = (full ^ pats[q]) << (q << k)
        pend_t |= 1 << kept[q]
    while pend_t or pend_h:
        if pend_t:
            bit = pend_t & -pend_t
            pend_t ^= bit
            v = bit.bit_length() - 1
            d = (tail[v] ^ sent_t[v]) & out[v]
            sent_t[v] = tail[v]
            if not d:
                continue
            # as a non-collider a tail state moves along lines avoiding C
            # and leaves by any edge
            for w in lines[v]:
                t = tail[w]
                x = t | d & out[w]
                if x != t:
                    tail[w] = x
                    pend_t |= 1 << w
            for w in parents[v]:
                t = tail[w]
                x = t | d
                if x != t:
                    tail[w] = x
                    pend_t |= 1 << w
            for w in heads[v]:
                t = head[w]
                x = t | d
                if x != t:
                    head[w] = x
                    pend_h |= 1 << w
            continue
        bit = pend_h & -pend_h
        pend_h ^= bit
        v = bit.bit_length() - 1
        new = head[v] ^ sent_h[v]
        sent_h[v] = head[v]
        # as a non-collider a head state moves along lines avoiding C and
        # leaves only by an arrow
        d = new & out[v]
        if d:
            for w in lines[v]:
                t = head[w]
                x = t | d & out[w]
                if x != t:
                    head[w] = x
                    pend_h |= 1 << w
            for w in children[v]:
                t = head[w]
                x = t | d
                if x != t:
                    head[w] = x
                    pend_h |= 1 << w
        # as a collider it leaves its component by an arrowhead where the
        # component meets C, once per component and set
        r, meet, cpa, csp = colliders[v]
        d = new & meet & ~collided[r]
        if d:
            collided[r] |= d
            for w in cpa:
                t = tail[w]
                x = t | d
                if x != t:
                    tail[w] = x
                    pend_t |= 1 << w
            for w in csp:
                t = head[w]
                x = t | d
                if x != t:
                    head[w] = x
                    pend_h |= 1 << w
    # the verdict: i and j outside the set, neither state at j reached
    found = []
    for q in range(k - 1):
        i = kept[q]
        gate = full ^ pats[q]
        for t in range(q + 1, k):
            j = kept[t]
            reached = (tail[j] | head[j]) >> (q << k)
            found.append((i, j, gate & ~pats[t] & ~reached))
    return found


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
