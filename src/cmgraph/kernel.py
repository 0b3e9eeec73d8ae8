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


def separated(
    n: int,
    ln: list[int],
    pa: list[int],
    ch: list[int],
    sp: list[int],
    amask: int,
    bmask: int,
    cmask: int,
) -> bool:
    """True iff no c-connecting walk joins ``amask`` and ``bmask`` given ``cmask``."""
    if amask == 0 or bmask == 0:
        return True
    seen_tail = amask
    seen_head = 0
    pend_tail = amask
    pend_head = 0
    while pend_tail or pend_head:
        if pend_tail:
            low = pend_tail & -pend_tail
            pend_tail ^= low
            v, head = low.bit_length() - 1, False
        else:
            low = pend_head & -pend_head
            pend_head ^= low
            v, head = low.bit_length() - 1, True
        vbit = 1 << v
        add_tail = 0
        add_head = 0
        if not vbit & cmask:
            # non-collider exit: the section avoids C entirely
            reach = line_reach(ln, vbit, cmask)
            if reach & bmask:
                return False
            for w in _bits(reach):
                add_head |= ch[w]
                if not head:
                    add_tail |= pa[w]
                    add_head |= sp[w]
        if head:
            # collider exit: the walk may wander the whole line component
            comp = line_reach(ln, vbit, 0)
            if comp & cmask:
                for w in _bits(comp):
                    add_tail |= pa[w]
                    add_head |= sp[w]
        new_tail = add_tail & ~seen_tail
        new_head = add_head & ~seen_head
        seen_tail |= new_tail
        seen_head |= new_head
        pend_tail |= new_tail
        pend_head |= new_head
    return True


def _states_given(
    ln: list[int], pa: list[int], ch: list[int], sp: list[int], comp: int, sub: int
) -> list[tuple[int, tuple[int, int, int, int, int]]]:
    """(v, entry) for every node v of the line component ``comp``, given C.

    ``sub`` is C & comp; nothing else of C changes an entry.  An entry is
    ``(group, tail_t, tail_h, head_t, head_h)``: a tail state at v moves
    to tail states at ``tail_t`` and head states at ``tail_h``, a head
    state to ``head_t`` and ``head_h``.  The states at the nodes of
    ``group`` move alike, so one visit settles them all.  For v outside C
    the group is ``r[v]``, v's line reach avoiding C; for v in C it is
    the nodes of C in ``comp`` (only its head states move).
    """
    cpa = csp = 0
    rest = comp
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        cpa |= pa[w]
        csp |= sp[w]
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
    n: int, ln: list[int], pa: list[int], ch: list[int], sp: list[int]
) -> list[tuple[int, int, int]]:
    """All (i, j, cmask) with i < j separated given cmask, sorted: the full model."""
    return pair_separations(n, ln, pa, ch, sp, (1 << n) - 1, 0)


def pair_separations(
    n: int,
    ln: list[int],
    pa: list[int],
    ch: list[int],
    sp: list[int],
    keep: int,
    base: int,
) -> list[tuple[int, int, int]]:
    """All (i, j, cmask) with i < j in ``keep`` separated given cmask, sorted.

    ``cmask`` ranges over ``base | sub`` for the subsets ``sub`` of
    ``keep`` without i and j; ``base`` must not meet ``keep``.  Nodes
    outside both are walked through but never reported.

    Works one conditioning set C at a time, which is exact for this
    reason.  ``separated(n, ..., 1 << i, 1 << j, cmask)`` explores the
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
    # (line component, {C & component: its nodes' entries}); loops here
    # and in _states_given are inlined, not _bits/line_reach calls,
    # because most calls are on graphs of 2-4 nodes, where they would
    # dominate the fixed cost
    comps = []
    rest = (1 << n) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            fresh = ln[low.bit_length() - 1] & ~comp
            comp |= fresh
            frontier |= fresh
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
                entries = known[cmask & comp] = _states_given(
                    ln, pa, ch, sp, comp, cmask & comp
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
    n: int, ln: list[int], pa: list[int], ch: list[int], sp: list[int], i: int, j: int
) -> int:
    """Smallest-by-enumeration cmask separating i and j, or -1.

    The reference that the tests and the witness-soundness suite check
    ``separation.is_maximal`` against; it tries up to 2^(n-2) sets.
    """
    pair = 1 << i | 1 << j
    for cmask in range(1 << n):
        if not cmask & pair and separated(n, ln, pa, ch, sp, 1 << i, 1 << j, cmask):
            return cmask
    return -1
