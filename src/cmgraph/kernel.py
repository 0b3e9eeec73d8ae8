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
One search, :func:`separated`, gives the verdict and, when the caller
passes it a trail list, a trail of the settled groups.  The search
accepts as soon as it adds a state at a node of B outside C, without
waiting for that state's pop.  After a connected verdict :func:`spell`
turns the trail into a witness walk, without a second search: each
section is a shortest line path, but the walk is not always shortest
in edges.

On a CMG every node of a c-connecting walk between A and B given C is
in A, B or C or anterior to them, and the search can be kept to those
nodes.  Its ``within`` argument is the mask that head states may enter;
tail states stay there by themselves.  Given the OR of
``upward_masks`` over the query's nodes, the search gives the same
verdict and a trail that :func:`spell` turns into the same walk, and it
settles no group outside that mask (the proof is in :func:`separated`).
``separation.c_separated``, its witness search and the maximality
searches pass it; :func:`exists_separator`, the reference for
``separation.is_maximal``, does not.

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
states that the search from that source given that set reaches.  Two
checks keep ``k`` at 8 or less: ``pairwise_model`` raises above
``separation.MODEL_NODE_CAP``, and ``propcheck.run_suite`` rejects a
``max_nodes`` above the length of its ``_LABELS``; both are 8.
"""

from __future__ import annotations

from functools import lru_cache


def backend_name() -> str:
    """The kernel's name, for benchmark records; this module is the only one."""
    return "python"


def _walk(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _small_table() -> tuple[tuple[int, ...], ...]:
    """Per mask below 2^8, its nodes in increasing order.

    The masks ``2^k`` to ``2^(k+1) - 1`` are those below ``2^k`` with
    node ``k`` added last, so the table is built by doubling it eight
    times rather than by walking each mask at import.
    """
    table: list[tuple[int, ...]] = [()]
    for k in range(8):
        table += [bits + (k,) for bits in table]
    return tuple(table)


_SMALL = _small_table()


def _bits(mask: int):
    """The nodes of ``mask`` in increasing order.

    A stored tuple for a mask below 2^8, which covers every mask of a
    graph of up to 8 nodes (the property harness and ``pairwise_model``);
    above that a generator that walks the set bits.
    """
    return _SMALL[mask] if mask < 256 else _walk(mask)


def _union(rows, mask: int) -> int:
    """The OR of ``rows[v]`` over the nodes ``v`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def line_reach(ln: list[int], start: int, blocked: int) -> int:
    """Mask of the nodes joined to the mask ``start`` by line walks avoiding ``blocked``.

    ``ln`` may be any per-node mask list: a step goes from node ``v`` to
    each node of ``ln[v]``.  Over ``ln[k] | pa[k]`` it reaches
    anteriors.  ``start`` itself is always in the result.
    """
    reach = start
    frontier = start
    while frontier:
        frontier = _union(ln, frontier) & ~blocked & ~reach
        reach |= frontier
    return reach


def components(
    ln: list[int], pa: list[int], ch: list[int], sp: list[int]
) -> list[tuple[int, int, int, int]]:
    """Per node, ``(comp, parents, children, spouses)`` of its line component.

    ``comp`` is the node's full line component and the other three are
    the ORs of ``pa``, ``ch`` and ``sp`` over it.  The nodes of one
    component share one tuple.  One pass over the graph; the table does
    not depend on any query, so ``MixedGraph.components`` builds it once
    per graph and every search here takes it as its ``table`` argument.
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
    trail: list | None = None,
    within: int = -1,
) -> bool:
    """True iff no c-connecting walk joins ``amask`` and ``bmask`` given ``cmask``.

    ``table`` is :func:`components` of the graph.  A state at ``v``
    outside C moves only through ``r``, ``v``'s line reach avoiding C, and
    through ``v``'s line component, so the states of one mark at the nodes
    of ``r`` move alike and one pop settles them all.  When the component
    does not meet C, ``r`` is the component and its flank unions come from
    the table; otherwise one search inside the component gives them.  The
    head states at the nodes of C in one component share the collider
    exit, which is taken once per component.

    The search accepts when a popped group meets B, and as soon as a pop
    adds a state at a node of B outside C: such a state has its node in
    its own reach, so its pop would accept.  States are popped lowest bit
    first, tail states before head states, so waiting for that pop would
    settle every state pending ahead of it first.

    With a ``trail`` list, each pop appends ``(low, head, r, comp, add_t,
    add_h)``: the popped state, its settled group, its line component and
    the tail and head states it added.  The last record accepts and adds
    none: the accepting pop itself, or after a pop that adds a state at a
    node of B, a closing record for that state with ``r`` its one node.
    After a False verdict :func:`spell` turns the trail into the walk.

    Head states enter only the nodes of ``within``; -1 bounds nothing.
    On a CMG, let U be the OR of ``upward_masks`` over A, B and C: the
    query's nodes, their line components and their anteriors.  U is a
    union of line components and holds the parents of its nodes.  Passed
    as ``within``, U changes neither the verdict nor the walk:

    1. Tail states never leave U.  The start states lie in A.  A tail
       state is added only at the parents of a popped group ``r`` or of
       a component that meets C.  By induction ``r`` lies in the
       component of a state in U, and a component that meets C lies in
       U because C does; U holds the parents of both.
    2. A head state outside U lies in a component that misses C, since
       every component that meets C lies in U.  So it has no collider
       exit; as a non-collider it adds head states at the children of
       its group and no tail state.  Those children lie outside U, for a
       parent of a node of U lies in U.  Its group, its component and
       all it adds lie outside U.
    3. So no state outside U leads to a state in U, nor to B, which lies
       in U.  A pop outside U changes no seen or pending state in U, no
       tail state and no ``collided`` bit, and it cannot accept.  Pops
       take tail states first and then the lowest head state, so the
       unbounded search pops the states in U in the bounded search's
       order, each with the same seen states in U, and accepts at the
       same pop.  So the verdict is the same, and the bounded trail is
       the unbounded one less the records of states outside U, with
       ``add_h`` less its bits outside U.  :func:`spell` reads the
       accepting record and the records that added states in U, so it
       spells the same walk.
    """
    if amask == 0 or bmask == 0:
        return True
    free = ~cmask
    goal = bmask & free
    # a tail state in C has no moves, so it starts out seen; a head
    # state outside ``within`` is never added
    seen_t = amask | cmask
    seen_h = ~within
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
        if (add_t | add_h) & goal:
            if trail is not None:
                trail.append((low, head, r, comp, add_t, add_h))
                # close on the lowest such state, a tail state first
                end = add_t & goal
                head = not end
                end = end or add_h & goal
                end &= -end
                trail.append((end, head, end, table[end.bit_length() - 1][0], 0, 0))
            return False
        seen_t |= add_t
        seen_h |= add_h
        pend_t |= add_t
        pend_h |= add_h
        if trail is not None:
            trail.append((low, head, r, comp, add_t, add_h))
    return True


def spell(ln, pa, ch, sp, amask, bmask, cmask, trail):
    """The walk of an accepting :func:`separated` trail, spelled backward.

    ``trail`` must come from a search of this very query that returned
    False.  The walk is ``(nodes, edges)``: node positions, and per step
    one ``(kind, x, y)`` with kind 0 a line, 1 an arrow ``x -> y`` and 2
    an arc.

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
    paths = [_line_path(ln, start, (hit & -hit).bit_length() - 1, r, 0)]
    joins = []
    at = len(trail) - 1
    while not (low & amask and not head):
        at -= 1
        while not trail[at][5 if head else 4] & low:
            at -= 1
        plow, phead, r, comp, _, _ = trail[at]
        # the non-collider exits out of r first: a head state at start is
        # entered by an arrow into start, or from a tail state also by an
        # arc, and a tail state by an arrow out of start.  Then the
        # collider exit out of comp, by an arc or by that arrow
        u = 0
        if not plow & cmask and (head or not phead):
            if not head:
                u = r & ch[start]
            elif phead:
                u = r & pa[start]
            else:
                u = r & (pa[start] | sp[start])
        via = 0
        if not u:
            via = comp & cmask
            u = comp & (sp[start] if head else ch[start])
        u = (u & -u).bit_length() - 1
        if not head:
            joins.append((1, start, u))
        elif pa[start] >> u & 1 and not via:
            joins.append((1, u, start))
        else:
            joins.append((2, u, start))
        start = plow.bit_length() - 1
        paths.append(_line_path(ln, start, u, comp if via else r, via))
        low, head = plow, phead
    nodes = paths.pop()
    edges = [(0, x, y) for x, y in zip(nodes, nodes[1:])]
    while paths:
        path = paths.pop()
        edges.append(joins.pop())
        edges += [(0, x, y) for x, y in zip(path, path[1:])]
        nodes += path
    return nodes, edges


def _line_path(ln, start: int, goal: int, inside: int, via: int) -> list[int]:
    """A shortest line path from ``start`` to ``goal`` inside the mask
    ``inside`` that meets the mask ``via``; ``via`` 0 asks for nothing.

    One breadth-first pass, then back from ``goal`` through the lowest
    predecessor.  With ``via`` 0 a layer is one mask; otherwise it is a
    pair of masks over (node, met) states.  A path that is ``start``
    alone needs no pass.
    """
    first = 1 << start
    if start == goal and (not via or first & via):
        return [start]
    goal_bit = 1 << goal
    if not via:
        layers = [first]
        seen = first
        while not layers[-1] & goal_bit:
            frontier = layers[-1]
            out = 0
            while frontier:
                bit = frontier & -frontier
                out |= ln[bit.bit_length() - 1]
                frontier ^= bit
            out &= inside & ~seen
            seen |= out
            layers.append(out)
        path = [goal]
        for layer in reversed(layers[:-1]):
            p = ln[path[-1]] & layer
            path.append((p & -p).bit_length() - 1)
        path.reverse()
        return path
    if first & via:
        layers = [(0, first)]  # (not yet met via, met via)
    else:
        layers = [(first, 0)]
    seen_u, seen_m = layers[0]
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


def _members(mask: int) -> tuple[int, ...]:
    """The nodes of ``mask`` in increasing order, as a tuple: :func:`_bits`'s table."""
    return _SMALL[mask] if mask < 256 else tuple(_walk(mask))


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
