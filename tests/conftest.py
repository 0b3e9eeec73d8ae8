import random
from itertools import combinations, product

import pytest

import cmgraph as cm
from cmgraph.graphio import parse, render
from cmgraph.propcheck import enumerate_cgs


def G(text: str):
    """Build a graph from ';'-separated edge lines."""
    return parse(text.replace(";", "\n"))


def enumerate_mixed_graphs(labels):
    """Every loopless mixed graph over the labels (16 states per pair)."""
    pairs = list(combinations(sorted(labels), 2))
    for choice in product(range(16), repeat=len(pairs)):
        edges = []
        for bits, (x, y) in zip(choice, pairs):
            if bits & 1:
                edges.append((x, y, cm.LINE))
            if bits & 2:
                edges.append((x, y, cm.ARROW))
            if bits & 4:
                edges.append((y, x, cm.ARROW))
            if bits & 8:
                edges.append((x, y, cm.ARC))
        yield cm.build_graph(labels, edges)


def _random_graph_by_triples(cfg):
    """``propcheck.random_graph`` as labelled edge triples encoded by ``build_graph``.

    The same draws in the same order: a shuffle of the labels, the
    partition into blocks, lines inside blocks, arrows from later blocks
    into earlier ones, then arcs over all pairs.
    """
    rng = random.Random(cfg.seed)
    names = list("abcdefgh"[: cfg.node_count])
    order = names[:]
    rng.shuffle(order)
    blocks = [[order[0]]]
    for v in order[1:]:
        if rng.random() < 0.5:
            blocks.append([v])
        else:
            blocks[-1].append(v)
    edges = []
    for block in blocks:
        for x, y in combinations(block, 2):
            if rng.random() < cfg.edge_density:
                edges.append((x, y, cm.LINE))
    for lo_idx, hi_idx in combinations(range(len(blocks)), 2):
        for tail in blocks[hi_idx]:
            for head in blocks[lo_idx]:
                if rng.random() < cfg.edge_density:
                    edges.append((tail, head, cm.ARROW))
    if cfg.graph_class == "CG":
        return cm.build_graph(names, edges)
    edges += [(x, y, cm.ARC) for x, y in combinations(names, 2) if rng.random() < cfg.edge_density]
    g = cm.build_graph(names, edges)
    return cm.anterialize(g) if cfg.graph_class == "AnG" else g


def triples(g):
    """The edges of ``g`` as the ``(x, y, kind)`` triples that ``build_graph`` takes."""
    return [(x, y, kind) for kind, x, y in g.edge_list()]


def edge_in(g, x, y, kind):
    """True iff ``g`` has the edge; a line or an arc may name its ends in either order."""
    if kind != cm.ARROW and x > y:
        x, y = y, x
    return (kind, x, y) in g.edges


def adjacency_sets(g):
    """``(ne, pa, ch, sp)``: per node, its line neighbours, parents, children
    and spouses as label sets, read from ``g.edges`` by definition."""
    ne, pa, ch, sp = ({v: set() for v in g.nodes} for _ in range(4))
    for kind, x, y in g.edges:
        if kind == cm.LINE:
            ne[x].add(y)
            ne[y].add(x)
        elif kind == cm.ARROW:
            ch[x].add(y)
            pa[y].add(x)
        else:
            sp[x].add(y)
            sp[y].add(x)
    return ne, pa, ch, sp


def masks_by_definition(g, nodes=None):
    """``(index, ln, pa, ch, sp)``: per-node mask lists over ``nodes``
    (``g.nodes`` by default), read from :func:`adjacency_sets`."""
    nodes = g.nodes if nodes is None else nodes
    index = {v: k for k, v in enumerate(nodes)}
    tables = [[sum(1 << index[u] for u in table[v]) for v in nodes] for table in adjacency_sets(g)]
    return (index, *tables)


def upward_by_stack(table):
    """Reference for ``MixedGraph._upward`` over a ``kernel.components`` table:
    per node its component and anteriors, or None when no CMG.

    The depth-first pass as first written: every component is pushed on
    the stack, also one whose parents are all done, and finished when it
    is back on top with nothing left to visit.
    """
    up = {}
    done = 0
    for entry in table:
        if entry[0] & done:
            continue
        stack = [entry]
        active = entry[0]  # the nodes of the components on the stack
        while stack:
            comp, p, _, _ = stack[-1]
            todo = p & ~done
            if todo & active:
                return None
            if todo:
                parent = table[(todo & -todo).bit_length() - 1]
                active |= parent[0]
                stack.append(parent)
                continue
            u = comp
            while p:
                d = table[(p & -p).bit_length() - 1][0]
                u |= up[d]
                p &= ~d
            up[comp] = u
            done |= comp
            active &= ~comp
            stack.pop()
    return tuple(up[entry[0]] for entry in table)


@pytest.fixture
def g_ex():
    """Six-node chain graph used by the worked separation examples."""
    return G("j -> k; k -> l; l -- r; q -> r; q -> h")


def _large_cmg(seed, n):
    """A CMG of chain-component blocks: lines inside a block, arrows from a
    block into earlier ones, and arcs between any two nodes on top."""
    rng = random.Random(f"large-cmg:{seed}:{n}")
    names = [f"v{k:03d}" for k in range(n)]
    rng.shuffle(names)
    edges = []
    earlier = []
    while len(earlier) < n:
        block = names[len(earlier) : len(earlier) + rng.randint(1, 5)]
        edges += [(x, y, cm.LINE) for x, y in combinations(block, 2) if rng.random() < 0.5]
        for v in block:
            for head in rng.sample(earlier, min(len(earlier), rng.randint(0, 2))):
                edges.append((v, head, cm.ARROW))
        earlier += block
    for _ in range(n // 4):
        x, y = rng.sample(names, 2)
        edges.append((x, y, cm.ARC))
    g = cm.build_graph(names, edges)
    m = rng.sample(names, 2)
    c = rng.sample(sorted(set(names) - set(m)), 2)
    return g, m, c


def _with_parallel_arcs(g, share=0.3):
    """``g`` plus an arc alongside a random ``share`` of its lines."""
    rng = random.Random(render(g))
    lines = sorted((x, y) for kind, x, y in g.edges if kind == cm.LINE)
    arcs = [(x, y, cm.ARC) for x, y in rng.sample(lines, round(share * len(lines)))]
    return cm.build_graph(g.nodes, triples(g) + arcs)


def _four_node_sample(k):
    """``k`` graphs of the four-node sweep: a chain graph over a-d, each pair
    with an arc beside it or not."""
    rng = random.Random("four-node-flank-unions")
    cgs = list(enumerate_cgs(tuple("abcd")))
    pairs = list(combinations("abcd", 2))
    out = []
    for _ in range(k):
        g = rng.choice(cgs)
        arcs = [(x, y, cm.ARC) for x, y in pairs if rng.random() < 0.5]
        out.append(cm.build_graph(g.nodes, triples(g) + arcs))
    return out
