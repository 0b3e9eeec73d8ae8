"""Seeded generator of large chain mixed graphs, emitted as graph text.

The nodes are split into chain-component blocks laid out in a fixed
order.  Lines join nodes inside one block, arrows run from a later block
into an earlier one, and arcs join any two nodes.  Lines never leave a
block and arrows all point the same way along the block order, so no
semi-directed cycle can contain an arrow: every output is a CMG.  Arcs
cannot close such a cycle.

Edge counts are exact rather than sampled per pair, so graphs of one
size differ in layout, not in size.  The program under test only ever
sees the text this module returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


def node_labels(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"v{k:0{width}d}" for k in range(n)]


MAX_BLOCK = 6  # nodes per chain-component block


def _blocks(rng: random.Random, labels: list[str]) -> list[list[str]]:
    order = labels[:]
    rng.shuffle(order)
    blocks = []
    k = 0
    while k < len(order):
        size = rng.randint(1, MAX_BLOCK)
        blocks.append(order[k : k + size])
        k += size
    return blocks


@dataclass(frozen=True)
class GeneratedCMG:
    """Graph text plus the block layout it was drawn from.

    Arrows point into earlier blocks, so nodes of the first blocks have
    the largest anterior sets.
    """

    text: str
    blocks: tuple[tuple[str, ...], ...]
    lines: tuple[tuple[str, str], ...]
    arrows: tuple[tuple[str, str], ...]

    @cached_property
    def _into(self) -> dict[str, set[str]]:
        into: dict[str, set[str]] = {}
        for x, y in self.lines:
            into.setdefault(x, set()).add(y)
            into.setdefault(y, set()).add(x)
        for tail, head in self.arrows:
            into.setdefault(head, set()).add(tail)
        return into

    def anterior_closure(self, nodes) -> set[str]:
        """``nodes`` plus every node with a semi-directed walk into them."""
        into = self._into
        seen = set(nodes)
        stack = list(seen)
        while stack:
            for w in into.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


def generate_cmg(
    seed: int,
    n: int,
    *,
    avg_degree: float = 3.0,
    line_share: float = 0.3,
    arc_share: float = 0.2,
) -> GeneratedCMG:
    """A CMG with ``n`` nodes and about ``avg_degree * n / 2`` edges.

    ``line_share`` and ``arc_share`` split the edges by type; arrows take
    the rest.  Lines are capped by the pairs available inside blocks and
    arrows by the pairs across blocks; arcs make up the difference, so
    the edge count is exact.  No two edges join the same pair.  The same arguments give the same
    graph text.
    """
    if n < 2 or avg_degree * n / 2 > n * (n - 1) / 4:
        raise ValueError("need n >= 2 and at most half of all node pairs as edges")
    if not 0.0 <= line_share + arc_share <= 1.0 or min(line_share, arc_share) < 0:
        raise ValueError("line_share and arc_share must be shares summing to at most 1")
    rng = random.Random(f"cmg:{seed}:{n}:{avg_degree}:{line_share}:{arc_share}")
    labels = node_labels(n)
    blocks = _blocks(rng, labels)
    total = round(avg_degree * n / 2)
    n_arcs = round(total * arc_share)

    inside = [pair for block in blocks for pair in combinations(block, 2)]
    lines = rng.sample(inside, min(round(total * line_share), len(inside)))
    taken = {(min(x, y), max(x, y)) for x, y in lines}
    # arrows run from a later block into an earlier one
    rank = {v: b for b, block in enumerate(blocks) for v in block}
    want = total - len(lines) - n_arcs
    arrows = []
    for _ in range(100 * want):
        if len(arrows) == want:
            break
        x, y = rng.sample(labels, 2)
        key = (min(x, y), max(x, y))
        if rank[x] != rank[y] and key not in taken:
            taken.add(key)
            arrows.append((x, y) if rank[x] > rank[y] else (y, x))
    # arcs take up what lines and arrows could not place; at most half of
    # all pairs are edges, so free pairs are never scarce
    arcs = []
    while len(arcs) < total - len(lines) - len(arrows):
        x, y = rng.sample(labels, 2)
        key = (min(x, y), max(x, y))
        if key not in taken:
            taken.add(key)
            arcs.append(key)

    out = ["nodes: " + " ".join(labels)]
    out += [f"{x} -- {y}" for x, y in lines]
    out += [f"{t} -> {h}" for t, h in arrows]
    out += [f"{x} <-> {y}" for x, y in arcs]
    return GeneratedCMG(
        "\n".join(out) + "\n", tuple(tuple(b) for b in blocks), tuple(lines), tuple(arrows)
    )
