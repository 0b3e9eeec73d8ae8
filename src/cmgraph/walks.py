"""Walks and their section decomposition.

A walk is an alternating node/edge sequence; nodes and edges may repeat.
Every walk decomposes uniquely into *sections*: maximal subwalks made of
lines only (possibly a single node).  A section is a *collider* section
when both flanking edges carry an arrowhead into it; the first and last
sections of a walk are *endpoint* sections and are never colliders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import MalformedQueryError
from .graph import ARC, ARROW, LINE, Edge, MixedGraph, label_set

ENDPOINT = "endpoint"
COLLIDER = "collider"
NONCOLLIDER = "noncollider"


def head_at(edge: Edge, node: str) -> bool:
    """True iff ``edge`` carries an arrowhead pointing at ``node``."""
    kind, x, y = edge
    if kind == ARC:
        return node in (x, y)
    if kind == ARROW:
        return node == y
    return False


@dataclass(frozen=True)
class Walk:
    """Alternating node/edge list; ``edges[k]`` joins ``nodes[k]`` and ``nodes[k+1]``."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("walk must contain at least one node")
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError("walk edge count must be node count - 1")
        for k, edge in enumerate(self.edges):
            u, v = self.nodes[k], self.nodes[k + 1]
            x, y = edge[1], edge[2]
            if not (x == u and y == v or x == v and y == u):
                raise ValueError(f"edge {edge} does not join {u!r} and {v!r}")

    @property
    def start(self) -> str:
        return self.nodes[0]

    @property
    def end(self) -> str:
        return self.nodes[-1]

    def exists_in(self, g: MixedGraph) -> bool:
        return all(e in g.edges for e in self.edges)

    def render(self) -> str:
        parts = [self.nodes[0]]
        for k, (kind, x, y) in enumerate(self.edges):
            u, v = self.nodes[k], self.nodes[k + 1]
            if kind == ARROW:
                op = "->" if (x, y) == (u, v) else "<-"
            else:
                op = kind
            parts.append(op)
            parts.append(v)
        return " ".join(parts)


@dataclass(frozen=True)
class Section:
    nodes: tuple[str, ...]
    role: str  # endpoint / collider / noncollider


def section_decomposition(walk: Walk) -> list[Section]:
    """Split ``walk`` into maximal all-line subwalks, tagged by role."""
    # group node positions into runs joined by lines
    runs: list[list[str]] = [[walk.nodes[0]]]
    flanks: list[list[Edge | None]] = [[None, None]]
    for k, edge in enumerate(walk.edges):
        nxt = walk.nodes[k + 1]
        if edge[0] == LINE:
            runs[-1].append(nxt)
        else:
            flanks[-1][1] = edge
            runs.append([nxt])
            flanks.append([edge, None])
    sections = []
    last = len(runs) - 1
    for idx, run in enumerate(runs):
        before, after = flanks[idx]
        if idx == 0 or idx == last:
            role = ENDPOINT
        else:
            into_left = head_at(before, run[0])
            into_right = head_at(after, run[-1])
            role = COLLIDER if (into_left and into_right) else NONCOLLIDER
        sections.append(Section(tuple(run), role))
    return sections


def is_c_connecting(
    walk: Walk, a: Iterable[str], b: Iterable[str], given: Iterable[str]
) -> bool:
    """Audit a walk against the connecting-walk criterion.

    Endpoints must land in ``a`` and ``b`` (either orientation); every
    collider section must meet ``given`` and every other section must
    avoid it.  A bare ``str`` for a set raises ``MalformedQueryError``.
    """
    a, b, c = (label_set(s, MalformedQueryError) for s in (a, b, given))
    ends_ok = (walk.start in a and walk.end in b) or (
        walk.start in b and walk.end in a
    )
    if not ends_ok:
        return False
    for section in section_decomposition(walk):
        touches = any(n in c for n in section.nodes)
        if section.role == COLLIDER:
            if not touches:
                return False
        elif touches:
            return False
    return True
