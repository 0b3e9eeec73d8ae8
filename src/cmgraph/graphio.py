"""Plain-text graph files and DOT export.

File format: '#' starts a comment, an optional ``nodes:`` directive
declares labels (required for isolated nodes), and each remaining line
holds one edge::

    nodes: a b c d
    a -- b      # line
    a -> c      # arrow with the head at c
    b <-> d     # arc

Rendering is canonical for every graph: ``nodes`` is always sorted, and
``edge_list`` gives the edges by type then endpoints.  So
``parse(render(g)) == g`` and equal graphs render to identical bytes.
``render`` raises :class:`ValueError` for a label that ``parse`` cannot
read back: one that is empty, holds whitespace or ``#``, starts with
``nodes:`` or is an edge operator.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import ARC, ARROW, LINE, MixedGraph, build_graph

_OPS = {"--": LINE, "->": ARROW, "<->": ARC}


def parse(text: str) -> MixedGraph:
    nodes: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("nodes:"):
            labels = line[len("nodes:") :].split()
            for label in labels:
                _check_label(label, lineno)
            nodes.update(labels)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 'x OP y', got {line!r}")
        x, op, y = parts
        if op not in _OPS:
            raise ParseError(lineno, f"unknown edge operator {op!r}")
        _check_label(x, lineno)
        _check_label(y, lineno)
        if x == y:
            raise ParseError(lineno, f"loop edge at {x!r}")
        nodes.update((x, y))
        edges.append((x, y, _OPS[op]))
    return build_graph(nodes, edges)


def _check_label(label: str, lineno: int) -> None:
    # parse cuts each line at its first '#' and splits it at whitespace,
    # so a label here is never empty and holds no '#'
    if label in _OPS or label.startswith("nodes:"):
        raise ParseError(lineno, f"bad node label {label!r}")


def parse_file(path: str) -> MixedGraph:
    """Parse a UTF-8 graph file; undecodable bytes raise :class:`ParseError`.

    A leading byte-order mark is dropped, as editors on some systems write one.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    return parse(text)


_OP_OF = {LINE: "--", ARROW: "->", ARC: "<->"}
_DOT_STYLE = {LINE: " [dir=none]", ARROW: "", ARC: " [dir=both]"}


def render(g: MixedGraph) -> str:
    for v in g.nodes:
        if v.split() != [v] or "#" in v or v in _OPS or v.startswith("nodes:"):
            raise ValueError(f"node label {v!r} does not survive parse")
    out = []
    if g.nodes:
        out.append("nodes: " + " ".join(g.nodes))
    for kind, x, y in g.edge_list():
        out.append(f"{x} {_OP_OF[kind]} {y}")
    return "\n".join(out) + "\n"


def to_dot(g: MixedGraph, name: str = "G") -> str:
    """DOT digraph: plain edges for lines, double-headed edges for arcs.

    Labels are quoted with each backslash and double quote escaped.
    """
    lines = [f"digraph {name} {{"]
    quoted = {v: v.replace("\\", "\\\\").replace('"', '\\"') for v in g.nodes}
    for v in g.nodes:
        lines.append(f'  "{quoted[v]}";')
    for kind, x, y in g.edge_list():
        lines.append(f'  "{quoted[x]}" -> "{quoted[y]}"{_DOT_STYLE[kind]};')
    lines.append("}")
    return "\n".join(lines) + "\n"
