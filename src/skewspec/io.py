"""Text formats: graph files and deterministic report rendering.

Graph files are line oriented.  The header is ``ug <n> <m>`` for an
undirected graph or ``og <n> <m>`` for an oriented one, followed by
exactly m lines: ``e <u> <v>`` (an edge) or ``a <u> <v>`` (an arc from u
to v).  Anything from ``#`` to the end of a line is a comment; blank
lines are skipped.  Serialization emits canonical form (edges sorted,
one per line, LF endings), so parse(serialize(x)) == x.

Reports are JSON with insertion-ordered keys and floats printed with 12
significant digits, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math

from .errors import ParseError
from .graph import Graph, OrientedGraph, build_graph, from_arcs


def _significant_lines(text: str):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield num, line


def _int_fields(num: int, line: str, expected: int) -> list[int]:
    parts = line.split()
    if len(parts) != expected:
        raise ParseError(num, f"expected {expected} fields, found {len(parts)}")
    out = []
    for p in parts[1:]:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(num, f"{p!r} is not an integer") from None
    return out


def parse_graph(text: str) -> Graph | OrientedGraph:
    """Parse a graph file into a Graph (ug) or OrientedGraph (og).

    Raises :class:`ParseError` carrying the 1-based line number and a
    reason for any malformed input: bad header, wrong field counts,
    out-of-range endpoints, self-loops, duplicate edges, or a body whose
    length disagrees with the header.
    """
    lines = _significant_lines(text)
    try:
        num, header = next(lines)
    except StopIteration:
        raise ParseError(1, "empty file: missing header") from None
    parts = header.split()
    if len(parts) != 3 or parts[0] not in ("ug", "og"):
        raise ParseError(num, "header must be 'ug <n> <m>' or 'og <n> <m>'")
    kind = parts[0]
    n, m = _int_fields(num, header, 3)
    if n < 0 or m < 0:
        raise ParseError(num, "vertex and edge counts must be nonnegative")
    tag = "a" if kind == "og" else "e"
    pairs: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    last = num
    for num, line in lines:
        last = num
        if len(pairs) == m:
            raise ParseError(num, f"more than {m} {tag!r} lines")
        if line.split()[0] != tag:
            raise ParseError(num, f"expected {tag!r} line, found {line.split()[0]!r}")
        u, v = _int_fields(num, line, 3)
        if u == v:
            raise ParseError(num, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(num, f"endpoint outside 0..{n - 1}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(num, f"edge {key} already given on line {seen[key]}")
        seen[key] = num
        pairs.append((u, v))
    if len(pairs) != m:
        raise ParseError(last + 1, f"header promises {m} lines, found {len(pairs)}")
    if kind == "ug":
        return build_graph(n, pairs)
    return from_arcs(n, pairs)


def serialize_graph(obj: Graph | OrientedGraph) -> str:
    """Canonical text form; round-trips through :func:`parse_graph`."""
    if isinstance(obj, OrientedGraph):
        head = f"og {obj.n} {obj.graph.m}\n"
        return head + "".join(f"a {t} {h}\n" for t, h in obj.arcs())
    head = f"ug {obj.n} {obj.m}\n"
    return head + "".join(f"e {u} {v}\n" for u, v in obj.edges)


def format_real(v: float) -> str:
    """12-significant-digit decimal form, with -0 normalized to 0."""
    if not math.isfinite(v):
        raise ValueError(f"JSON has no form for the non-finite number {v!r}")
    if v == 0.0:
        v = 0.0
    return format(float(v), ".12g")


def _emit(value, indent: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + f"{json.dumps(str(k))}: {_emit(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + "  " * indent + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v, indent) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_report(doc: dict) -> str:
    """Deterministic JSON: insertion-ordered keys, fixed float format."""
    return _emit(doc, 0) + "\n"
