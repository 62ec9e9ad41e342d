"""Text formats: graph files and deterministic report rendering.

Graph files are line oriented.  The header is ``ug <n> <m>`` for an
undirected graph or ``og <n> <m>`` for an oriented one, followed by
exactly m lines: ``e <u> <v>`` (an edge) or ``a <u> <v>`` (an arc from u
to v).  Anything from ``#`` to the end of a line is a comment; blank
lines are skipped.  ``n`` may not exceed ``VERTEX_CAP``.  Serialization
emits canonical form (edges sorted, one per line, LF endings), so
parse(serialize(x)) == x.

The parser reads the body's endpoints in one loop over its lines and
hands them to the graph module's edge check, which also gives an arc
list's direction bits; the writer formats the graph's edge array.  A
malformed file is reported at its first bad line.

Reports are JSON with insertion-ordered keys and floats printed with 12
significant digits, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import math
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
)
from .graph import (
    VERTEX_CAP,
    Graph,
    OrientedGraph,
    _canonical_graph,
    _pairs,
    _oriented,
    _sort_edges,
)


def _significant_lines(text: str) -> tuple[list[int], list[str]]:
    # The 1-based numbers and the text of the lines left once comments
    # are cut and blank lines dropped.
    raw = text.splitlines()
    if "#" in text:
        raw = [r.split("#", 1)[0] for r in raw]
    lines = list(map(str.strip, raw))
    return list(compress(range(1, len(lines) + 1), lines)), list(filter(None, lines))


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


def _body_pairs(nums: list[int], lines: list[str], tag: str):
    # The body lines' endpoints in the form _sort_edges takes, and the
    # ParseError of the first line that is not ``tag <int> <int>`` (None
    # if every line is); the pairs are those of the lines before it.
    flat: list[int] = []
    append = flat.append
    for num, line in zip(nums, lines):
        try:
            found, u, v = line.split()
            if found == tag:
                u, v = int(u), int(v)
                append(u)
                append(v)
                continue
        except ValueError:
            found = line.split()[0]
        # The tag, then the field count, then the integers name the fault.
        if found != tag:
            return _pairs(flat), ParseError(num, f"expected {tag!r} line, found {found!r}")
        try:
            _int_fields(num, line, 3)
        except ParseError as exc:
            return _pairs(flat), exc
    return _pairs(flat), None


def parse_graph(text: str) -> Graph | OrientedGraph:
    """Parse a graph file into a Graph (ug) or OrientedGraph (og).

    Raises :class:`ParseError` carrying the 1-based line number and a
    reason for any malformed input: bad header, a vertex count over
    ``VERTEX_CAP``, wrong field counts, out-of-range endpoints,
    self-loops, duplicate edges, or a body whose length disagrees with
    the header.  The first bad line is reported; within a line the tag,
    the field count, the integers, a self-loop, the range and a
    duplicate are checked in that order.
    """
    nums, lines = _significant_lines(text)
    if not lines:
        raise ParseError(1, "empty file: missing header")
    num, header = nums[0], lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] not in ("ug", "og"):
        raise ParseError(num, "header must be 'ug <n> <m>' or 'og <n> <m>'")
    kind = parts[0]
    n, m = _int_fields(num, header, 3)
    if n < 0 or m < 0:
        raise ParseError(num, "vertex and edge counts must be nonnegative")
    if n > VERTEX_CAP:
        raise ParseError(num, f"vertex count {n} is over the cap of {VERTEX_CAP}")
    tag = "a" if kind == "og" else "e"
    body_nums, body = nums[1 : m + 1], lines[1 : m + 1]
    pairs, error = _body_pairs(body_nums, body, tag)
    edges, ends, order, fault = _sort_edges(n, pairs)
    if fault is not None:
        kind_error, i, j = fault
        u, v = _int_fields(body_nums[i], body[i], 3)
        if kind_error is SelfLoopError:
            reason = f"self-loop at vertex {u}"
        elif kind_error is DuplicateEdgeError:
            reason = f"edge {(min(u, v), max(u, v))} already given on line {body_nums[j]}"
        else:
            reason = f"endpoint outside 0..{n - 1}"
        raise ParseError(body_nums[i], reason)
    if error is not None:
        raise error
    if len(lines) > m + 1:
        raise ParseError(nums[m + 1], f"more than {m} {tag!r} lines")
    if len(body) < m:
        raise ParseError(nums[-1] + 1, f"header promises {m} lines, found {len(body)}")
    g = _canonical_graph(n, edges, ends)
    return g if kind == "ug" else _oriented(g, pairs, order)


def serialize_graph(obj: Graph | OrientedGraph) -> str:
    """Canonical text form; round-trips through :func:`parse_graph`."""
    if isinstance(obj, OrientedGraph):
        kind, tag, ends = "og", "a", obj._arc_ends()
    else:
        kind, tag, ends = "ug", "e", obj._ends
    m = len(ends)
    return f"{kind} {obj.n} {m}\n" + (f"{tag} %d %d\n" * m) % tuple(ends.ravel().tolist())


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
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = "  " * (indent + 1)
        inner = ",\n".join(
            f"{pad}{_quote(str(k))}: {_emit(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + inner + "\n" + "  " * indent + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v, indent) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_report(doc: dict) -> str:
    """Deterministic JSON: insertion-ordered keys, fixed float format."""
    return _emit(doc, 0) + "\n"
