"""Independent reference routes used to check the library's answers.

Everything here deliberately avoids the code paths under test: spectra
come from a plain eigensolve of S itself rather than S S^T, cycles from
brute force over vertex subsets, trees from Pruefer sequences, and edge
lists and graph files are checked one edge and one line at a time with
Python sets and dicts rather than numpy.
"""

from __future__ import annotations

import heapq
from itertools import combinations, product

import numpy as np

from skewspec import (
    DuplicateEdgeError,
    Graph,
    OrientedGraph,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
    build_graph,
    path,
    skew_adjacency,
)


def direct_skew_spectrum(og: OrientedGraph) -> list[float]:
    """Imaginary parts of the eigenvalues of S, via the generic solver."""
    vals = np.linalg.eigvals(skew_adjacency(og).astype(np.float64))
    return sorted(vals.imag, reverse=True)


def brute_induced_cycles(g: Graph) -> set[tuple[int, ...]]:
    """Vertex sets of induced cycles: subsets whose induced subgraph is
    connected and 2-regular."""
    found = set()
    for size in range(3, g.n + 1):
        for sub in combinations(range(g.n), size):
            inside = set(sub)
            if any(
                sum(1 for w in g.neighbors(v) if w in inside) != 2 for v in sub
            ):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for w in g.neighbors(v):
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                found.add(sub)
    return found


def all_simple_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle (chords allowed), each once, canonical start.

    Only intended for small graphs; cycle counts blow up quickly.
    """
    out: list[tuple[int, ...]] = []

    def extend(fixed_path: tuple[int, ...], in_path: frozenset[int]) -> None:
        u0, u1, last = fixed_path[0], fixed_path[1], fixed_path[-1]
        for w in g.neighbors(last):
            if w <= u0 or w in in_path:
                continue
            if g.has_edge(u0, w) and w > u1:
                out.append(fixed_path + (w,))
            extend(fixed_path + (w,), in_path | {w})

    for u0 in range(g.n):
        for u1 in g.neighbors(u0):
            if u1 > u0:
                extend((u0, u1), frozenset((u0, u1)))
    return out


def pruefer_tree(n: int, seq: tuple[int, ...]) -> Graph:
    """The labeled tree on n vertices with the given Pruefer sequence."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def all_labeled_trees(n: int) -> list[Graph]:
    if n == 1:
        return [build_graph(1, [])]
    if n == 2:
        return [path(2)]
    return [pruefer_tree(n, seq) for seq in product(range(n), repeat=n - 2)]


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def random_orientation(rng, g: Graph) -> OrientedGraph:
    return OrientedGraph(g, tuple(rng.randint(0, 1) for _ in range(g.m)))


def all_orientations(g: Graph):
    for bits in product((0, 1), repeat=g.m):
        yield OrientedGraph(g, bits)


def reference_parity_coloring(g: Graph, parity) -> tuple:
    """What ``parity_coloring`` returns, from one breadth-first pass.

    Each component is searched from its minimum-index vertex with
    neighbours in ascending order; every edge is tested against the
    colours as the search scans it, and the search stops at the first
    edge that disagrees, with the tree paths from its two ends (the end
    being expanded first) to their lowest common ancestor, joined by it.
    """
    side = [-1] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in g.neighbors(u):
                    p = parity[g.edge_index(u, w)]
                    if side[w] == -1:
                        side[w] = side[u] ^ p
                        parent[w] = u
                        depth[w] = depth[u] + 1
                        nxt.append(w)
                    elif side[u] ^ side[w] != p:
                        return None, _lca_cycle(u, w, parent, depth)
            queue = nxt
    return tuple(side), (tuple(parent), tuple(depth))


def _lca_cycle(u, w, parent, depth) -> tuple[int, ...]:
    up = [u]
    while depth[up[-1]] > depth[w]:
        up.append(parent[up[-1]])
    down = [w]
    while depth[down[-1]] > depth[u]:
        down.append(parent[down[-1]])
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return tuple(up + down[-2::-1])


def reference_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The canonical edge tuple of ``Graph(n, edges)``, one edge at a time.

    Raises what the graph constructor raises, for the first bad edge in
    input order: a non-pair, a self-loop, a range error, a duplicate.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = set()
    out = []
    for e in edges:
        try:
            a, b = e
        except ValueError:
            raise ValueError(f"edge {e!r} is not a pair") from None
        u, v = int(a), int(b)
        if u > v:
            u, v = v, u
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if u < 0 or v >= n:
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if (u, v) in seen:
            raise DuplicateEdgeError(f"edge ({u}, {v}) listed twice")
        seen.add((u, v))
        out.append((u, v))
    out.sort()
    return tuple(out)


def reference_arcs(n: int, arcs) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """``(edges, direction)`` of ``from_arcs(n, arcs)``: every arc read
    first, then checked as an edge list, then bits from a keyed sort."""
    arcs = [(int(t), int(h)) for t, h in arcs]
    edges = reference_edges(n, arcs)
    keyed = sorted((t, h, 0) if t < h else (h, t, 1) for t, h in arcs)
    return edges, tuple(bit for _, _, bit in keyed)


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


def reference_parse(text: str) -> tuple:
    """``parse_graph`` one line at a time, without the vertex cap.

    Returns ``("ug", n, edges)`` or ``("og", n, edges, direction)``, or
    raises the :class:`ParseError` of the first bad line.
    """
    lines = (
        (num, line)
        for num, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    )
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
        return ("ug", n, reference_edges(n, pairs))
    return ("og", n, *reference_arcs(n, pairs))
