"""Undirected and oriented graph types with exact integer matrices.

Vertices are the integers ``0..n-1``.  Edges are kept in canonical form:
each pair stored as ``(u, v)`` with ``u < v`` and the list sorted
lexicographically.  An orientation adds one direction bit per edge
(0 means the arc runs ``u -> v`` for the stored pair, 1 means ``v -> u``),
so reversing arcs, switching, and comparing orientations are all bit
operations on a fixed edge order.

All types are immutable after construction and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, KeysView, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DuplicateEdgeError,
    NotBipartiteError,
    SelfLoopError,
    VertexOutOfRangeError,
)

#: Bipartition side labels.
X, Y = 0, 1

#: Largest order for which a dense n x n matrix is built.
ORDER_CAP = 4096


def _normalize_edges(n: int, edges: Iterable) -> tuple[tuple[int, int], ...]:
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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in canonical form."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> dict[int, dict[int, int]]:
        # {vertex: {neighbour: edge position}}.  Edges (a, x) with a < x
        # sort before edges (x, b), so each inner dict fills in ascending
        # neighbour order.
        inc: dict[int, dict[int, int]] = {v: {} for v in range(self.n)}
        for i, (u, v) in enumerate(self.edges):
            inc[u][v] = inc[v][u] = i
        return inc

    @cached_property
    def _two_coloring(self) -> tuple[Bipartition | None, tuple]:
        # The canonical bipartition and its (parent, depth) forest, or no
        # bipartition and an odd cycle: one colouring per graph, whoever
        # asks first.
        side, found = parity_coloring(self, (1,) * self.m)
        return (None if side is None else Bipartition(side)), found

    def neighbors(self, v: int) -> KeysView[int]:
        """Read-only ascending view of the neighbours of ``v``."""
        return self._incidence[v].keys()

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self._incidence.values())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._incidence.get(u, ())

    def edge_index(self, u: int, v: int) -> int:
        """Position of the edge {u, v} in the canonical edge list."""
        return self._incidence[u][v]

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else ``None``."""
        degs = set(self.degrees())
        if self.n == 0:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None


def build_graph(n: int, edges: Iterable) -> Graph:
    """Construct a canonical :class:`Graph` from unordered vertex pairs.

    Rejects self-loops, duplicate pairs, and out-of-range endpoints.
    """
    return Graph(n, tuple(tuple(e) for e in edges))


@dataclass(frozen=True)
class OrientedGraph:
    """An orientation of a :class:`Graph`: one direction bit per edge."""

    graph: Graph
    direction: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.direction)
        if len(bits) != self.graph.m:
            raise ValueError(
                f"direction vector has length {len(bits)}, expected {self.graph.m}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError("direction bits must be 0 or 1")
        object.__setattr__(self, "direction", bits)

    @property
    def n(self) -> int:
        return self.graph.n

    def arc(self, i: int) -> tuple[int, int]:
        """The i-th edge as a (tail, head) pair."""
        u, v = self.graph.edges[i]
        return (v, u) if self.direction[i] else (u, v)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.arc(i) for i in range(self.graph.m))

    def reverse(self) -> "OrientedGraph":
        """Reverse every arc."""
        return OrientedGraph(self.graph, tuple(1 - b for b in self.direction))


def from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> OrientedGraph:
    """Build an oriented graph from explicit (tail, head) pairs."""
    arcs = [(int(t), int(h)) for t, h in arcs]
    g = build_graph(n, arcs)
    # The arcs are valid and distinct, so sorted on their canonical pairs
    # they fall in edge order.
    keyed = sorted((t, h, 0) if t < h else (h, t, 1) for t, h in arcs)
    return OrientedGraph(g, tuple(bit for _, _, bit in keyed))


def _require_dense_order(n: int) -> None:
    if n > ORDER_CAP:
        raise BudgetExceededError(
            f"a dense matrix of order {n} is over the cap of {ORDER_CAP}"
        )


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix as exact int64.

    Raises :class:`BudgetExceededError` when the order exceeds
    :data:`ORDER_CAP`, before anything is allocated.
    """
    _require_dense_order(g.n)
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


def skew_adjacency(og: OrientedGraph) -> np.ndarray:
    """Skew-symmetric matrix S with S[t, h] = 1 for each arc t -> h.

    Raises :class:`BudgetExceededError` when the order exceeds
    :data:`ORDER_CAP`, before anything is allocated.
    """
    _require_dense_order(og.n)
    s = np.zeros((og.n, og.n), dtype=np.int64)
    for i in range(og.graph.m):
        t, h = og.arc(i)
        s[t, h] = 1
        s[h, t] = -1
    return s


@dataclass(frozen=True)
class Bipartition:
    """A two-coloring, one side label (X or Y) per vertex.

    Canonical form: in each connected component the minimum-index vertex
    carries label X.
    """

    side: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(s) for s in self.side)
        if any(s not in (X, Y) for s in labels):
            raise ValueError("side labels must be X (0) or Y (1)")
        object.__setattr__(self, "side", labels)

    @property
    def x_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.side) if s == X)

    @property
    def y_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.side) if s == Y)


def parity_coloring(
    g: Graph, parity: Sequence[int]
) -> tuple[tuple[int, ...] | None, tuple]:
    """Two-color ``g`` so that colors differ exactly across parity-1 edges.

    ``parity`` holds one 0/1 entry per edge in canonical edge order.  A
    breadth-first spanning forest forces the colors, with color 0 on the
    minimum-index vertex of each component, and every other edge is
    checked against them.  Returns ``(side, (parent, depth))`` when every
    edge agrees: the forest as each vertex's tree parent (-1 at a root)
    and its distance from the root.  Otherwise returns ``(None, cycle)``
    for the first edge {u, w} that disagrees: the tree paths from u and w
    to their lowest common ancestor joined by that edge, a cycle with odd
    parity sum.  All-ones parity tests bipartiteness; the edges where two
    orientations disagree test switching equivalence.
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
                for w, i in g._incidence[u].items():
                    p = parity[i]
                    if side[w] == -1:
                        side[w] = side[u] ^ p
                        parent[w] = u
                        depth[w] = depth[u] + 1
                        nxt.append(w)
                    elif side[u] ^ side[w] != p:
                        return None, _tree_cycle(u, w, parent, depth)
            queue = nxt
    return tuple(side), (tuple(parent), tuple(depth))


def _tree_cycle(u, w, parent, depth):
    # Walk both endpoints of the offending edge up to their lowest common
    # ancestor (u != w since the graph is simple).
    pu, pw = [u], [w]
    a, b = u, w
    while depth[a] > depth[b]:
        a = parent[a]
        pu.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        pw.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        pu.append(a)
        pw.append(b)
    # pu ends at the common ancestor; pw's copy of it is dropped.
    return tuple(pu + pw[-2::-1])


def bipartition(g: Graph) -> Bipartition:
    """Canonical two-coloring by breadth-first search per component.

    The minimum-index vertex of each component gets label X, so the result
    is a deterministic function of the graph, computed once per graph and
    cached on it.  Raises
    :class:`NotBipartiteError` with an odd-cycle witness otherwise.
    """
    b, cycle = g._two_coloring
    if b is None:
        raise NotBipartiteError(
            f"graph is not bipartite: odd cycle {cycle}", odd_cycle=cycle
        )
    return b


def elementary_orientation(g: Graph) -> OrientedGraph:
    """Orient every edge from the X side to the Y side of the canonical
    bipartition."""
    b = bipartition(g)
    bits = tuple(0 if b.side[u] == X else 1 for u, v in g.edges)
    return OrientedGraph(g, bits)
