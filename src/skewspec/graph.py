"""Undirected and oriented graph types with exact integer matrices.

Vertices are the integers ``0..n-1``, with ``n`` at most
:data:`VERTEX_CAP`.  Edges are kept in canonical form: each pair stored
as ``(u, v)`` with ``u < v`` and the list sorted lexicographically.  An
orientation adds one direction bit per edge (0 means the arc runs
``u -> v`` for the stored pair, 1 means ``v -> u``), so reversing arcs,
switching, and comparing orientations are all bit operations on a fixed
edge order.

Each graph keeps its canonical edges twice: as the public tuple
``edges``, which equality and hashing read, and as one read-only int64
``(m, 2)`` array, made once when the graph is built, which the degree,
certificate, product and file-writing code read.  One reader turns an
edge or arc list into integer pairs and one sort checks them, which
also gives an arc list's direction bits; one rule names a bad list's
first bad pair.  A list of fewer than ``_SHORT`` (64) pairs is read and
sorted in Python, and its graph makes the array on first use, because
numpy's fixed cost per call outweighs the work on such small inputs.

Each graph also caches one breadth-first spanning forest, built on first
use as flat int lists: the search order, each vertex's parent, depth and
parent edge, and the edges off the tree in the order the search first
scans them.  :func:`parity_coloring`, the one two-colouring kernel,
colours along it for any edge parity, so the canonical bipartition and
every switching-equivalence test of a graph share one search.  A
bipartite graph caches two more things read for every orientation of it:
where each edge sits in the half-order block of the skew matrix, and the
fundamental cycles of its forest, each as its edge positions and the
parity of direction bits that makes it uniformly oriented.  The spectra
module keeps the magnitudes of ``|B|``, the positive half of the
adjacency spectrum, on the graph as well.

A graph of order below 128 from a list of fewer than ``_SHORT`` pairs is
shared: parsing a file or calling :func:`from_arcs` returns the one
graph of its ``(n, edges)`` among the last 32 such graphs used, so the
work that depends only on the graph is done once for all its
orientations within a process.  Every cached value depends on ``(n,
edges)`` alone, so sharing changes no result.

All types are immutable after construction and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, KeysView, NamedTuple, Sequence

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

#: Largest vertex count of any graph: 2**18, the order of the depth-6
#: K_{4,4} family member.  Graphs keep O(n) arrays per vertex and
#: reports list O(n) values, so the count is checked before anything of
#: size n is allocated.
VERTEX_CAP = 2**18

# Values beyond int64 are outside 0..n-1 for any n under the cap.
_INT64 = 2**63


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > VERTEX_CAP:
        raise BudgetExceededError(
            f"vertex count {n} is over the cap of {VERTEX_CAP}"
        )


def _int64_pairs(flat: list[int]) -> np.ndarray:
    # Python ints u0, v0, u1, v1, ... as an int64 (k, 2) array.  A pair
    # with a value beyond int64 is bad whatever n is; a stand-in in range
    # keeps whether it is a self-loop or out of range.
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        pairs = zip(flat[::2], flat[1::2])
        return np.array(
            [
                (u, v) if -_INT64 <= min(u, v) and max(u, v) < _INT64
                else (-1, -1) if u == v else (-1, -2)
                for u, v in pairs
            ],
            dtype=np.int64,
        ).reshape(-1, 2)


# Edge lists shorter than this are checked and sorted in Python, and
# their graphs build the edge array on first use.  Each numpy call has a
# fixed cost: with every list on the numpy route, the orientation-sweep
# benchmark workload, whose files hold 12 arcs, ran about 30% slower in
# wall time on a 2-vCPU VM.  Parsing in a loop, the two routes cost
# about the same at 32 to 64 pairs.
_SHORT = 64


def _read_pairs(items: Iterable):
    # The items as a sequence; the leading items that are pairs of
    # integers, in the form _sort_edges takes for their count (numpy reads
    # a long well-formed list in one call); and the error that unpacking
    # or int() raised on the next item (None if there is none).
    if not isinstance(items, (tuple, list, np.ndarray)):
        items = tuple(items)
    if len(items) >= _SHORT:
        try:
            pairs = np.asarray(items, dtype=np.int64)
            if pairs.shape == (len(items), 2):
                return items, pairs, None
        except (TypeError, ValueError, OverflowError):
            pass
    flat: list[int] = []
    for e in items:
        try:
            a, b = e
            flat += (int(a), int(b))
        except (TypeError, ValueError, OverflowError) as exc:
            return items, _pairs(flat), exc
    return items, _pairs(flat), None


def _pairs(flat: list[int]):
    # Flat ints in the form _sort_edges takes for their count.
    return flat if len(flat) < 2 * _SHORT else _int64_pairs(flat)


def _sort_edges(n: int, pairs):
    """Sort vertex pairs into canonical edges, or find the first bad one.

    ``pairs`` is a flat list of Python ints when shorter than ``_SHORT``
    pairs and an int64 ``(k, 2)`` array otherwise.  Returns
    ``(edges, ends, order, None)``: the canonical edge tuple, its
    ``(m, 2)`` array (None for a short list) and the position in
    ``pairs`` of each edge.  Otherwise returns ``(None, None, None,
    (error, i, j))`` for the first bad pair ``i`` in input order:
    ``error`` is :class:`SelfLoopError`, :class:`VertexOutOfRangeError`
    or :class:`DuplicateEdgeError`, tested in that order, and a duplicate
    repeats the earlier pair ``j``.
    """
    if isinstance(pairs, list):
        return _sort_short(n, pairs)
    ends = np.sort(pairs, axis=1)
    lo, hi = ends.T
    # As unsigned, a negative end is over n too.
    valid = (ends.view(np.uint64) < n).all() and (lo < hi).all()
    keys = lo * n + hi
    order = keys.argsort()
    keys = keys[order]
    if valid and (keys[1:] != keys[:-1]).all():
        ends = ends[order]
        ends.flags.writeable = False
        return tuple(zip(*ends.T.tolist())), ends, order, None
    return None, None, None, _first_fault(n, ends)


def _sort_short(n: int, flat: list[int]):
    # A list with a bad pair goes to the rule of the numpy route.
    first: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(zip(flat[::2], flat[1::2])):
        if u > v:
            u, v = v, u
        if u == v or u < 0 or v >= n or first.setdefault((u, v), i) != i:
            fault = _first_fault(n, np.sort(_int64_pairs(flat), axis=1))
            return None, None, None, fault
    edges = tuple(sorted(first))
    return edges, None, [first[e] for e in edges], None


def _first_fault(n: int, ends: np.ndarray) -> tuple[type, int, int]:
    # The fault _sort_edges reports, for row-sorted pairs that have one.
    lo, hi = ends.T
    bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
    k = int(bad[0]) if bad.size else len(ends)
    keys = lo[:k] * n + hi[:k]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    again = order[1:][keys[1:] == keys[:-1]]
    if again.size:
        # A stable sort puts the first copy of a pair first among equals.
        i = int(again.min())
        return DuplicateEdgeError, i, int(order[np.searchsorted(keys, lo[i] * n + hi[i])])
    return (SelfLoopError if lo[k] == hi[k] else VertexOutOfRangeError), k, k


def _normalize_edges(n: int, edges: Sequence, pairs, error):
    # Check n and the edge list read by _read_pairs, in input order, and
    # return the pairs as read, then what _sort_edges returns for them.
    _check_order(n)
    edge_tuple, ends, order, fault = _sort_edges(n, pairs)
    if fault is not None:
        kind, i, _ = fault
        u, v = sorted(int(x) for x in edges[i])
        if kind is SelfLoopError:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if kind is VertexOutOfRangeError:
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        raise DuplicateEdgeError(f"edge ({u}, {v}) listed twice")
    if error is not None:
        # The pairs read stop at the item that raised.
        e = edges[len(pairs) // 2 if isinstance(pairs, list) else len(pairs)]
        try:
            a, b = e
        except ValueError:
            raise ValueError(f"edge {e!r} is not a pair") from None
        raise error
    return pairs, edge_tuple, ends, order


def _set_edges(g: Graph, edges: tuple, ends: np.ndarray | None) -> None:
    object.__setattr__(g, "edges", edges)
    if ends is not None:
        object.__setattr__(g, "_ends", ends)


# Graphs of order below _SHARED_ORDER from short edge lists are shared,
# the last _SHARED_GRAPHS of them.  With every cache filled, 32 graphs of
# order 127 with 63 edges held 1.3 MiB under tracemalloc, most of it in
# the incidence dicts.
_SHARED_ORDER = 128
_SHARED_GRAPHS = 32


def _canonical_graph(n: int, edges: tuple, ends: np.ndarray | None) -> Graph:
    # A graph from edges already checked and sorted by _sort_edges; the
    # shared one if its list was short and its order is small.
    if ends is None and n < _SHARED_ORDER:
        return _shared_graph(n, edges)
    return _new_graph(n, edges, ends)


def _new_graph(n: int, edges: tuple, ends: np.ndarray | None) -> Graph:
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    _set_edges(g, edges, ends)
    return g


@lru_cache(maxsize=_SHARED_GRAPHS, typed=True)
def _shared_graph(n: int, edges: tuple) -> Graph:
    return _new_graph(n, edges, None)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in canonical form."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _set_edges(self, *_normalize_edges(self.n, *_read_pairs(self.edges))[1:3])

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
    def _ends(self) -> np.ndarray:
        # Stored at construction, except for graphs from short edge lists.
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    @cached_property
    def _degree(self) -> np.ndarray:
        return np.bincount(self._ends.ravel(), minlength=self.n)

    @cached_property
    def _forest(self) -> _Forest:
        # One breadth-first spanning forest per graph, whoever asks first.
        return _bfs_forest(self)

    @cached_property
    def _two_coloring(self) -> tuple[Bipartition | None, tuple]:
        # The canonical bipartition and its (parent, depth) forest, or no
        # bipartition and an odd cycle.
        side, found = parity_coloring(self, (1,) * self.m)
        if side is None:
            return None, found
        # The labels are the colouring's own 0/1 ints, so they are not
        # checked again.
        b = object.__new__(Bipartition)
        object.__setattr__(b, "side", side)
        return b, found

    @cached_property
    def _half_order(self) -> _HalfOrder:
        # The block layout of a bipartite graph.
        side = self._two_coloring[0].side
        at, count = [], [0, 0]
        for s in side:
            at.append(count[s])
            count[s] += 1
        r = X if count[X] <= count[Y] else Y
        rows, cols = count[r], count[1 - r]
        index, sign = [], []
        for u, v in self.edges:
            if side[u] == r:
                index.append(at[u] * cols + at[v])
                sign.append(1)
            else:
                index.append(at[v] * cols + at[u])
                sign.append(-1)
        index = np.array(index, dtype=np.intp)
        index.flags.writeable = False
        return _HalfOrder(rows, cols, index, sign)

    @cached_property
    def _fundamental_cycles(self) -> list[tuple[list[int], int]]:
        # For each edge off the forest of a bipartite graph, in the order
        # the search first scans it, its fundamental cycle as
        # _uniform_parity gives it, read off the forest: the walk runs
        # from the near end a to the far end b, up the tree from b to the
        # common ancestor, then down to a.  The ends' depths differ by 1,
        # as the graph is bipartite.
        f = self._forest
        parent, edge = f.parent, f.edge
        cycles = []
        for i, a, b in zip(f.cut, f.near, f.far):
            positions = [i, edge[b]]
            down = (a > b) + (b > parent[b])
            b = parent[b]
            while a != b:
                positions += (edge[a], edge[b])
                down += (parent[a] > a) + (b > parent[b])
                a, b = parent[a], parent[b]
            cycles.append((positions, (len(positions) // 2 + down) % 2))
        return cycles

    def neighbors(self, v: int) -> KeysView[int]:
        """Read-only ascending view of the neighbours of ``v``."""
        return self._incidence[v].keys()

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._degree.tolist())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._incidence.get(u, ())

    def edge_index(self, u: int, v: int) -> int:
        """Position of the edge {u, v} in the canonical edge list."""
        return self._incidence[u][v]

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else ``None``."""
        if self.n == 0:
            return 0
        d = self._degree
        return int(d[0]) if (d == d[0]).all() else None


def build_graph(n: int, edges: Iterable) -> Graph:
    """Construct a canonical :class:`Graph` from unordered vertex pairs.

    Rejects self-loops, duplicate pairs, and out-of-range endpoints, and
    a vertex count over :data:`VERTEX_CAP`.
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

    @cached_property
    def _bits(self) -> np.ndarray:
        return np.array(self.direction, dtype=np.int8)

    @property
    def n(self) -> int:
        return self.graph.n

    def arc(self, i: int) -> tuple[int, int]:
        """The i-th edge as a (tail, head) pair."""
        u, v = self.graph.edges[i]
        return (v, u) if self.direction[i] else (u, v)

    def _arc_ends(self) -> np.ndarray:
        # The arcs as an int64 (m, 2) array of (tail, head) rows.
        ends = self.graph._ends
        return np.where(self._bits[:, None] == 1, ends[:, ::-1], ends)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self._arc_ends().T.tolist()))

    def reverse(self) -> "OrientedGraph":
        """Reverse every arc."""
        return OrientedGraph(self.graph, tuple(1 - b for b in self.direction))


def _oriented(g: Graph, pairs, order) -> OrientedGraph:
    # The orientation of g by the valid, distinct arcs ``pairs``, where
    # ``order`` puts them in edge order: bit 1 where the tail is the
    # larger end.
    og = object.__new__(OrientedGraph)
    object.__setattr__(og, "graph", g)
    if isinstance(pairs, list):
        bits = tuple([1 if pairs[2 * j] > pairs[2 * j + 1] else 0 for j in order])
    else:
        arcs = pairs[order]
        array = (arcs[:, 0] > arcs[:, 1]).view(np.int8)
        array.flags.writeable = False
        object.__setattr__(og, "_bits", array)
        bits = tuple(array.tolist())
    object.__setattr__(og, "direction", bits)
    return og


def from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> OrientedGraph:
    """Build an oriented graph from explicit (tail, head) pairs.

    An arc that is not a pair of integers raises the error of unpacking
    or reading it before anything else is checked; then the arcs are
    checked as :func:`build_graph` checks edges.
    """
    arcs, pairs, error = _read_pairs(arcs)
    if error is not None:
        raise error
    pairs, edges, ends, order = _normalize_edges(n, arcs, pairs, None)
    return _oriented(_canonical_graph(n, edges, ends), pairs, order)


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
    u, v = g._ends.T
    a[u, v] = a[v, u] = 1
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


class _HalfOrder(NamedTuple):
    """Where the edges of a bipartite graph sit in its half-order block.

    In the order of the canonical bipartition S = [[0, B], [-B^T, 0]].
    The block B has one row per vertex of the smaller side (X on a tie)
    and one column per vertex of the other, each side ascending.
    ``index`` holds each edge's flat position in the ``rows x cols``
    block, in edge order, and ``sign`` the block's entry there for
    direction bit 0: S[u, v] = 1 for the arc u -> v, and a row end v
    reads S[v, u] = -1.  Bit 1 negates the entry, and ``|B|`` has 1
    at every position.
    """

    rows: int
    cols: int
    index: np.ndarray
    sign: list[int]


class _Forest(NamedTuple):
    """A breadth-first spanning forest, as flat int sequences.

    Each component is searched from its minimum-index vertex, neighbours
    in ascending order.  ``order`` lists the vertices as they are found,
    which is the order they are expanded in; ``parent``, ``depth`` and
    ``edge`` give, per vertex, its tree parent, its distance from the
    root and the position of the edge to its parent (-1, 0 and -1 at a
    root).  ``cut`` holds the positions of the edges off the tree in the
    order the search first scans them, from their ``near`` end, expanded
    first, to their ``far`` end.
    """

    order: list[int]
    parent: tuple[int, ...]
    depth: tuple[int, ...]
    edge: list[int]
    cut: list[int]
    near: list[int]
    far: list[int]


def _bfs_forest(g: Graph) -> _Forest:
    n, inc = g.n, g._incidence
    # pos[v] is v's place in ``order``, -1 until v is found.  An edge to a
    # vertex found but not yet expanded is off the tree and scanned for
    # the first time.
    pos = [-1] * n
    parent, depth, edge = [-1] * n, [0] * n, [-1] * n
    order: list[int] = []
    cut: list[int] = []
    near: list[int] = []
    far: list[int] = []
    k = 0
    for root in range(n):
        if pos[root] >= 0:
            continue
        pos[root] = len(order)
        order.append(root)
        while k < len(order):
            u = order[k]
            d = depth[u] + 1
            for w, i in inc[u].items():
                p = pos[w]
                if p < 0:
                    pos[w] = len(order)
                    order.append(w)
                    parent[w], depth[w], edge[w] = u, d, i
                elif p > k:
                    cut.append(i)
                    near.append(u)
                    far.append(w)
            k += 1
    return _Forest(order, tuple(parent), tuple(depth), edge, cut, near, far)


def parity_coloring(
    g: Graph, parity: Sequence[int]
) -> tuple[tuple[int, ...] | None, tuple]:
    """Two-color ``g`` so that colors differ exactly across parity-1 edges.

    ``parity`` holds one 0/1 entry per edge in canonical edge order.  The
    graph's breadth-first spanning forest (built once per graph) forces
    the colors, with color 0 at the minimum-index vertex of each
    component, and the edges off the forest are then checked against
    them in the order the search first scans them.  Returns ``(side,
    (parent, depth))`` when every edge agrees: the forest as each
    vertex's tree parent (-1 at a root) and its distance from the root.
    Otherwise returns ``(None, cycle)`` for the first edge {u, w} that
    disagrees, u its end expanded first: the tree paths from u and w to
    their lowest common ancestor joined by that edge, a cycle with odd
    parity sum.  All-ones parity tests bipartiteness; the edges where two
    orientations disagree test switching equivalence.
    """
    f = g._forest
    parent, edge = f.parent, f.edge
    side = [0] * g.n
    for v in f.order:
        e = edge[v]
        if e >= 0:
            side[v] = side[parent[v]] ^ parity[e]
    for i, u, w in zip(f.cut, f.near, f.far):
        if side[u] ^ side[w] != parity[i]:
            return None, _tree_cycle(u, w, parent, f.depth)
    return tuple(side), (parent, f.depth)


def _tree_cycle(u, w, parent, depth):
    # Walk both endpoints of the offending edge up to their lowest common
    # ancestor (u != w since the graph is simple).  u is the end that
    # breadth-first search expands first, never deeper than w.
    pu, pw = [u], [w]
    a, b = u, w
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


def _uniform_parity(g: Graph, vs: tuple[int, ...]) -> tuple[list[int], int]:
    # The positions of the edges of the even cycle vs of g, in walk order,
    # and the parity the direction bits on them sum to exactly when the
    # cycle is uniformly oriented.  A cycle of length 2l is uniform when
    # the number r of its arcs along the walk has l's parity.  Bit 0
    # stores the arc u -> v of an edge (u, v) with u < v, so the arc runs
    # along the step u -> v exactly when its bit equals (u > v), and r is
    # the sum of the bits plus the number of steps down, mod 2.
    inc = g._incidence
    positions, down, u = [], 0, vs[-1]
    for v in vs:
        positions.append(inc[u][v])
        down += u > v
        u = v
    return positions, (len(vs) // 2 + down) % 2


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
