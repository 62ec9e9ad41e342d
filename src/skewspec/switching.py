"""Switching, switching-equivalence with witnesses, and cycle predicates.

Switching an orientation with respect to a vertex set W reverses exactly
the arcs with one endpoint in W.  Two orientations of the same graph are
switching-equivalent precisely when the set of edges on which they
disagree is an edge cut, and a sequence of switchings always collapses to
a single one (switching by W1 then W2 equals switching by their symmetric
difference).  The decision procedure therefore never searches sequences:
it two-colors each component along the graph's breadth-first spanning
forest (built once per graph and shared with its bipartition) so that
colors differ exactly across disagreeing edges, and either every
non-tree edge is consistent (the color classes give the witness) or some
edge closes a cycle carrying an odd number of disagreements, which
certifies non-equivalence.  The elementary orientation's bit on the edge
(u, v), u < v, is the side of u, so equivalence to it colours by the
parity ``direction[e] ^ side[u]`` and builds no second orientation.

The cycle predicate needs no enumeration either.  An even cycle is
uniformly oriented exactly when an even number of its arcs run against
the elementary orientation.  That parity adds over the cycle space, and
a chord splits a cycle into two cycles that sum to it, so every
chordless cycle is uniform exactly when every fundamental cycle of a
spanning forest is.  Each graph caches its fundamental cycles as edge
positions and a parity, so the test of one orientation is one sum of
direction bits per cycle.  Only :func:`chordless_cycles`, the explicit
enumeration, has a cap.  The spectral predicate compares the two
half-order magnitude lists and builds no spectrum; the adjacency list
is solved once per graph and kept on it, so an orientation of a graph
seen before costs one half-order eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    CapExceededError,
    GraphMismatchError,
    NotACycleError,
    OddCycleError,
    VertexOutOfRangeError,
)
from .graph import (
    Graph,
    OrientedGraph,
    _require_dense_order,
    _uniform_parity,
    bipartition,
    parity_coloring,
)
from .spectra import _close, _with_abs_magnitudes

#: Default ceiling on the number of chordless cycles enumerated.
DEFAULT_CYCLE_CAP = 10**6


@dataclass(frozen=True)
class CycleWalk:
    """A cycle given as its vertex sequence v0, v1, ..., v_{L-1} (then v0)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Consecutive pairs including the closing one, in walk order."""
        vs = self.vertices
        return tuple((vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


@dataclass(frozen=True)
class SwitchWitness:
    """A vertex set w with switch(a, w) == b, sorted ascending.

    Normalized so that no component's minimum-index vertex lies in w,
    which picks one of the two valid sets per component deterministically.
    """

    w: tuple[int, ...]

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NotEquivalent:
    """Refutation: a cycle along which the two orientations disagree an
    odd number of times, so no single switching (hence no sequence of
    switchings) can transform one into the other."""

    violating_cycle: CycleWalk

    def __bool__(self) -> bool:
        return False


def switch(og: OrientedGraph, w: Iterable[int]) -> OrientedGraph:
    """Reverse every arc with exactly one endpoint in ``w``."""
    ws = set(int(v) for v in w)
    for v in ws:
        if v < 0 or v >= og.n:
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{og.n - 1}")
    bits = tuple(
        b ^ ((u in ws) != (v in ws))
        for b, (u, v) in zip(og.direction, og.graph.edges)
    )
    return OrientedGraph(og.graph, bits)


def switching_equivalent(
    a: OrientedGraph, b: OrientedGraph
) -> SwitchWitness | NotEquivalent:
    """Decide whether some vertex set w gives switch(a, w) == b.

    Requires both orientations to share the same underlying graph.  On
    success the witness satisfies switch(a, w) == b bit-for-bit; on
    failure the result carries a cycle with odd disagreement parity.
    """
    if a.graph != b.graph:
        raise GraphMismatchError("orientations have different underlying graphs")
    return _switching_result(a.graph, [x ^ y for x, y in zip(a.direction, b.direction)])


def _switching_result(g: Graph, diff: list[int]) -> SwitchWitness | NotEquivalent:
    # The verdict for orientations of g that differ on the edges where
    # ``diff`` is 1: the witness is the colour-1 class of the parity
    # colouring, and a colouring that fails gives the violating cycle.
    side, cycle = parity_coloring(g, diff)
    if side is None:
        return NotEquivalent(CycleWalk(cycle))
    return SwitchWitness(tuple(v for v, s in enumerate(side) if s))


def chordless_cycles(g: Graph, cap: int = DEFAULT_CYCLE_CAP) -> list[CycleWalk]:
    """All chordless cycles of ``g`` (induced cycles, including triangles).

    Each cycle appears once, in canonical form: it starts at its minimum
    vertex and runs toward the smaller of that vertex's two cycle
    neighbors.  Enumeration grows induced paths from each start vertex u0
    using only vertices above u0; since a chord to u0 is forbidden, any
    neighbor of u0 met along the way can only close the cycle.  Raises
    :class:`CapExceededError` carrying the partial list when more than
    ``cap`` cycles exist.
    """
    cycles: list[CycleWalk] = []
    adj = [g.neighbors(v) for v in range(g.n)]
    # chords[w] counts the interior vertices of the path (all but its two
    # ends) adjacent to w.
    chords = [0] * g.n
    # Depth-first with an explicit stack: stack[d] iterates the neighbours
    # of path[d + 1], so no cycle length hits a recursion limit.
    starts = [(u0, u1) for u0 in range(g.n) for u1 in adj[u0] if u1 > u0]
    for u0, u1 in starts:
        path, in_path = [u0, u1], {u0, u1}
        stack = [iter(adj[u1])]
        while stack:
            for w in stack[-1]:
                if w <= u0 or w in in_path:
                    continue
                # A chord from w to any interior vertex kills both closing
                # and extending through w.
                if chords[w]:
                    continue
                if u0 in adj[w]:
                    if w > u1:
                        if len(cycles) >= cap:
                            raise CapExceededError(
                                f"more than {cap} chordless cycles", cycles=cycles
                            )
                        cycles.append(CycleWalk(tuple(path) + (w,)))
                    continue
                for x in adj[path[-1]]:
                    chords[x] += 1
                path.append(w)
                in_path.add(w)
                stack.append(iter(adj[w]))
                break
            else:
                stack.pop()
                in_path.discard(path.pop())
                if stack:
                    for x in adj[path[-1]]:
                        chords[x] -= 1
    return cycles


def _validate_cycle(g: Graph, c: CycleWalk) -> None:
    vs = c.vertices
    if len(vs) < 3 or len(set(vs)) != len(vs):
        raise NotACycleError("walk must visit at least 3 distinct vertices")
    for u, v in c.edges():
        if not g.has_edge(u, v):
            raise NotACycleError(f"({u}, {v}) is not an edge")


def _uniform(bits: tuple[int, ...], positions: list[int], parity: int) -> bool:
    # The parity rule of is_uniformly_oriented, for a cycle given by
    # _uniform_parity.
    return sum(map(bits.__getitem__, positions)) % 2 == parity


def is_uniformly_oriented(og: OrientedGraph, c: CycleWalk) -> bool:
    """Parity test for an even cycle of an orientation.

    Let 2l be the cycle length and r the number of arcs that agree with
    the traversal direction of the stored walk.  The cycle is uniformly
    oriented when r and l have equal parity.  Reversing the walk maps r
    to 2l - r and traversing from any rotation leaves r unchanged, so the
    verdict does not depend on how the cycle is written down.
    """
    _validate_cycle(og.graph, c)
    if len(c) % 2:
        raise OddCycleError(f"cycle length {len(c)} is odd")
    return _uniform(og.direction, *_uniform_parity(og.graph, c.vertices))


def all_chordless_uniform(og: OrientedGraph) -> bool:
    """Whether every chordless cycle is uniformly oriented.

    Requires a bipartite underlying graph (so every cycle is even);
    vacuously true on forests.  Decided exactly, with no enumeration and
    no cap, by one parity test per edge off the canonical breadth-first
    forest: its fundamental cycle, the edge joined to the tree paths from
    its ends to their lowest common ancestor.  Those cycles span the
    cycle space, on which uniformity is a parity (see the module
    docstring).  The cycles are found once per graph and cached on it.
    """
    g = og.graph
    bipartition(g)
    bits = og.direction
    return all(_uniform(bits, *cycle) for cycle in g._fundamental_cycles)


def matches_adjacency_spectrum(og: OrientedGraph, tol: float = 1e-8) -> bool:
    """Whether the skew spectrum equals the adjacency spectrum entrywise.

    This is the spectral face of the same property that
    :func:`all_chordless_uniform` and :func:`equivalent_to_elementary`
    test combinatorially.  Requires a bipartite underlying graph.  The
    verdict is that of :func:`spectra_equal` on the two spectra, but only
    their magnitudes are compared: each half-order spectrum is its
    magnitudes, then the same number of exact zeros, then the magnitudes
    negated, and a negated pair differs by exactly what the pair does.
    """
    bipartition(og.graph)
    _require_dense_order(og.n)
    skew, adjacency = _with_abs_magnitudes(og.graph, [og.direction])
    # The zeros agree exactly, so they pass unless tol is below 0 (or NaN).
    return _close(skew, adjacency, tol) and (og.n == 2 * len(skew) or 0.0 <= tol)


def equivalent_to_elementary(og: OrientedGraph) -> SwitchWitness | NotEquivalent:
    """Decide switching-equivalence to the all-X-to-Y orientation.

    Requires a bipartite underlying graph; the elementary orientation is
    taken with respect to the canonical bipartition.  Its bit on the edge
    (u, v), u < v, is the side of u, so the two orientations differ
    where that side and ``og``'s bit differ, and no elementary
    orientation is built.  The result is that of
    :func:`switching_equivalent` against :func:`elementary_orientation`.
    """
    side = bipartition(og.graph).side
    return _switching_result(
        og.graph, [d ^ side[u] for d, (u, _) in zip(og.direction, og.graph.edges)]
    )
