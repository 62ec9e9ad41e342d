"""Exhaustive search for orientations attaining the skew energy bound.

A k-regular graph on n vertices has skew energy at most n * sqrt(k), with
equality exactly when S S^T = k I.  The diagonal of S S^T is the degree
sequence, so only the off-diagonal entries constrain the orientation:
for each vertex pair (i, j),

    (S S^T)[i, j] = sum over common neighbors t of S[i, t] * S[j, t]

must vanish.  Writing x_e = +1/-1 for the direction bit of edge e, each
summand is a fixed sign times x_{it} * x_{jt}, so the search assigns bits
in edge order and maintains, per vertex pair, the partial sum of resolved
summands and the count of unresolved ones.  A branch dies as soon as some
partial sum can no longer reach zero (|sum| > pending).  The first edge's
bit is pinned to 0: switching at one endpoint flips exactly that edge's
bit while preserving S S^T, so the other half of the space is redundant.
Enumeration is lexicographic and deterministic; the returned orientation
is the first success.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRegularError
from .graph import Graph, OrientedGraph
from .spectra import is_gram_scalar


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an orientation search.

    ``orientation`` is None when no orientation attains the bound;
    ``states`` counts attempted bit assignments; ``exhausted`` tells a
    completed enumeration apart from a budget stop.
    """

    orientation: OrientedGraph | None
    states: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.orientation is not None


def find_max_energy_orientation(g: Graph, budget: int | None = None) -> SearchResult:
    """First orientation of a regular graph with S S^T = k I, if any.

    Raises :class:`NotRegularError` on non-regular input.  ``budget``
    caps the number of attempted bit assignments; when it runs out the
    result has ``exhausted`` False.  Every returned orientation is
    re-certified with the exact integer test before being handed back.
    """
    k = g.regular_degree()
    if k is None:
        raise NotRegularError("graph is not regular")
    m = g.m
    if m == 0:
        return SearchResult(OrientedGraph(g, ()), 0, True)

    # One constraint per vertex pair with at least one common neighbor.
    # Each summand is keyed to the later of its two edges, the moment it
    # becomes known.
    pair_count = 0
    pending: list[int] = []
    terms_by_edge: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            common = [t for t in g.neighbors(i) if g.has_edge(j, t)]
            if not common:
                continue
            p = pair_count
            pair_count += 1
            pending.append(len(common))
            for t in common:
                e1 = g.edge_index(i, t)
                e2 = g.edge_index(j, t)
                f = (1 if i < t else -1) * (1 if j < t else -1)
                terms_by_edge[max(e1, e2)].append((p, min(e1, e2), f))

    # Depth-first over edges with an explicit stack: applied[e] holds the
    # (pair, summand) updates made by edge e's current bit, so that any
    # depth is reachable without recursion.  Edge 0 only ever takes bit 0.
    sums = [0] * pair_count
    bits = [0] * m
    applied: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    states = 0
    e, b = 0, 0
    while True:
        if budget is not None and states >= budget:
            return SearchResult(None, states, exhausted=False)
        states += 1
        bits[e] = b
        x = 1 - 2 * b
        app = applied[e] = []
        alive = True
        for p, other, f in terms_by_edge[e]:
            v = f * x * (1 - 2 * bits[other])
            sums[p] += v
            pending[p] -= 1
            app.append((p, v))
            if abs(sums[p]) > pending[p]:
                alive = False
                break
        if alive:
            if e + 1 == m:
                break
            e, b = e + 1, 0
            continue
        # Undo edge e, then back up past every edge whose bits are spent.
        while True:
            for p, v in applied[e]:
                sums[p] -= v
                pending[p] += 1
            if bits[e] == 0 and e > 0:
                b = 1
                break
            e -= 1
            if e < 0:
                return SearchResult(None, states, exhausted=True)
    og = OrientedGraph(g, tuple(bits))
    if not is_gram_scalar(og, k):
        raise AssertionError("search invariant violated: candidate fails k I test")
    return SearchResult(og, states, exhausted=False)
