"""Exhaustive search for orientations attaining the skew energy bound.

A k-regular graph on n vertices has skew energy at most n * sqrt(k), with
equality exactly when S S^T = k I.  The diagonal of S S^T is the degree
sequence, so only the off-diagonal entries constrain the orientation:
for each vertex pair (i, j),

    (S S^T)[i, j] = sum over common neighbors t of S[i, t] * S[j, t]

must vanish.  Writing x_e = +1/-1 for the direction bit of edge e, each
summand is a fixed sign times x_{it} * x_{jt} (the table of
:func:`skewspec.spectra.gram_terms`), so the search assigns bits in edge
order and maintains, per vertex pair, the partial sum of resolved
summands.  Since edges are assigned in order, the count of a pair's
unresolved summands after each summand is fixed, and is stored with it.
A branch dies as soon as some partial sum can no longer reach zero
(|sum| > unresolved).  The first edge's bit is pinned to 0: switching at
one endpoint flips exactly that edge's bit while preserving S S^T, so
the other half of the space is redundant.
Enumeration is lexicographic and deterministic; the returned orientation
is the first success.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRegularError
from .graph import Graph, OrientedGraph
from .spectra import gram_terms, is_gram_scalar


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

    # One constraint per vertex pair with a common neighbor, numbered in
    # (i, j) order.  Each summand is keyed to the later of its two edges,
    # the moment it becomes known, in ascending pair order, and carries
    # the number of its pair's summands still unresolved once it is added.
    i, j, e_i, e_j, sign = gram_terms(g)
    _, pair, pending = np.unique(i * g.n + j, return_inverse=True, return_counts=True)
    later = np.maximum(e_i, e_j)
    table = np.stack((later, pair, np.minimum(e_i, e_j), sign), axis=1)
    terms_by_edge: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
    pending = pending.tolist()
    for e, p, other, f in table[np.lexsort((pair, later))].tolist():
        pending[p] -= 1
        terms_by_edge[e].append((p, other, f, pending[p]))

    # Depth-first over edges with an explicit stack: x[e] = 1 - 2 * bit
    # of edge e, and added[e] counts the summands its current bit added,
    # so that any depth is reachable without recursion and backing up
    # subtracts exactly those.  Edge 0 only ever takes bit 0.
    sums = [0] * len(pending)
    x = [1] * m
    added = [0] * m
    states = 0
    e, xe = 0, 1
    while True:
        if budget is not None and states >= budget:
            return SearchResult(None, states, exhausted=False)
        states += 1
        x[e] = xe
        count = 0
        alive = True
        for p, other, f, unresolved in terms_by_edge[e]:
            s = sums[p] = sums[p] + f * xe * x[other]
            count += 1
            if abs(s) > unresolved:
                alive = False
                break
        added[e] = count
        if alive:
            if e + 1 == m:
                break
            e, xe = e + 1, 1
            continue
        # Undo edge e, then back up past every edge whose bits are spent.
        while True:
            xe = x[e]
            for p, other, f, _ in terms_by_edge[e][: added[e]]:
                sums[p] -= f * xe * x[other]
            if xe == 1 and e > 0:
                xe = -1
                break
            e -= 1
            if e < 0:
                return SearchResult(None, states, exhausted=True)
    bits = [(1 - v) // 2 for v in x]
    og = OrientedGraph(g, tuple(bits))
    if not is_gram_scalar(og, k):
        raise AssertionError("search invariant violated: candidate fails k I test")
    return SearchResult(og, states, exhausted=False)
