"""Exhaustive search for orientations attaining the skew energy bound.

A k-regular graph on n vertices has skew energy at most n * sqrt(k), with
equality exactly when S S^T = k I.  The diagonal of S S^T is the degree
sequence, so only the off-diagonal entries constrain the orientation:
for each vertex pair (i, j),

    (S S^T)[i, j] = sum over common neighbors t of S[i, t] * S[j, t]

must vanish.  Writing x_e = 1 - 2 b_e = +1/-1 for the direction bit b_e
of edge e, each summand is a fixed sign f times x_a * x_b for the edges
a = {i, t} and b = {j, t}, read off the neighbour table
(:func:`skewspec.spectra._neighbour_table`) of the all-zero orientation
as the pairs of neighbours i < j of each t.

Presolve.  Mod 4, f * x_a * x_b = f - 2 (b_a + b_b), so a pair whose
summands have signs f_1..f_c vanishes mod 4 exactly when sum f is even
and the XOR of the bits b_a, b_b over its summands equals
(sum f) / 2 mod 2: one linear equation over GF(2) per pair.  The one
pass that files each summand under its later edge for the search also
XORs its two edge bits into its pair's equation.  The equations are
eliminated with each row's pivot at its highest edge position.  An odd
sum f or an inconsistent row proves that no orientation exists, before
any bit is tried.  That covers the classical necessary conditions:
K_{a,a} and K_a with a > 2 come out empty unless 4 divides a, the order
a Hadamard matrix (or skew-conference matrix) needs.

Cap.  The table holds one Python tuple per summand, sum C(deg, 2) over
the vertices in all, so a graph with more than 2^22 (``_BLOCK_TERMS``)
is refused with :class:`BudgetExceededError` before any summand is
made.

Search.  Bits are assigned in edge order, depth first, bit 0 before
bit 1, maintaining per vertex pair the partial sum of resolved summands.
A pivot edge takes the one bit its row forces, since every other edge in
its row comes earlier and is already assigned; only the other edges
branch.  Since edges are assigned in order, the count of a pair's
unresolved summands after each summand is fixed, and is stored with it.
A branch dies as soon as some partial sum can no longer reach zero
(|sum| > unresolved).  The first edge's bit is pinned to 0: switching at
one of its endpoints flips that bit together with the bit of every other
edge at that vertex, and preserves S S^T, so the other half of the
space holds only switched copies.  Both prunings drop only branches
without a solution, so enumeration stays lexicographic and deterministic
and the returned orientation is the first success.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NotRegularError
from .graph import Graph, OrientedGraph
from .spectra import _neighbour_table, is_gram_scalar

# Most S S^T summands a search takes: its table holds a Python tuple each.
_BLOCK_TERMS = 2**22


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an orientation search.

    ``orientation`` is None when no orientation attains the bound;
    ``states`` counts attempted bit assignments; ``exhausted`` tells a
    completed enumeration (or a presolve proof that there is nothing to
    enumerate) apart from a budget stop.
    """

    orientation: OrientedGraph | None
    states: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.orientation is not None


def _mod4_pivots(rows: list[int], rhs: list[int]) -> dict[int, tuple[int, int]] | None:
    # Elimination over GF(2) of the S S^T = k I condition mod 4, one row
    # per vertex pair: a bitset of edges and a right-hand side.  Returns
    # {pivot edge: (row, rhs)}, the pivot being the row's highest edge
    # after elimination, or None when the system has no solution.
    # Identical rows, such as a 4-cycle's seen from both its diagonals,
    # are reduced once.
    pivots: dict[int, tuple[int, int]] = {}
    for row, b in dict.fromkeys(zip(rows, rhs)):
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, b)
                break
            pivot_row, pivot_b = pivots[top]
            row ^= pivot_row
            b ^= pivot_b
        else:
            if b:
                return None
    return pivots


def _summands(g: Graph, k: int):
    # The summands of S S^T for the all-zero orientation of the k-regular
    # graph g, one per pair of neighbours i < j of each vertex t: the key
    # i * n + j, the positions of the edges {i, t} and {j, t}, and the
    # sign S[i, t] * S[j, t] = S[t, i] * S[t, j].  int64, as the key
    # reaches 2^36 at the vertex cap.
    nbr, edge, value = _neighbour_table(OrientedGraph(g, (0,) * g.m), k)
    a, b = np.triu_indices(k, 1)
    return (
        (nbr[:, a] * g.n + nbr[:, b]).ravel(),
        edge[:, a].ravel(),
        edge[:, b].ravel(),
        (value[:, a] * value[:, b]).ravel(),
    )


def find_max_energy_orientation(g: Graph, budget: int | None = None) -> SearchResult:
    """First orientation of a regular graph with S S^T = k I, if any.

    Raises :class:`NotRegularError` on non-regular input, and
    :class:`BudgetExceededError` when S S^T has more than 2^22 terms
    (the sum of C(deg, 2) over the vertices), before any is made: the
    search keeps every term in a Python table.  ``budget`` caps the
    number of attempted bit assignments; when it runs out the result has
    ``exhausted`` False.  Every returned orientation is re-certified with
    the exact integer test before being handed back.
    """
    k = g.regular_degree()
    if k is None:
        raise NotRegularError("graph is not regular")
    m = g.m
    if m == 0:
        return SearchResult(OrientedGraph(g, ()), 0, exhausted=False)
    n_terms = g.n * (k * (k - 1) // 2)
    if n_terms > _BLOCK_TERMS:
        raise BudgetExceededError(
            f"search needs {n_terms} S S^T terms, over the cap of {_BLOCK_TERMS}"
        )

    # One constraint per vertex pair with a common neighbor, numbered in
    # (i, j) order.  A presolve proof of infeasibility ends the search
    # before any state, whatever the budget: an odd sum of signs before
    # the table is built, an inconsistent GF(2) system after it.
    key, e_i, e_j, sign = _summands(g, k)
    _, pair, pending = np.unique(key, return_inverse=True, return_counts=True)
    total = np.bincount(pair, weights=sign).astype(np.int64)
    if np.any(total % 2):
        return SearchResult(None, 0, exhausted=True)

    # Each summand is keyed to the later of its two edges, the moment it
    # becomes known, in ascending pair order, and carries the number of
    # its pair's summands still unresolved once it is added.  The same
    # pass XORs its two edge bits into its pair's GF(2) row.
    later = np.maximum(e_i, e_j)
    table = np.stack((later, pair, np.minimum(e_i, e_j), sign), axis=1)
    terms_by_edge: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
    pending = pending.tolist()
    rows = [0] * len(pending)
    for e, p, other, f in table[np.lexsort((pair, later))].tolist():
        pending[p] -= 1
        rows[p] ^= 1 << e | 1 << other
        terms_by_edge[e].append((p, other, f, pending[p]))
    pivots = _mod4_pivots(rows, (total // 2 % 2).tolist())
    if pivots is None:
        return SearchResult(None, 0, exhausted=True)
    # A pivot edge's x is (-1)^rhs times the product of x over the rest
    # of its row, all earlier edges.
    forced: list[tuple[int, list[int]] | None] = [None] * m
    for e, (row, b) in pivots.items():
        row ^= 1 << e
        others = []
        while row:
            low = row & -row
            others.append(low.bit_length() - 1)
            row ^= low
        forced[e] = (1 - 2 * b, others)

    # Depth-first over edges with an explicit stack: x[e] = 1 - 2 * bit
    # of edge e, and added[e] counts the summands its current bit added,
    # so that any depth is reachable without recursion and backing up
    # subtracts exactly those.  Edge 0 only ever takes bit 0.  It is never
    # a pivot: the bits that switching at one of its ends flips include
    # its own and solve every homogeneous row, so no row is edge 0 alone.
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
            if forced[e] is not None:
                xe, others = forced[e]
                for other in others:
                    xe *= x[other]
            continue
        # Undo edge e, then back up past every edge whose bits are spent.
        while True:
            xe = x[e]
            for p, other, f, _ in terms_by_edge[e][: added[e]]:
                sums[p] -= f * xe * x[other]
            if xe == 1 and e > 0 and forced[e] is None:
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
