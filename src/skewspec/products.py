"""Cartesian products of graphs and the bipartite-aware oriented product.

The oriented product of a bipartite orientation H and an arbitrary
orientation G copies G's arcs into each H-fiber and H's arcs into each
G-fiber, then reverses the copied G-arcs in fibers over Y-side vertices
of H.  Under a vertex order that lists all X-side fibers before Y-side
fibers, the resulting skew matrix is exactly

    S = I' (x) S(G) + S(H) (x) I_n

with I' = diag(+1 on the X block, -1 on the Y block), because I'
anticommutes with S(H) for a bipartite H.  That identity is what makes
the product spectrum a closed form in the factor spectra and makes
maximum skew energy compose: S S^T = l I and k I for the factors give
(l + k) I for the product, exactly, in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotBipartiteError
from .graph import (
    X,
    Graph,
    OrientedGraph,
    _require_dense_order,
    bipartition,
    build_graph,
    from_arcs,
    skew_adjacency,
)
from .spectra import (
    Spectrum,
    paired_spectrum,
    require_antisymmetric,
    skew_spectrum,
    spectra_equal,
)


@dataclass(frozen=True)
class ProductVertexOrder:
    """Indexing of product vertices (u, v) as pos(u) * n + v.

    ``h_order`` lists the left-factor vertices in row-block order; for a
    bipartite left factor that is X side first, then Y side (each side
    ascending), so sign patterns over the blocks are contiguous.
    """

    h_order: tuple[int, ...]
    n: int

    @cached_property
    def _pos(self) -> tuple[int, ...]:
        pos = [0] * len(self.h_order)
        for p, u in enumerate(self.h_order):
            pos[u] = p
        return tuple(pos)

    def index(self, u: int, v: int) -> int:
        return self._pos[u] * self.n + v

    def pair(self, idx: int) -> tuple[int, int]:
        return self.h_order[idx // self.n], idx % self.n


def product_vertex_order(h: Graph, g: Graph) -> ProductVertexOrder:
    """Vertex order for h x g products: X-first when h is bipartite.

    Falls back to the natural order of h's vertices when h has an odd
    cycle, so plain products of non-bipartite graphs still work.
    """
    try:
        b = bipartition(h)
    except NotBipartiteError:
        return ProductVertexOrder(tuple(range(h.n)), g.n)
    order = tuple(u for u in range(h.n) if b.side[u] == X) + tuple(
        u for u in range(h.n) if b.side[u] != X
    )
    return ProductVertexOrder(order, g.n)


def cartesian_product(h: Graph, g: Graph) -> Graph:
    """Cartesian product on h.n * g.n vertices under the product order.

    (u1, v1) and (u2, v2) are adjacent iff u1 == u2 and {v1, v2} is an
    edge of g, or v1 == v2 and {u1, u2} is an edge of h.
    """
    order = product_vertex_order(h, g)
    edges = []
    for u in range(h.n):
        for a, b in g.edges:
            edges.append((order.index(u, a), order.index(u, b)))
    for a, b in h.edges:
        for v in range(g.n):
            edges.append((order.index(a, v), order.index(b, v)))
    return build_graph(h.n * g.n, edges)


def oriented_product(ht: OrientedGraph, gs: OrientedGraph) -> OrientedGraph:
    """The oriented Cartesian product with Y-fiber reversal.

    The left factor must be bipartite (canonical bipartition).  Arcs of
    gs are copied into each fiber over a left-factor vertex u, reversed
    when u lies on the Y side; arcs of ht are copied across fibers
    unchanged.  The underlying graph equals
    cartesian_product(ht.graph, gs.graph).
    """
    h, g = ht.graph, gs.graph
    b = bipartition(h)
    order = product_vertex_order(h, g)
    g_arcs = gs.arcs()
    arcs = []
    for u in range(h.n):
        flip = b.side[u] != X
        for t, head in g_arcs:
            if flip:
                t, head = head, t
            arcs.append((order.index(u, t), order.index(u, head)))
    for t, head in ht.arcs():
        for v in range(g.n):
            arcs.append((order.index(t, v), order.index(head, v)))
    return from_arcs(h.n * g.n, arcs)


def product_skew_kronecker(ht: OrientedGraph, gs: OrientedGraph) -> np.ndarray:
    """The closed-form skew matrix I' (x) S(G) + S(H) (x) I_n.

    Rows and columns follow the product vertex order, so S(H) is
    conjugated into block order and I' carries +1 over X-side rows and
    -1 over Y-side rows.  Exact int64.  Raises
    :class:`BudgetExceededError` when the product order exceeds
    ``ORDER_CAP``, before anything is allocated.
    """
    h, g = ht.graph, gs.graph
    _require_dense_order(h.n * g.n)
    b = bipartition(h)
    order = product_vertex_order(h, g)
    perm = np.asarray(order.h_order, dtype=np.intp)
    s_h = skew_adjacency(ht)[np.ix_(perm, perm)]
    s_g = skew_adjacency(gs)
    signs = np.asarray([1 if b.side[u] == X else -1 for u in order.h_order])
    i_prime = np.diag(signs.astype(np.int64))
    i_n = np.eye(g.n, dtype=np.int64)
    return np.kron(i_prime, s_g) + np.kron(s_h, i_n)


def product_matrix_identity(ht: OrientedGraph, gs: OrientedGraph) -> bool:
    """Exact integer check that the oriented product's skew matrix equals
    the Kronecker closed form."""
    return np.array_equal(
        skew_adjacency(oriented_product(ht, gs)), product_skew_kronecker(ht, gs)
    )


def predicted_product_spectrum(sp_h: Spectrum, sp_g: Spectrum) -> Spectrum:
    """Product skew spectrum from the factor spectra alone.

    Both inputs must be exactly antisymmetric.  The output is the
    antisymmetric sorting of sqrt(mu^2 + lambda^2) over all pairs
    (mu, lambda) from the full signed lists.  Pairing over the signed
    lists reproduces the casewise multiplicities (cross terms twice per
    sign, pure-mu terms once per zero of the other list, and so on)
    without tracking them separately: every nonzero magnitude shows up an
    even number of times, so the +/- split is exact.
    """
    require_antisymmetric(sp_h)
    require_antisymmetric(sp_g)
    mags = sorted(
        (math.sqrt(mu * mu + lam * lam) for mu in sp_h for lam in sp_g),
        reverse=True,
    )
    return paired_spectrum(mags, len(sp_h) * len(sp_g))


def verify_product_spectrum(
    ht: OrientedGraph, gs: OrientedGraph, tol: float = 1e-8
) -> bool:
    """Whether the eigensolved product spectrum matches the closed form.

    Compares skew_spectrum(oriented_product(ht, gs)) against
    predicted_product_spectrum of the factor spectra, entrywise within
    ``tol``.
    """
    actual = skew_spectrum(oriented_product(ht, gs))
    predicted = predicted_product_spectrum(skew_spectrum(ht), skew_spectrum(gs))
    return spectra_equal(actual, predicted, tol)
