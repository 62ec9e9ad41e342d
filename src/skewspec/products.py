"""Cartesian products of graphs and the bipartite-aware oriented product.

The product vertex (u, v), for u a vertex of the left factor H and v one
of the right factor G, is numbered u * G.n + v.  The oriented product of
a bipartite orientation H and an arbitrary orientation G copies G's arcs
into each H-fiber and H's arcs into each G-fiber, then reverses the
copied G-arcs in fibers over Y-side vertices of H.  Its skew matrix is
exactly

    S = I' (x) S(G) + S(H) (x) I_n

with I' the diagonal of +1 over X-side and -1 over Y-side vertices of H,
which anticommutes with S(H) for a bipartite H in any vertex order.
That identity is what makes the product spectrum a closed form in the
factor spectra and makes maximum skew energy compose: S S^T = l I and
k I for the factors give (l + k) I for the product, exactly, in integer
arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (
    X,
    Y,
    Graph,
    OrientedGraph,
    _check_order,
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


def cartesian_product(h: Graph, g: Graph) -> Graph:
    """Cartesian product on h.n * g.n vertices, (u, v) numbered u * g.n + v.

    (u1, v1) and (u2, v2) are adjacent iff u1 == u2 and {v1, v2} is an
    edge of g, or v1 == v2 and {u1, u2} is an edge of h.
    """
    n = g.n
    edges = [(u * n + a, u * n + b) for u in range(h.n) for a, b in g.edges]
    edges += [(a * n + v, b * n + v) for a, b in h.edges for v in range(n)]
    return build_graph(h.n * n, edges)


def oriented_product(ht: OrientedGraph, gs: OrientedGraph) -> OrientedGraph:
    """The oriented Cartesian product with Y-fiber reversal.

    The left factor must be bipartite (canonical bipartition).  Arcs of
    gs are copied into each fiber over a left-factor vertex u, reversed
    when u lies on the Y side; arcs of ht are copied across fibers
    unchanged.  The underlying graph equals
    cartesian_product(ht.graph, gs.graph), in the same numbering.  A
    product order over ``VERTEX_CAP`` raises
    :class:`BudgetExceededError` before any arc is built.
    """
    h, n = ht.graph, gs.n
    _check_order(h.n * n)
    y_side = np.array(bipartition(h).side) == Y
    # Fibre arcs: gs's arcs shifted to u * n, tail and head swapped over Y.
    fibre = (np.arange(h.n, dtype=np.int64) * n)[:, None, None] + gs._arc_ends()
    fibre = np.where(y_side[:, None, None], fibre[..., ::-1], fibre)
    # Cross arcs: each arc (t, head) of ht as (t * n + v, head * n + v).
    cross = ht._arc_ends()[:, None, :] * n + np.arange(n, dtype=np.int64)[:, None]
    arcs = np.concatenate((fibre.reshape(-1, 2), cross.reshape(-1, 2)))
    return from_arcs(h.n * n, arcs)


def product_skew_kronecker(ht: OrientedGraph, gs: OrientedGraph) -> np.ndarray:
    """The closed-form skew matrix I' (x) S(G) + S(H) (x) I_n.

    Rows and columns follow the product numbering u * n + v, and I' is
    the diagonal of +1 over X-side vertices of H and -1 over Y-side ones.
    Exact int64.  Raises :class:`BudgetExceededError` when the product
    order exceeds ``ORDER_CAP``, before anything is allocated.
    """
    _require_dense_order(ht.n * gs.n)
    side = bipartition(ht.graph).side
    i_prime = np.diag(np.array([1 if s == X else -1 for s in side], dtype=np.int64))
    i_n = np.eye(gs.n, dtype=np.int64)
    return np.kron(i_prime, skew_adjacency(gs)) + np.kron(skew_adjacency(ht), i_n)


def product_matrix_identity(ht: OrientedGraph, gs: OrientedGraph) -> bool:
    """Exact integer check that the oriented product's skew matrix equals
    the Kronecker closed form."""
    return _matrix_identity(oriented_product(ht, gs), ht, gs)


def _matrix_identity(product: OrientedGraph, ht: OrientedGraph, gs: OrientedGraph) -> bool:
    # product_matrix_identity on the product already built from ht and gs.
    return np.array_equal(skew_adjacency(product), product_skew_kronecker(ht, gs))


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
    return _spectrum_match(oriented_product(ht, gs), ht, gs, tol)


def _spectrum_match(
    product: OrientedGraph, ht: OrientedGraph, gs: OrientedGraph, tol: float
) -> bool:
    # verify_product_spectrum on the product already built from ht and gs.
    predicted = predicted_product_spectrum(skew_spectrum(ht), skew_spectrum(gs))
    return spectra_equal(skew_spectrum(product), predicted, tol)
