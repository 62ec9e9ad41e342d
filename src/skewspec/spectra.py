"""Spectra and energies of graphs and their orientations.

The skew-symmetric matrix S of an orientation has purely imaginary
eigenvalues that pair up as +i*m and -i*m.  We represent that spectrum by
its imaginary parts: a descending list that is exactly antisymmetric
(values come in +/- pairs, with an exact 0.0 in the middle when the vertex
count is odd).  Exactness of the pairing is enforced structurally, not by
rounding.  A spectrum is found by one of three routes:

- certificate: skew energy runs the integer test S S^T = k I
  (:func:`is_gram_scalar`) first, with no n x n array.  When it holds,
  the spectrum is +/-sqrt(k) with multiplicity n/2 each and the energy is
  the n * sqrt(k) bound, so nothing is solved.
- bipartite: in X/Y order S = [[0, B], [-B^T, 0]] and A = [[0, |B|],
  [|B|^T, 0]], so both spectra are +/- the singular values of one
  n_X x n_Y block, the square roots of the eigenvalues of a
  min(n_X, n_Y) square gram, and the rest exact zeros.  The block layout
  is cached on the graph.  The adjacency magnitudes depend on the graph
  alone, so they are solved once per graph and kept on it: the first
  time both spectra of an orientation are wanted, its block and |B| are
  stacked into one product and one eigensolve, and after that only the
  orientation's block is solved.  A caller that only compares them, as
  ``check`` does, compares the two lists of magnitudes by the rule of
  :func:`spectra_equal` and builds neither spectrum.
- dense: any other graph solves n x n.  The eigenvalues of the symmetric
  positive semidefinite S S^T are the squared magnitudes, each nonzero one
  with even multiplicity, so adjacent square roots are averaged into one
  magnitude per +/- pair; the adjacency spectrum solves A.

S S^T = k I forces every degree to be k, so the off-diagonal terms
S[i, t] * S[j, t] of S S^T are read only on k-regular graphs, from one
:func:`_neighbour_table`: each vertex's k neighbours ascending, the
positions of the edges to them and the entries of S, as (n, k) arrays.
It has two readers: the exact certificate gathers the neighbours j of
the neighbours t of a block of rows i at a time, and the orientation
search pairs the neighbours of each t for the all-zero orientation.
The dense route's n x n gram, :func:`skew_gram`, reads no table: it
takes one vector-matrix product per row of a dense S.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NotAntisymmetricError, NotRegularError, NotSymmetricError
from .graph import (
    Graph,
    OrientedGraph,
    _require_dense_order,
    adjacency_matrix,
)


@dataclass(frozen=True)
class Spectrum:
    """A real eigenvalue list in descending order."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(map(float, self.values))
        if any(map(operator.lt, vals, vals[1:])):
            raise ValueError("spectrum values must be in descending order")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def require_antisymmetric(sp: Spectrum) -> None:
    """Check that a spectrum pairs off exactly as +m, -m around zero.

    Raises :class:`NotAntisymmetricError` when values[i] + values[n-1-i]
    is not exactly 0.0 for some i (the middle of an odd-length list must
    be exactly 0.0).
    """
    k = len(sp)
    for i in range((k + 1) // 2):
        if sp.values[i] + sp.values[k - 1 - i] != 0.0:
            raise NotAntisymmetricError(
                "spectrum is not antisymmetric: "
                f"values[{i}] + values[{k - 1 - i}] != 0"
            )


def symmetric_eigenvalues(mat: np.ndarray) -> Spectrum:
    """Eigenvalues of a symmetric integer matrix, descending.

    Raises :class:`NotSymmetricError` when the matrix is not exactly
    symmetric; the check is on integers, so there is no tolerance.
    """
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError("matrix is not square")
    if not np.array_equal(a, a.T):
        raise NotSymmetricError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(a.astype(np.float64))
    return Spectrum(tuple(vals[::-1].tolist()))


def adjacency_spectrum(g: Graph) -> Spectrum:
    """Eigenvalues of the adjacency matrix, descending.

    A bipartite graph takes the half-order route on ``|B|``
    (:func:`skew_spectrum` describes it), so its spectrum is exactly
    antisymmetric; any other graph solves the n x n adjacency matrix.
    Raises :class:`BudgetExceededError` above ``ORDER_CAP`` on either
    route, before allocating.
    """
    _require_dense_order(g.n)
    if g._two_coloring[0] is not None:
        return _from_magnitudes(_with_abs_magnitudes(g, [])[0], g.n)
    return symmetric_eigenvalues(adjacency_matrix(g))


# Most candidate terms in one certificate block: whole rows of k^2
# each, at least one row.  Small blocks keep the peak memory low.
_CERT_TERMS = 2**16


def _neighbour_table(og: OrientedGraph, k: int):
    # The k neighbours t of each vertex v ascending, the positions of the
    # edges {v, t} and S[v, t]: three int64 (n, k) arrays, for a k-regular
    # graph.  The edges are sorted, so one stable sort of the rows of both
    # arcs of each edge, the reversed ends first, lists each row ascending.
    ends = og.graph._ends
    rows, cols = np.concatenate((ends[:, ::-1], ends)).T
    by_row = np.argsort(rows, kind="stable")
    # S[u, v] is flip for the edge (u, v), u < v, and S[v, u] is -flip.
    flip = 1 - 2 * og._bits.astype(np.int64)
    edge, value = np.tile(np.arange(og.graph.m), 2), np.concatenate((-flip, flip))
    return [a[by_row].reshape(og.n, k) for a in (cols, edge, value)]


def skew_gram(og: OrientedGraph) -> np.ndarray:
    """S S^T over the integers, S the skew-symmetric matrix of ``og``.

    One float32 S, and each row of the int64 gram from one product of
    that row's nonzero entries with their rows of S: S^T = -S, so row i
    is -S[i, t] @ S[t] over the neighbours t of i, and its diagonal entry
    is deg(i).  It reads no :func:`_neighbour_table`.  Raises
    :class:`BudgetExceededError` above ``ORDER_CAP`` before allocating.
    """
    n = og.n
    _require_dense_order(n)
    u, v = og.graph._ends.T
    flip = 1 - 2 * og._bits.astype(np.float32)
    s = np.zeros((n, n), dtype=np.float32)
    s[u, v] = flip
    s[v, u] = -flip
    gram = np.empty((n, n), dtype=np.int64)
    # Entries are 0 or +/-1 and each sum has fewer than n <= ORDER_CAP =
    # 4096 < 2^24 terms, so every float32 partial sum is exact.
    for i in range(n):
        t = np.flatnonzero(s[i])
        gram[i] = -(s[i, t] @ s[t])
    return gram


def _from_magnitudes(mags, n: int) -> Spectrum:
    # The spectrum of order n with the descending magnitudes ``mags``, one
    # per +/- pair: the magnitudes, n - 2 len(mags) exact zeros, then the
    # magnitudes negated.  0.0 - m is +0.0 for a zero magnitude, where -m
    # would be -0.0.
    return Spectrum(
        tuple(mags)
        + (0.0,) * (n - 2 * len(mags))
        + tuple(0.0 - m for m in reversed(mags))
    )


def paired_spectrum(mags_desc, total: int) -> Spectrum:
    # mags_desc holds `total` nonnegative magnitudes sorted descending,
    # every nonzero value with exact even multiplicity.  Average each
    # adjacent pair so the emitted +/- values match to the bit.
    pos = [(mags_desc[2 * i] + mags_desc[2 * i + 1]) / 2.0 for i in range(total // 2)]
    return _from_magnitudes(pos, total)


# Eigenvalues of a gram of order n below _FLOOR * n * max(1, largest)
# are taken as zeros.
_FLOOR = 64.0 * float(np.finfo(np.float64).eps)


def _magnitudes(grams: np.ndarray, n: int) -> list[list[float]]:
    # Square roots of the eigenvalues of each positive semidefinite gram
    # in a stack, of a graph of order n, descending: one list per gram,
    # from one solver call.  Eigenvalues below the solver's resolution
    # are zeros of the exact matrix; flooring them here, per gram,
    # matters because the square root would otherwise turn an
    # O(eps)-sized residue into an O(sqrt(eps)) magnitude, far above
    # spectrum-comparison tolerances.
    if not grams.size:
        return [[] for _ in grams]
    out = []
    for sq in np.linalg.eigvalsh(grams).tolist():
        floor = _FLOOR * n * max(sq[-1], 1.0)
        out.append([math.sqrt(x) if x > floor else 0.0 for x in reversed(sq)])
    return out


def _half_order_magnitudes(g: Graph, directions: list) -> list[list[float]]:
    # In X/Y order S = [[0, B], [-B^T, 0]], so its magnitudes are the
    # singular values of B, the square roots of the eigenvalues of B B^T.
    # The block is built with the smaller side as its rows, so the gram
    # is min(n_X, n_Y) square.  One descending list of min(n_X, n_Y)
    # magnitudes per entry of ``directions``: a direction vector gives
    # B's signs from its bits, and None gives |B|, whose singular values
    # are the adjacency spectrum's positive half.  The blocks share the
    # graph's layout and are stacked, so every list comes from one
    # product and one eigensolve.
    rows, cols, index, sign = g._half_order
    blocks = np.zeros((len(directions), rows, cols))
    for block, direction in zip(blocks, directions):
        block.reshape(-1)[index] = (
            1 if direction is None else [-s if d else s for s, d in zip(sign, direction)]
        )
    # Integer entries and sums below 2^53, so the float product is exact.
    grams = blocks @ blocks.transpose(0, 2, 1)
    # Freed before the solve, which copies the grams once more.
    del blocks
    return _magnitudes(grams, g.n)


def _with_abs_magnitudes(g: Graph, directions: list) -> list:
    # The magnitudes of _half_order_magnitudes for ``directions``, then
    # those of |B|.  |B| depends on g alone: the first time, it is stacked
    # with the directions' blocks into their one eigensolve and kept on g;
    # after that it is read from g, and no solve runs for it.
    kept = vars(g).get("_abs_magnitudes")
    if kept is None:
        *mags, kept = _half_order_magnitudes(g, directions + [None])
        kept = tuple(kept)
        object.__setattr__(g, "_abs_magnitudes", kept)
        return mags + [kept]
    return (_half_order_magnitudes(g, directions) if directions else []) + [kept]


def skew_spectrum(og: OrientedGraph) -> Spectrum:
    """Imaginary parts of the eigenvalues of S, descending.

    The result is exactly antisymmetric: entry k and entry n-1-k sum to
    exactly 0.0, and the middle entry of an odd-length spectrum is 0.0.

    A bipartite graph takes the half-order route: with B the signed
    X x Y block of S under the canonical bipartition, the magnitudes are
    the square roots of the eigenvalues of B B^T (B^T B when X is the
    larger side), emitted as the min(n_X, n_Y) magnitudes, then
    n - 2 min(n_X, n_Y) exact zeros, then the magnitudes negated.  Any
    other graph takes the dense route, the eigenvalues of the n x n
    :func:`skew_gram`, each nonzero one with even multiplicity, so
    adjacent square roots are averaged into one magnitude per +/- pair.
    Raises :class:`BudgetExceededError` above ``ORDER_CAP`` on either
    route, before allocating.
    """
    n = og.n
    _require_dense_order(n)
    if og.graph._two_coloring[0] is not None:
        return _from_magnitudes(_half_order_magnitudes(og.graph, [og.direction])[0], n)
    gram = skew_gram(og).astype(np.float64)
    return paired_spectrum(_magnitudes(gram[None], n)[0], n)


def spectra_equal(a: Spectrum, b: Spectrum, tol: float = 1e-8) -> bool:
    """Whether two descending spectra agree entrywise.

    Comparison is |a[i] - b[i]| <= tol * max(1, |b[i]|), so the tolerance
    reads as relative above magnitude 1 and absolute below it.
    """
    return len(a) == len(b) and _close(a.values, b.values, tol)


def _close(xs, ys, tol: float) -> bool:
    # The entrywise rule of spectra_equal, for two sequences of one length.
    return all(abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(xs, ys))


def spectrum_energy(sp: Spectrum) -> float:
    """Sum of absolute values of a spectrum."""
    return math.fsum(map(abs, sp.values))


def graph_energy(g: Graph) -> float:
    """Sum of absolute values of the adjacency eigenvalues."""
    return spectrum_energy(adjacency_spectrum(g))


@dataclass(frozen=True)
class EnergyReport:
    """Skew energy of an orientation against the regular-degree bound.

    ``spectrum`` is the skew spectrum the energy was summed from.
    ``bound`` is n * sqrt(degree), the ceiling for k-regular graphs.
    ``exact_certificate`` records the outcome of the integer test
    S S^T == degree * I, which holds exactly when the energy meets the
    bound.  For a non-regular graph ``degree`` and ``bound`` are None and
    the certificate is False (no bound applies, so the test is skipped
    rather than failed).  ``route`` names how the spectrum was found:
    ``"certificate"`` (no eigensolve), ``"bipartite"`` (the half-order
    block) or ``"dense"`` (the n x n gram).
    """

    spectrum: Spectrum
    energy: float
    degree: int | None
    bound: float | None
    exact_certificate: bool
    route: str


def is_gram_scalar(og: OrientedGraph, k: int | None = None) -> bool:
    """Exact integer test of S S^T == k I, with no n x n array.

    When ``k`` is omitted the graph must be regular (the diagonal of
    S S^T is the degree sequence, so no other k can work); a non-regular
    graph then raises :class:`NotRegularError`.  A degree other than
    ``k`` fails at once.  Otherwise (S S^T)[i, j] is the sum of
    S[i, t] * S[j, t] over the neighbours t of i and the neighbours j of
    each t, gathered from the :func:`_neighbour_table` for a block of
    whole rows i at a time.  A block holds at most max(k^2, 2^16) such
    terms, so beyond the table the memory does not grow with n.
    """
    if k is None:
        k = og.graph.regular_degree()
        if k is None:
            raise NotRegularError("graph is not regular")
    if (og.graph._degree != k).any():
        return False
    if not og.graph.m:
        # S S^T = 0, and every degree is k = 0 or there is no vertex.
        return True
    # The degree as an int, whatever number type k came as.
    k = int(og.graph._degree[0])
    nbr, _, value = _neighbour_table(og, k)
    rows = max(1, _CERT_TERMS // (k * k))
    for i in range(0, og.n, rows):
        t = nbr[i : i + rows]
        # Each j of row i, twice, plus 1 when S[i, t] * S[j, t] is +1:
        # S[j, t] = -S[t, j], so when S[i, t] != S[t, j].
        packed = 2 * nbr[t] + (value[i : i + rows, :, None] != value[t])
        packed = packed.reshape(len(t), -1)
        packed.sort()
        starts = np.flatnonzero(np.diff(packed >> 1, prepend=-1))
        runs = np.add.reduceat(2 * (packed.ravel() & 1) - 1, starts)
        # The run of j = i sums to k; each other run of the row must be 0.
        if np.count_nonzero(runs) != len(t):
            return False
    return True


def skew_energy(og: OrientedGraph) -> EnergyReport:
    """Skew spectrum and energy plus the exact maximality certificate.

    The certificate runs first.  A certified orientation gets the
    spectrum +/-sqrt(k) and the energy n * sqrt(k) with no eigensolve and
    no bipartiteness test; any other orientation gets
    :func:`skew_spectrum`, on the half-order route when the graph is
    bipartite and on the dense route otherwise.
    """
    k = og.graph.regular_degree()
    certified = k is not None and is_gram_scalar(og, k)
    root = None if k is None else float(np.sqrt(k))
    if certified:
        sp, route = paired_spectrum([root] * og.n, og.n), "certificate"
    else:
        sp = skew_spectrum(og)
        # skew_spectrum has coloured the graph, so this reads its cache.
        route = "dense" if og.graph._two_coloring[0] is None else "bipartite"
    return EnergyReport(
        spectrum=sp,
        energy=spectrum_energy(sp),
        degree=k,
        bound=None if k is None else og.n * root,
        exact_certificate=certified,
        route=route,
    )
