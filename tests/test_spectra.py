import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import find, given
from hypothesis import strategies as st

import skewspec.graph as graph_module
import skewspec.spectra as spectra_module
from skewspec import (
    BASE_NAMES,
    FamilySpec,
    NotRegularError,
    NotSymmetricError,
    BudgetExceededError,
    OrientedGraph,
    Spectrum,
    adjacency_matrix,
    adjacency_spectrum,
    bipartition,
    build_graph,
    complete,
    complete_bipartite,
    cycle,
    elementary_orientation,
    find_max_energy_orientation,
    from_arcs,
    generate_family,
    graph_energy,
    hypercube,
    is_gram_scalar,
    path,
    seed_orientation,
    skew_adjacency,
    skew_energy,
    skew_gram,
    skew_spectrum,
    spectra_equal,
    spectrum_energy,
    symmetric_eigenvalues,
)
from skewspec.search import _summands
from skewspec.spectra import _neighbour_table
from oracles import all_orientations, direct_skew_spectrum
from strategies import bipartite_oriented_graphs, graphs, oriented_graphs


@st.composite
def gram_cases(draw):
    # Random, edgeless and regular graphs, randomly or maximally oriented,
    # with the degree, a wrong k, 0 or -1 as the scalar.
    og = draw(
        st.one_of(
            st.sampled_from(BASE_NAMES).map(seed_orientation),
            st.one_of(
                graphs(min_n=0, max_n=8),
                st.integers(0, 6).map(lambda n: build_graph(n, [])),
                st.integers(3, 8).map(cycle),
                st.integers(1, 6).map(complete),
                st.integers(1, 4).map(lambda a: complete_bipartite(a, a)),
                st.integers(1, 3).map(hypercube),
            ).flatmap(
                lambda g: st.lists(
                    st.integers(0, 1), min_size=g.m, max_size=g.m
                ).map(lambda bits: OrientedGraph(g, tuple(bits)))
            ),
        )
    )
    deg = og.graph.regular_degree()
    k = draw(st.integers(-1, og.n + 1) | st.just(0 if deg is None else deg))
    return og, k


@st.composite
def regular_orientations(draw):
    # A family seed, or an edgeless, cycle, complete, complete bipartite
    # or hypercube graph with its vertices relabelled at random, randomly
    # oriented.
    if draw(st.booleans()):
        return seed_orientation(draw(st.sampled_from(BASE_NAMES)))
    g = draw(
        st.one_of(
            st.integers(0, 6).map(lambda n: build_graph(n, [])),
            st.integers(3, 8).map(cycle),
            st.integers(1, 7).map(complete),
            st.integers(1, 4).map(lambda a: complete_bipartite(a, a)),
            st.integers(1, 4).map(hypercube),
        )
    )
    label = draw(st.permutations(range(g.n)))
    g = build_graph(g.n, [(label[u], label[v]) for u, v in g.edges])
    bits = draw(st.lists(st.integers(0, 1), min_size=g.m, max_size=g.m))
    return OrientedGraph(g, tuple(bits))


class TestSymmetricEigenvalues:
    def test_p2(self):
        sp = symmetric_eigenvalues(np.array([[0, 1], [1, 0]]))
        assert sp.values == pytest.approx((1.0, -1.0))

    def test_c4_adjacency(self):
        sp = adjacency_spectrum(cycle(4))
        assert sp.values == pytest.approx((2.0, 0.0, 0.0, -2.0), abs=1e-12)

    def test_zero_matrix(self):
        sp = symmetric_eigenvalues(np.zeros((3, 3), dtype=np.int64))
        assert sp.values == (0.0, 0.0, 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            symmetric_eigenvalues(np.array([[0, 1], [-1, 0]]))
        with pytest.raises(NotSymmetricError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_descending_enforced_by_spectrum_type(self):
        with pytest.raises(ValueError):
            Spectrum((0.0, 1.0))


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


class TestDenseAdjacencyRoute:
    """Adjacency spectra of graphs that are not bipartite, which solve the
    n x n adjacency matrix, against their closed forms."""

    @staticmethod
    def _assert_spectrum(g, expected):
        assert g._two_coloring[0] is None
        vals = adjacency_spectrum(g).values
        assert vals == pytest.approx(sorted(expected, reverse=True), abs=1e-9)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_complete(self, n):
        self._assert_spectrum(complete(n), [n - 1] + [-1] * (n - 1))

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_cycle(self, n):
        self._assert_spectrum(
            cycle(n), [2 * math.cos(2 * math.pi * j / n) for j in range(n)]
        )

    def test_petersen(self):
        self._assert_spectrum(_petersen(), [3] + [1] * 5 + [-2] * 4)


class TestSkewSpectrum:
    def test_p2(self):
        assert skew_spectrum(from_arcs(2, [(0, 1)])).values == (1.0, -1.0)

    def test_c4_odd_orientation(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        r2 = math.sqrt(2)
        assert skew_spectrum(og).values == pytest.approx((r2, r2, -r2, -r2))

    def test_star_any_orientation_matches_i_times_adjacency(self):
        k13 = complete_bipartite(1, 3)
        target = adjacency_spectrum(k13)
        assert target.values == pytest.approx(
            (math.sqrt(3), 0.0, 0.0, -math.sqrt(3)), abs=1e-12
        )
        for og in all_orientations(k13):
            assert spectra_equal(skew_spectrum(og), target, 1e-8)

    @given(oriented_graphs())
    def test_exact_antisymmetry(self, og):
        vals = skew_spectrum(og).values
        n = len(vals)
        for i in range(n):
            assert vals[i] + vals[n - 1 - i] == 0.0

    @given(oriented_graphs())
    def test_trace_identity(self, og):
        total = sum(v * v for v in skew_spectrum(og).values)
        assert total == pytest.approx(2 * og.graph.m, rel=1e-8, abs=1e-8)

    @given(oriented_graphs())
    def test_matches_direct_eigensolve(self, og):
        mine = skew_spectrum(og).values
        ref = direct_skew_spectrum(og)
        assert all(abs(a - b) < 1e-9 for a, b in zip(mine, ref))

    @given(oriented_graphs(max_n=6))
    def test_gram_diagonal_is_degree_sequence(self, og):
        gram = skew_gram(og)
        assert gram.dtype == np.int64
        assert tuple(gram.diagonal().tolist()) == og.graph.degrees()
        s = skew_adjacency(og)
        assert np.array_equal(gram, s @ s.T)


def _assert_exactly_antisymmetric(vals):
    n = len(vals)
    for i in range(n):
        assert vals[i] == -vals[n - 1 - i]
    assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in vals)


def _components_with_edges(g) -> int:
    seen, count = set(), 0
    for root in range(g.n):
        if root in seen or not g.neighbors(root):
            continue
        count += 1
        stack = [root]
        seen.add(root)
        while stack:
            for w in g.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _side_imbalance(g) -> int:
    # |n_X - n_Y| under the canonical bipartition (Y is label 1).
    return abs(g.n - 2 * sum(bipartition(g).side))


class TestHalfOrderRoute:
    """Bipartite spectra from the X x Y block, against full-order solves."""

    def test_p5_middle_eigenvalue_is_exactly_zero(self):
        vals = adjacency_spectrum(path(5)).values
        assert vals[2] == 0.0
        assert vals == pytest.approx((math.sqrt(3), 1, 0, -1, -math.sqrt(3)), abs=1e-12)

    @pytest.mark.parametrize(
        "g, top",
        [(complete_bipartite(4, 4), 4.0), (complete_bipartite(2, 5), math.sqrt(10))],
        ids=["K4,4", "K2,5"],
    )
    def test_rank_one_blocks_have_exact_zeros(self, g, top):
        # All-ones blocks: one magnitude, then exact zeros, also from the
        # 2 x 2 gram of the unbalanced K2,5.
        vals = adjacency_spectrum(g).values
        assert vals[0] == pytest.approx(top)
        assert vals[1:-1] == (0.0,) * (g.n - 2)
        assert vals[-1] == -vals[0]

    @pytest.mark.parametrize(
        "shape",
        [
            lambda og: og.n == 0,
            lambda og: og.n == 1,
            lambda og: og.n >= 2 and og.graph.m == 0,
            lambda og: og.graph.m and _side_imbalance(og.graph) >= 2,
            lambda og: og.graph.m and 0 in og.graph.degrees(),
            lambda og: _components_with_edges(og.graph) >= 2,
        ],
        ids=["empty", "one-vertex", "edgeless", "unbalanced", "isolated", "components"],
    )
    def test_strategy_reaches(self, shape):
        find(bipartite_oriented_graphs(min_n=0), shape)

    @given(bipartite_oriented_graphs(min_n=0))
    def test_skew_matches_direct_eigensolve(self, og):
        mine = skew_spectrum(og).values
        ref = direct_skew_spectrum(og)
        assert len(mine) == len(ref) == og.n
        assert all(abs(a - b) < 1e-9 for a, b in zip(mine, ref))
        _assert_exactly_antisymmetric(mine)

    @given(bipartite_oriented_graphs(min_n=0))
    def test_adjacency_matches_full_order_eigensolve(self, og):
        mine = adjacency_spectrum(og.graph).values
        ref = np.linalg.eigvalsh(adjacency_matrix(og.graph).astype(np.float64))[::-1]
        assert len(mine) == len(ref) == og.n
        assert all(abs(a - b) < 1e-9 for a, b in zip(mine, ref))
        _assert_exactly_antisymmetric(mine)

    def test_cap_checked_before_colouring_or_allocation(self, monkeypatch):
        monkeypatch.setattr(graph_module, "ORDER_CAP", 3)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated a matrix over the cap")

        monkeypatch.setattr(np, "zeros", refuse)
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(BudgetExceededError):
            skew_spectrum(og)
        with pytest.raises(BudgetExceededError):
            adjacency_spectrum(og.graph)
        assert "_two_coloring" not in vars(og.graph)

    def test_certified_energy_colours_nothing(self):
        member = generate_family(FamilySpec("k44", 2)).orientation
        og = OrientedGraph(build_graph(member.n, member.graph.edges), member.direction)
        assert skew_energy(og).route == "certificate"
        assert "_two_coloring" not in vars(og.graph)

    def test_certified_energy_builds_no_forest(self, monkeypatch):
        def refuse(g):
            raise AssertionError("built a breadth-first forest")

        member = generate_family(FamilySpec("k44", 2)).orientation
        og = OrientedGraph(build_graph(member.n, member.graph.edges), member.direction)
        monkeypatch.setattr(graph_module, "_bfs_forest", refuse)
        assert skew_energy(og).route == "certificate"
        assert "_forest" not in vars(og.graph)


class TestSpectraEqual:
    def test_elementary_c4_matches_adjacency(self):
        og = elementary_orientation(cycle(4))
        assert spectra_equal(skew_spectrum(og), adjacency_spectrum(cycle(4)), 1e-8)

    def test_length_mismatch(self):
        assert not spectra_equal(Spectrum((1.0, -1.0)), Spectrum((1.0, 0.0, -1.0)))

    def test_c6_three_clockwise_arcs_matches_adjacency(self):
        # 3 agreeing arcs out of 6 gives odd agreement count, which is the
        # uniform parity for a 6-cycle, so the spectra agree; 2 agreeing
        # arcs must not.
        def with_clockwise(k):
            arcs = [
                ((i, (i + 1) % 6) if i < k else ((i + 1) % 6, i)) for i in range(6)
            ]
            return from_arcs(6, arcs)

        adj = adjacency_spectrum(cycle(6))
        assert spectra_equal(skew_spectrum(with_clockwise(3)), adj, 1e-8)
        assert not spectra_equal(skew_spectrum(with_clockwise(2)), adj, 1e-8)

    def test_tolerance_scales_with_magnitude(self):
        a = Spectrum((100.0 + 5e-7, -100.0 - 5e-7))
        b = Spectrum((100.0, -100.0))
        assert spectra_equal(a, b, 1e-8)
        assert not spectra_equal(a, b, 1e-10)


class TestEnergy:
    def test_p2_energy(self):
        rep = skew_energy(from_arcs(2, [(0, 1)]))
        assert rep.energy == pytest.approx(2.0)
        assert rep.degree == 1 and rep.exact_certificate

    def test_c4_odd_is_maximum(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rep = skew_energy(og)
        assert rep.energy == pytest.approx(4 * math.sqrt(2))
        assert rep.degree == 2
        assert rep.bound == pytest.approx(4 * math.sqrt(2))
        assert rep.exact_certificate

    def test_elementary_k44_not_maximum(self):
        rep = skew_energy(elementary_orientation(complete_bipartite(4, 4)))
        assert not rep.exact_certificate
        assert rep.energy == pytest.approx(8.0)
        assert rep.bound == pytest.approx(16.0)

    def test_non_regular_reports_no_bound(self):
        rep = skew_energy(from_arcs(3, [(0, 1), (1, 2)]))
        assert rep.degree is None and rep.bound is None
        assert not rep.exact_certificate

    def test_graph_energy(self):
        assert graph_energy(path(2)) == pytest.approx(2.0)
        assert graph_energy(cycle(4)) == pytest.approx(4.0)
        assert graph_energy(complete_bipartite(4, 4)) == pytest.approx(8.0)

    @given(oriented_graphs(max_n=7))
    def test_maximum_iff_all_magnitudes_sqrt_k(self, og):
        rep = skew_energy(og)
        assert rep.spectrum == skew_spectrum(og)
        k = og.graph.regular_degree()
        if rep.exact_certificate:
            assert k is not None
            assert all(
                abs(abs(v) - math.sqrt(k)) < 1e-8 for v in skew_spectrum(og).values
            )
        elif k is not None and og.n:
            vals = skew_spectrum(og).values
            assert any(abs(abs(v) - math.sqrt(k)) > 1e-8 for v in vals) or k == 0


def peak_bytes(fn, *args):
    """fn(*args) and the most memory it held at once, per tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def paley_with_source():
    # The Paley tournament on Z_7 (i -> j when j - i is a square) plus a
    # source: S S^T = 7 I.
    arcs = [(i, (i + d) % 7) for i in range(7) for d in (1, 2, 4)]
    return from_arcs(8, arcs + [(7, i) for i in range(7)])


def column_terms(og):
    # The gram terms one column at a time from the neighbour lists and the
    # dense S, sorted.
    g, s = og.graph, skew_adjacency(og)
    return sorted(
        (i, j, g.edge_index(i, t), g.edge_index(j, t), int(s[i, t] * s[j, t]))
        for t in range(g.n)
        for i, j in combinations(g.neighbors(t), 2)
    )


class TestGramTerms:
    @given(regular_orientations())
    def test_neighbour_table_rows_match_the_graph(self, og):
        g, s = og.graph, skew_adjacency(og)
        k = g.regular_degree()
        table = _neighbour_table(og, k)
        assert all(col.shape == (og.n, k) and col.dtype == np.int64 for col in table)
        nbr, edge, value = (col.tolist() for col in table)
        for v in range(og.n):
            assert nbr[v] == list(g.neighbors(v))
            assert edge[v] == [g.edge_index(v, t) for t in g.neighbors(v)]
            assert value[v] == [s[v, t] for t in g.neighbors(v)]

    @given(regular_orientations())
    def test_search_summands_are_the_column_terms(self, og):
        g = og.graph
        summands = _summands(g, g.regular_degree())
        assert all(col.dtype == np.int64 for col in summands)
        key, *rest = (col.tolist() for col in summands)
        mine = sorted((*divmod(key_, g.n), *r) for key_, *r in zip(key, *rest))
        assert mine == column_terms(OrientedGraph(g, (0,) * g.m))

    def test_term_bound_splits_blocks_between_rows(self, monkeypatch):
        # With one row i per certificate block, the certificate gives the
        # same answers, and so does the search, which reads the same table.
        k7 = complete(7)
        paley = paley_with_source()
        certified = [
            paley,
            OrientedGraph(paley.graph, (1,) + paley.direction[1:]),
            OrientedGraph(k7, tuple((u * 3 + v) % 2 for u, v in k7.edges)),
            generate_family(FamilySpec("k44", 2)).orientation,
            elementary_orientation(hypercube(4)),
        ]
        searched = [complete_bipartite(4, 4), complete(4), cycle(4), cycle(6), hypercube(4)]

        def answers():
            return (
                [is_gram_scalar(og) for og in certified],
                [find_max_energy_orientation(g) for g in searched],
            )

        before = answers()
        assert set(before[0]) == {True, False}
        monkeypatch.setattr(spectra_module, "_CERT_TERMS", 1)
        assert answers() == before


class TestSkewGram:
    def test_reads_no_term_stream(self, monkeypatch):
        # A non-bipartite orientation off the certificate takes the dense
        # route, the one reader of skew_gram.
        def refuse(*args):
            raise AssertionError("skew_gram read the neighbour table")

        og = OrientedGraph(complete(5), (0, 1, 1, 0, 0, 1, 0, 1, 1, 0))
        s = skew_adjacency(og)
        ref = direct_skew_spectrum(og)
        monkeypatch.setattr(spectra_module, "_neighbour_table", refuse)
        assert np.array_equal(skew_gram(og), s @ s.T)
        mine = skew_spectrum(og).values
        assert all(abs(a - b) < 1e-9 for a, b in zip(mine, ref))
        _assert_exactly_antisymmetric(mine)

    def test_cap_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(graph_module, "ORDER_CAP", 3)
        assert skew_gram(from_arcs(3, [(0, 1)])).shape == (3, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated a matrix over the cap")

        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(BudgetExceededError):
            skew_gram(from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


class TestGramScalar:
    def test_explicit_k(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert is_gram_scalar(og, 2)
        assert not is_gram_scalar(og, 3)
        # Any k equal to every degree, whatever its type, and any k at all
        # on the graph with no vertices.
        c4, p2 = seed_orientation("c4"), seed_orientation("p2")
        assert is_gram_scalar(c4, 2.0) and is_gram_scalar(c4, np.int64(2))
        assert not is_gram_scalar(c4, 2.5) and not is_gram_scalar(c4, True)
        assert is_gram_scalar(p2, True)
        assert is_gram_scalar(from_arcs(0, []), -1)
        assert is_gram_scalar(from_arcs(3, []), 0)
        assert not is_gram_scalar(from_arcs(3, []), 1)

    def test_requires_regular_when_k_omitted(self):
        with pytest.raises(NotRegularError):
            is_gram_scalar(from_arcs(3, [(0, 1), (1, 2)]))

    def test_all_c4_orientations_split(self):
        hits = sum(is_gram_scalar(og, 2) for og in all_orientations(cycle(4)))
        # 8 of the 16 orientations of a 4-cycle sit on the energy bound
        assert hits == 8

    @given(gram_cases())
    def test_sparse_test_matches_dense_gram(self, case):
        og, k = case
        dense = np.array_equal(skew_gram(og), k * np.eye(og.n, dtype=np.int64))
        assert is_gram_scalar(og, k) is dense

    @given(gram_cases())
    def test_sparse_test_matches_skew_product(self, case):
        og, k = case
        s = skew_adjacency(og)
        scalar = np.array_equal(s @ s.T, k * np.eye(og.n, dtype=np.int64))
        assert is_gram_scalar(og, k) is scalar

    @given(gram_cases())
    def test_gram_matches_skew_product(self, case):
        og, _ = case
        s = skew_adjacency(og)
        assert np.array_equal(skew_gram(og), s @ s.T)

    def test_paley_tournament_certified_across_row_blocks(self):
        # The Paley tournament plus its source is K_8: 8 rows of 7^2 terms.
        og = paley_with_source()
        assert is_gram_scalar(og, 7)
        assert np.array_equal(skew_gram(og), 7 * np.eye(8, dtype=np.int64))
        flipped = OrientedGraph(og.graph, (1,) + og.direction[1:])
        assert not is_gram_scalar(flipped, 7)

    def test_dense_graph_memory_stays_quadratic(self):
        # K_200 has sum C(deg, 2) ~ n^3 / 2 = 3.9e6 gram terms, each term
        # array ~100 times 8 n^2 bytes; both routes hold O(n^2) at once.
        n = 200
        k_n = complete(n)
        og = OrientedGraph(k_n, tuple((u * 7 + v) % 2 for u, v in k_n.edges))
        minus_edge = OrientedGraph(build_graph(n, k_n.edges[1:]), og.direction[1:])
        s = skew_adjacency(minus_edge)
        gram, gram_peak = peak_bytes(skew_gram, minus_edge)
        scalar, scalar_peak = peak_bytes(is_gram_scalar, og, n - 1)
        assert np.array_equal(gram, s @ s.T)
        assert not scalar
        assert gram_peak < 32 * 8 * n * n
        assert scalar_peak < 32 * 8 * n * n

    def test_certified_energy_needs_no_eigensolve(self, monkeypatch):
        og = generate_family(FamilySpec("k44", 3)).orientation

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve on a certified orientation")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rep = skew_energy(og)
        assert rep.exact_certificate
        assert set(rep.spectrum.values) == {math.sqrt(12), -math.sqrt(12)}
        assert rep.energy == pytest.approx(512 * math.sqrt(12), rel=1e-12)

    @pytest.mark.parametrize("base", BASE_NAMES)
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_certified_spectrum_is_bit_identical_to_dense(self, base, r):
        og = generate_family(FamilySpec(base, r)).orientation
        rep = skew_energy(og)
        dense = skew_spectrum(og)
        assert rep.exact_certificate
        assert rep.spectrum == dense
        assert rep.energy == spectrum_energy(dense)

    def test_spectrum_energy_helper(self):
        assert spectrum_energy(Spectrum((2.0, 0.0, -2.0))) == 4.0
