import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import skewspec.graph as graph_module
from skewspec import (
    VERTEX_CAP,
    Bipartition,
    BudgetExceededError,
    DuplicateEdgeError,
    Graph,
    NotBipartiteError,
    OrientedGraph,
    SelfLoopError,
    VertexOutOfRangeError,
    X,
    Y,
    adjacency_matrix,
    bipartition,
    build_graph,
    complete,
    complete_bipartite,
    cycle,
    elementary_orientation,
    from_arcs,
    hypercube,
    path,
    skew_adjacency,
)
from skewspec.io import parse_graph
from cli_corpus import DATA_DIR
from oracles import reference_arcs, reference_edges, reference_parity_coloring
from strategies import EDGE_ROUTES, graphs, oriented_graphs


@st.composite
def mutated_pairs(draw):
    """``(n, pairs)``: the arcs of a small orientation, shuffled, then up
    to four edits that may break them: self-loops, range errors (values
    beyond int64 too), duplicates, non-pairs and non-integers."""
    og = draw(oriented_graphs(max_n=6))
    n = og.n
    pairs = list(draw(st.permutations(og.arcs())))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["loop", "range", "huge", "duplicate", "shape", "word"]))
        at = draw(st.integers(0, len(pairs)))
        u = draw(st.integers(0, max(n - 1, 0)))
        if edit == "loop":
            pairs.insert(at, (u, u))
        elif edit == "range":
            bad = draw(st.sampled_from([n, n + 2, -1]))
            pairs.insert(at, (u, bad) if draw(st.booleans()) else (bad, u))
        elif edit == "huge":
            big = draw(st.sampled_from([2**63, -(2**63) - 1, 10**30]))
            pairs.insert(at, (big, big) if draw(st.booleans()) else (u, big))
        elif edit == "duplicate" and at < len(pairs):
            copy = pairs[at][::-1] if draw(st.booleans()) else pairs[at]
            pairs.insert(draw(st.integers(at + 1, len(pairs))), copy)
        elif edit == "shape":
            pairs.insert(at, draw(st.sampled_from([(u,), (u, u, u), ()])))
        elif edit == "word":
            pairs.insert(at, (u, draw(st.sampled_from(["x", "1.5", None]))))
    return n, pairs


def outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return (type(exc), str(exc))


class TestBuildGraph:
    def test_cycle_construction(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4 and g.m == 4
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_p2(self):
        assert build_graph(2, [(0, 1)]).edges == ((0, 1),)

    def test_edges_canonicalized(self):
        g = build_graph(5, [(4, 2), (1, 0)])
        assert g.edges == ((0, 1), (2, 4))

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(4, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdgeError):
            build_graph(4, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(3, [(0, 3)])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Graph(-1, ())

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError):
            cycle(2)

    @pytest.mark.parametrize(
        "edges, exc, message",
        [
            ([(0, 1, 2)], ValueError, "edge (0, 1, 2) is not a pair"),
            ([(0,)], ValueError, "edge (0,) is not a pair"),
            ([(1, 1)], SelfLoopError, "self-loop at vertex 1"),
            ([(5, 0)], VertexOutOfRangeError, "edge (0, 5) outside 0..2"),
            ([(-1, 2)], VertexOutOfRangeError, "edge (-1, 2) outside 0..2"),
            ([(0, 1), (1, 0)], DuplicateEdgeError, "edge (0, 1) listed twice"),
            # Checked in order: pair, then self-loop, range, duplicate.
            ([(1, 1, 1)], ValueError, "edge (1, 1, 1) is not a pair"),
            ([(5, 5)], SelfLoopError, "self-loop at vertex 5"),
            ([(0, 5), (0, 5)], VertexOutOfRangeError, "edge (0, 5) outside 0..2"),
        ],
    )
    def test_rejection_messages(self, edges, exc, message):
        with pytest.raises(exc) as info:
            build_graph(3, edges)
        assert type(info.value) is exc
        assert str(info.value) == message

    @given(mutated_pairs())
    def test_build_graph_matches_reference(self, case):
        n, pairs = case
        expected = outcome(lambda: reference_edges(n, tuple(tuple(e) for e in pairs)))
        for route in EDGE_ROUTES:
            with route():
                assert outcome(lambda: build_graph(n, pairs).edges) == expected

    @given(mutated_pairs())
    def test_from_arcs_matches_reference(self, case):
        n, pairs = case
        expected = outcome(reference_arcs, n, pairs)
        for route in EDGE_ROUTES:
            with route():
                og = outcome(from_arcs, n, pairs)
                got = og if isinstance(og, tuple) else (og.graph.edges, og.direction)
                assert got == expected

    @pytest.mark.parametrize("route", EDGE_ROUTES)
    def test_from_arcs_reads_its_arcs_once(self, monkeypatch, route):
        calls = []
        read = graph_module._read_pairs

        def counted(items):
            calls.append(len(items))
            return read(items)

        monkeypatch.setattr(graph_module, "_read_pairs", counted)
        with route():
            og = from_arcs(5, [(4, 2), (0, 1), (3, 1)])
        assert og.direction == (0, 1, 1)
        assert calls == [3]

    def test_short_happy_path_skips_the_fault_rule(self, monkeypatch):
        # Below _SHORT pairs a good list is read and sorted in Python; the
        # numpy fault rule runs only for a bad one.
        def fail(*args):
            raise AssertionError("fault rule ran on a good list")

        monkeypatch.setattr(graph_module, "_first_fault", fail)
        monkeypatch.setattr(graph_module, "_int64_pairs", fail)
        og = parse_graph((DATA_DIR / "q3_elementary.og").read_text())
        assert og.graph == hypercube(3)
        assert build_graph(8, hypercube(3).edges[::-1]).m == 12
        with pytest.raises(AssertionError, match="fault rule"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_vertex_cap(self):
        assert build_graph(VERTEX_CAP, [(0, VERTEX_CAP - 1)]).n == VERTEX_CAP
        for make in (build_graph, from_arcs):
            with pytest.raises(BudgetExceededError) as info:
                make(10**20, [(0, 1)])
            assert str(info.value) == f"vertex count {10**20} is over the cap of {VERTEX_CAP}"

    @pytest.mark.parametrize("route", EDGE_ROUTES)
    def test_edge_array_matches_edge_tuple(self, route):
        with route():
            g = build_graph(5, [(4, 2), (1, 0), (3, 1)])
            og = from_arcs(5, [(4, 2), (0, 1), (3, 1)])
            empty = build_graph(3, [])
        assert g._ends.tolist() == [list(e) for e in g.edges]
        assert g._ends.dtype == np.int64 and not g._ends.flags.writeable
        assert og._bits.tolist() == list(og.direction) == [0, 1, 1]
        assert empty._ends.shape == (0, 2)
        assert g.degrees() == (1, 2, 1, 1, 1) and g.regular_degree() is None

    def test_degrees_and_lookup(self):
        g = path(4)
        assert g.degrees() == (1, 2, 2, 1)
        assert g.has_edge(2, 1) and not g.has_edge(0, 2)
        assert g.edge_index(2, 1) == g.edge_index(1, 2)

    @given(graphs())
    def test_lookups_agree_with_edge_list(self, g):
        for v in range(g.n):
            nbrs = sorted(w for e in g.edges if v in e for w in e if w != v)
            assert tuple(g.neighbors(v)) == tuple(nbrs)
            assert g.degrees()[v] == len(nbrs)
        for i, (u, v) in enumerate(g.edges):
            assert g.edge_index(u, v) == g.edge_index(v, u) == i
            assert g.has_edge(u, v) and g.has_edge(v, u)
        for u in range(-1, g.n + 1):
            for v in range(-1, g.n + 1):
                expected = (min(u, v), max(u, v)) in g.edges
                assert g.has_edge(u, v) == expected

    def test_out_of_range_vertex_lookup(self):
        g = cycle(4)
        with pytest.raises(KeyError):
            g.neighbors(-1)
        with pytest.raises(KeyError):
            g.edge_index(-1, 0)
        assert not g.has_edge(-1, 3) and not g.has_edge(0, 4)

    def test_regular_degree(self):
        assert cycle(5).regular_degree() == 2
        assert path(3).regular_degree() is None
        assert build_graph(3, []).regular_degree() == 0


class TestMatrices:
    def test_p2_adjacency(self):
        assert adjacency_matrix(path(2)).tolist() == [[0, 1], [1, 0]]

    def test_c4_adjacency_circulant(self):
        a = adjacency_matrix(cycle(4))
        assert a[0].tolist() == [0, 1, 0, 1]
        assert np.array_equal(a, a.T)

    def test_edgeless_zero(self):
        assert not adjacency_matrix(build_graph(3, [])).any()

    def test_p2_skew(self):
        og = from_arcs(2, [(0, 1)])
        assert skew_adjacency(og).tolist() == [[0, 1], [-1, 0]]

    def test_c4_odd_orientation_gram(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        s = skew_adjacency(og)
        assert s[0, 1] == s[1, 2] == s[2, 3] == s[0, 3] == 1
        assert np.array_equal(s @ s.T, 2 * np.eye(4, dtype=np.int64))

    def test_reversal_negates(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert np.array_equal(skew_adjacency(og.reverse()), -skew_adjacency(og))

    def test_dense_cap_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(graph_module, "ORDER_CAP", 3)
        assert adjacency_matrix(path(3)).shape == (3, 3)
        assert skew_adjacency(from_arcs(3, [(0, 1)])).shape == (3, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated a matrix over the cap")

        monkeypatch.setattr(np, "zeros", refuse)
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(BudgetExceededError):
            adjacency_matrix(og.graph)
        with pytest.raises(BudgetExceededError):
            skew_adjacency(og)

    @given(oriented_graphs())
    def test_skew_is_exactly_antisymmetric(self, og):
        s = skew_adjacency(og)
        assert np.array_equal(s, -s.T)
        assert not s.diagonal().any()

    @given(oriented_graphs())
    def test_abs_skew_is_adjacency(self, og):
        assert np.array_equal(np.abs(skew_adjacency(og)), adjacency_matrix(og.graph))


class TestOrientedGraph:
    def test_direction_length_checked(self):
        with pytest.raises(ValueError):
            OrientedGraph(path(3), (0,))

    def test_bits_checked(self):
        with pytest.raises(ValueError):
            OrientedGraph(path(2), (2,))

    def test_from_arcs_round_trip(self):
        og = from_arcs(3, [(1, 0), (1, 2)])
        assert og.arcs() == ((1, 0), (1, 2))
        assert og.direction == (1, 0)


class TestBipartition:
    def test_c4(self):
        assert bipartition(cycle(4)).side == (X, Y, X, Y)

    def test_labels_are_x_or_y(self):
        with pytest.raises(ValueError):
            Bipartition((0, 2))

    def test_k44_parts(self):
        b = bipartition(complete_bipartite(4, 4))
        assert b.x_vertices == (0, 1, 2, 3)
        assert b.y_vertices == (4, 5, 6, 7)

    def test_triangle_witness(self):
        with pytest.raises(NotBipartiteError) as exc:
            bipartition(cycle(3))
        cyc = exc.value.odd_cycle
        assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc)

    def test_odd_cycle_witness_is_a_cycle(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        with pytest.raises(NotBipartiteError) as exc:
            bipartition(g)
        cyc = exc.value.odd_cycle
        assert len(cyc) % 2 == 1
        for i, u in enumerate(cyc):
            assert g.has_edge(u, cyc[(i + 1) % len(cyc)])

    def test_deterministic(self):
        g = hypercube(3)
        assert bipartition(g) == bipartition(g)

    def test_component_minimum_is_x(self):
        g = build_graph(5, [(3, 4), (1, 2)])
        b = bipartition(g)
        assert b.side[1] == X and b.side[3] == X and b.side[0] == X

    @given(graphs())
    def test_valid_when_returned(self, g):
        try:
            b = bipartition(g)
        except NotBipartiteError:
            return
        assert len(b.side) == g.n
        assert all(b.side[u] != b.side[v] for u, v in g.edges)


@st.composite
def parity_cases(draw):
    """A graph, often disconnected or not bipartite, and one parity per
    edge: random, all ones, or a cut, so that every edge agrees."""
    g = draw(graphs(min_n=0, max_n=10))
    kind = draw(st.sampled_from(["random", "ones", "cut"]))
    if kind == "random":
        parity = draw(st.lists(st.integers(0, 1), min_size=g.m, max_size=g.m))
    elif kind == "ones":
        parity = [1] * g.m
    else:
        side = draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
        parity = [side[u] ^ side[v] for u, v in g.edges]
    return g, tuple(parity)


class TestParityColoring:
    @given(parity_cases())
    def test_matches_the_single_pass_search(self, case):
        # The colouring, the (parent, depth) forest, or the first violating
        # cycle, as one search that tests each edge as it scans it finds them.
        g, parity = case
        assert graph_module.parity_coloring(g, parity) == reference_parity_coloring(
            g, parity
        )

    def test_one_forest_for_every_parity(self, monkeypatch):
        built = []
        original = graph_module._bfs_forest
        monkeypatch.setattr(
            graph_module, "_bfs_forest", lambda g: built.append(g) or original(g)
        )
        g = build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (3, 6)])
        for parity in ((1,) * g.m, (0,) * g.m, (1, 0, 0, 1, 1, 0, 0)):
            assert graph_module.parity_coloring(g, parity) == reference_parity_coloring(
                g, parity
            )
        assert built == [g]


class TestElementaryOrientation:
    def test_p2(self):
        og = elementary_orientation(path(2))
        assert og.arcs() == ((0, 1),)

    def test_c4_arcs(self):
        og = elementary_orientation(cycle(4))
        assert set(og.arcs()) == {(0, 1), (2, 1), (2, 3), (0, 3)}

    def test_k44_all_x_to_y(self):
        og = elementary_orientation(complete_bipartite(4, 4))
        assert all(t < 4 <= h for t, h in og.arcs())

    def test_block_form_x_first(self):
        g = complete_bipartite(2, 3)
        s = skew_adjacency(elementary_orientation(g))
        # vertices are already X-first here: arcs only cross the blocks
        assert not s[:2, :2].any() and not s[2:, 2:].any()
        assert (s[:2, 2:] == 1).all() and (s[2:, :2] == -1).all()

    def test_rejects_odd_cycle(self):
        with pytest.raises(NotBipartiteError):
            elementary_orientation(complete(3))
