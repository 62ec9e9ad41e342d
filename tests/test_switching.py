import sys
from itertools import product

import pytest
from hypothesis import given

from skewspec import (
    adjacency_spectrum,
    CapExceededError,
    CycleWalk,
    FamilySpec,
    GraphMismatchError,
    NotACycleError,
    NotBipartiteError,
    NotEquivalent,
    OddCycleError,
    OrientedGraph,
    SwitchWitness,
    VertexOutOfRangeError,
    all_chordless_uniform,
    bipartition,
    build_graph,
    chordless_cycles,
    complete,
    complete_bipartite,
    cycle,
    elementary_orientation,
    equivalent_to_elementary,
    from_arcs,
    generate_family,
    hypercube,
    is_uniformly_oriented,
    matches_adjacency_spectrum,
    path,
    skew_spectrum,
    spectra_equal,
    switch,
    switching_equivalent,
)
from oracles import all_orientations, all_simple_cycles, brute_induced_cycles
from strategies import bipartite_oriented_graphs, oriented_graphs, vertex_subsets


class TestSwitch:
    def test_empty_and_full_sets_fix_everything(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert switch(og, []) == og
        assert switch(og, range(4)) == og

    def test_involution(self):
        og = elementary_orientation(cycle(6))
        assert switch(switch(og, {1, 4}), {1, 4}) == og

    def test_p2_single_vertex(self):
        og = from_arcs(2, [(0, 1)])
        assert switch(og, {1}).arcs() == ((1, 0),)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            switch(from_arcs(2, [(0, 1)]), {2})

    @given(oriented_graphs())
    def test_complement_gives_same_switch(self, og):
        w = set(range(0, og.n, 2))
        assert switch(og, w) == switch(og, set(range(og.n)) - w)


class TestSwitchingEquivalent:
    def test_constructed_witness(self):
        a = elementary_orientation(cycle(4))
        b = switch(a, {0})
        res = switching_equivalent(a, b)
        assert isinstance(res, SwitchWitness)
        assert switch(a, res.w) == b

    def test_odd_square_is_not_in_the_elementary_class(self):
        odd = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        elem = elementary_orientation(cycle(4))
        res = switching_equivalent(odd, elem)
        assert isinstance(res, NotEquivalent)
        assert sorted(res.violating_cycle.vertices) == [0, 1, 2, 3]
        # a cut crosses any cycle an even number of times, so an odd
        # disagreement count on the square is unfixable by switching
        diff = sum(a != b for a, b in zip(odd.direction, elem.direction))
        assert diff % 2 == 1

    def test_uniform_vs_nonuniform_c4(self):
        all_clockwise = from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        one_clockwise = from_arcs(4, [(0, 1), (2, 1), (3, 2), (0, 3)])
        res = switching_equivalent(all_clockwise, one_clockwise)
        assert isinstance(res, NotEquivalent)

    def test_mismatched_graphs_rejected(self):
        with pytest.raises(GraphMismatchError):
            switching_equivalent(
                elementary_orientation(path(3)), from_arcs(2, [(0, 1)])
            )

    def test_refutation_cycle_has_odd_disagreement(self):
        a = from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        b = from_arcs(4, [(1, 0), (1, 2), (2, 3), (3, 0)])
        res = switching_equivalent(a, b)
        assert isinstance(res, NotEquivalent)
        cyc = res.violating_cycle
        disagreements = 0
        for u, v in cyc.edges():
            i = a.graph.edge_index(u, v)
            disagreements += a.direction[i] != b.direction[i]
        assert disagreements % 2 == 1

    def test_equivalence_relation_on_c4(self):
        ogs = list(all_orientations(cycle(4)))
        classes = {}
        for og in ogs:
            for rep in classes:
                if switching_equivalent(rep, og):
                    classes[rep].append(og)
                    break
            else:
                classes[og] = [og]
        # reflexive, and the 16 orientations fall into exactly 2 classes
        assert all(switching_equivalent(og, og) for og in ogs)
        assert sorted(len(v) for v in classes.values()) == [8, 8]
        # symmetry and transitivity spot checks across the partition
        for rep, members in classes.items():
            for og in members:
                assert switching_equivalent(og, rep)

    def test_classes_on_k23(self):
        ogs = list(all_orientations(complete_bipartite(2, 3)))
        elementary = elementary_orientation(complete_bipartite(2, 3))
        in_class = [og for og in ogs if switching_equivalent(elementary, og)]
        # switchings by the 2^5 vertex subsets collapse in pairs (W and
        # its complement act identically), giving 16 distinct members
        assert len(in_class) == 16

    def test_bridge_reversal_is_equivalent(self):
        # two triangles joined by the bridge {2, 3}: reversing just the
        # bridge arc stays in the switching class (one side is a witness)
        arcs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        og = from_arcs(6, arcs)
        g = og.graph
        flipped = OrientedGraph(g, tuple(
            b ^ (e == g.edge_index(2, 3)) for e, b in enumerate(og.direction)
        ))
        res = switching_equivalent(og, flipped)
        assert res and switch(og, res.w) == flipped
        assert res.w == (3, 4, 5)

    def test_trees_all_equivalent(self):
        g = path(5)
        ogs = list(all_orientations(g))
        base = ogs[0]
        for og in ogs:
            res = switching_equivalent(base, og)
            assert res and switch(base, res.w) == og

    @given(oriented_graphs())
    def test_witness_soundness_random(self, og):
        w = [v for v in range(og.n) if v % 3 == 0]
        b = switch(og, w)
        res = switching_equivalent(og, b)
        assert isinstance(res, SwitchWitness)
        assert switch(og, res.w) == b

    @given(oriented_graphs(max_n=7))
    def test_witness_avoids_component_minima(self, og):
        # Reversal disagrees on every edge, the all-ones parity that
        # bipartition colors with, so both must give the same answer.
        res = switching_equivalent(og, og.reverse())
        if isinstance(res, SwitchWitness):
            assert 0 not in res.w
            assert res.w == bipartition(og.graph).y_vertices
        else:
            with pytest.raises(NotBipartiteError) as exc:
                bipartition(og.graph)
            assert res.violating_cycle.vertices == exc.value.odd_cycle


class TestChordlessCycles:
    def test_c6_single_cycle(self):
        cycles = chordless_cycles(cycle(6))
        assert len(cycles) == 1 and len(cycles[0]) == 6

    def test_k44_count(self):
        assert len(chordless_cycles(complete_bipartite(4, 4))) == 36

    def test_tree_empty(self):
        assert chordless_cycles(path(5)) == []

    def test_triangles_included(self):
        assert len(chordless_cycles(complete(3))) == 1

    def test_cap_reports_partial(self):
        # The partial list is the uncapped run cut at the cap.
        g = complete_bipartite(4, 4)
        every = chordless_cycles(g)
        assert len(every) == 36
        for cap in (0, 1, 10, 35):
            with pytest.raises(CapExceededError) as exc:
                chordless_cycles(g, cap=cap)
            assert exc.value.cycles == every[:cap]
        assert chordless_cycles(g, cap=36) == every

    @given(oriented_graphs(max_n=7))
    def test_matches_brute_force(self, og):
        g = og.graph
        mine = chordless_cycles(g)
        assert {tuple(sorted(c.vertices)) for c in mine} == brute_induced_cycles(g)
        assert len(mine) == len({tuple(sorted(c.vertices)) for c in mine})

    def test_long_cycle_needs_no_recursion(self):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            cycles = chordless_cycles(cycle(400))
        finally:
            sys.setrecursionlimit(limit)
        assert [c.vertices for c in cycles] == [tuple(range(400))]

    def test_walks_are_cycles_of_the_graph(self):
        g = hypercube(3)
        for c in chordless_cycles(g):
            for u, v in c.edges():
                assert g.has_edge(u, v)


class TestUniformOrientation:
    def test_elementary_c4_walk(self):
        og = elementary_orientation(cycle(4))
        assert is_uniformly_oriented(og, CycleWalk((0, 1, 2, 3)))

    def test_three_clockwise_c4_not_uniform(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not is_uniformly_oriented(og, CycleWalk((0, 1, 2, 3)))

    def test_reversal_preserves_verdict(self):
        for og in all_orientations(cycle(6)):
            walk = CycleWalk((0, 1, 2, 3, 4, 5))
            assert is_uniformly_oriented(og, walk) == is_uniformly_oriented(
                og.reverse(), walk
            )

    def test_rotation_and_reflection_invariant(self):
        og = from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        verdicts = {
            is_uniformly_oriented(og, CycleWalk(w))
            for w in [(0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0), (2, 1, 0, 3)]
        }
        assert len(verdicts) == 1

    def test_odd_cycle_rejected(self):
        og = from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(OddCycleError):
            is_uniformly_oriented(og, CycleWalk((0, 1, 2)))

    def test_non_cycle_rejected(self):
        og = elementary_orientation(cycle(4))
        with pytest.raises(NotACycleError):
            is_uniformly_oriented(og, CycleWalk((0, 1, 2, 2)))
        with pytest.raises(NotACycleError):
            is_uniformly_oriented(og, CycleWalk((0, 1, 3, 2)))

    def test_predicate_calibrated_against_spectra(self):
        # ground truth for the parity rule: on cycles, uniformity must
        # coincide with the skew spectrum equalling i times the adjacency
        # spectrum, orientation by orientation
        for n in (4, 6):
            walk = CycleWalk(tuple(range(n)))
            for og in all_orientations(cycle(n)):
                assert is_uniformly_oriented(og, walk) == matches_adjacency_spectrum(
                    og, 1e-8
                )


class TestPredicates:
    def test_elementary_is_uniform_everywhere(self):
        for g in (cycle(4), cycle(8), complete_bipartite(2, 3), hypercube(3)):
            assert all_chordless_uniform(elementary_orientation(g))

    def test_c6_two_clockwise_fails(self):
        og = from_arcs(6, [(0, 1), (1, 2), (3, 2), (4, 3), (5, 4), (0, 5)])
        assert not all_chordless_uniform(og)
        assert not matches_adjacency_spectrum(og)
        assert isinstance(equivalent_to_elementary(og), NotEquivalent)

    def test_forest_vacuous(self):
        for og in all_orientations(path(4)):
            assert all_chordless_uniform(og)
            assert matches_adjacency_spectrum(og)
            assert equivalent_to_elementary(og)

    def test_elementary_k23(self):
        og = elementary_orientation(complete_bipartite(2, 3))
        assert matches_adjacency_spectrum(og)
        res = equivalent_to_elementary(og)
        assert isinstance(res, SwitchWitness) and res.w == ()

    def test_disjoint_union_p2_and_uniform_c4(self):
        g = build_graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
        og = from_arcs(6, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])
        walk = CycleWalk((2, 3, 4, 5))
        assert is_uniformly_oriented(og, walk)
        assert matches_adjacency_spectrum(og)

    def test_nonbipartite_rejected(self):
        og = from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotBipartiteError):
            all_chordless_uniform(og)
        with pytest.raises(NotBipartiteError):
            matches_adjacency_spectrum(og)
        with pytest.raises(NotBipartiteError):
            equivalent_to_elementary(og)

    def test_uniformity_of_chordless_cycles_switching_invariant(self):
        g = hypercube(3)
        og = elementary_orientation(g)
        cycles = chordless_cycles(g)
        for w in [{0}, {1, 2}, {0, 3, 5}, set(range(4))]:
            switched = switch(og, w)
            for c in cycles:
                assert is_uniformly_oriented(switched, c)

    def test_all_even_cycles_oracle_agrees(self):
        # spectral match iff EVERY even cycle (not only chordless ones) is
        # uniform; cross-checked exhaustively on small bipartite graphs
        for g in (cycle(4), cycle(6), complete_bipartite(2, 3), hypercube(3)):
            walks = [c for c in all_simple_cycles(g) if len(c) % 2 == 0]
            for og in all_orientations(g):
                every_cycle = all(
                    is_uniformly_oriented(og, CycleWalk(c)) for c in walks
                )
                assert every_cycle == matches_adjacency_spectrum(og, 1e-8)
                assert every_cycle == all_chordless_uniform(og)


class TestShortcutsMatchTheirLongRoutes:
    """matches_adjacency_spectrum compares magnitudes and
    equivalent_to_elementary colours the elementary parity; each must
    give what the full spectra, or the elementary orientation itself,
    give."""

    @staticmethod
    def assert_same(og):
        skew, adjacency = skew_spectrum(og), adjacency_spectrum(og.graph)
        for tol in (0.0, 1e-12, 1e-8, 1.0, -1.0, float("nan")):
            assert matches_adjacency_spectrum(og, tol) == spectra_equal(
                skew, adjacency, tol
            )
        assert equivalent_to_elementary(og) == switching_equivalent(
            og, elementary_orientation(og.graph)
        )

    @given(bipartite_oriented_graphs())
    def test_bipartite(self, og):
        self.assert_same(og)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n):
        self.assert_same(OrientedGraph(build_graph(n, []), ()))

    def test_every_q3_orientation(self):
        verdicts = set()
        for og in all_orientations(hypercube(3)):
            self.assert_same(og)
            verdicts.add(bool(equivalent_to_elementary(og)))
        assert verdicts == {True, False}


class TestStreamedVerdict:
    def test_first_non_uniform_cycle_decides(self):
        # The c4 r=2 member has 23,992 chordless cycles, and some
        # fundamental cycle of its forest is not uniform.
        og = generate_family(FamilySpec("c4", 2)).orientation
        assert not all_chordless_uniform(og)

    def test_uniform_past_the_enumeration_cap(self):
        # Q6 and the k44 r=2 member each have more than DEFAULT_CYCLE_CAP
        # chordless cycles; the verdict needs none of them.
        k44r2 = generate_family(FamilySpec("k44", 2)).orientation.graph
        for g in (hypercube(6), k44r2):
            assert all_chordless_uniform(elementary_orientation(g))

    @given(bipartite_oriented_graphs())
    def test_agrees_with_the_full_enumeration(self, og):
        assert all_chordless_uniform(og) == all(
            is_uniformly_oriented(og, c) for c in chordless_cycles(og.graph)
        )

    def test_agrees_with_the_full_enumeration_on_every_q3_orientation(self):
        g = hypercube(3)
        cycles = chordless_cycles(g)
        verdicts = set()
        for og in all_orientations(g):
            every = all(is_uniformly_oriented(og, c) for c in cycles)
            assert all_chordless_uniform(og) == every
            verdicts.add(every)
        assert verdicts == {True, False}
