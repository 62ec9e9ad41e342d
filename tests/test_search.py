import numpy as np
import pytest

from skewspec import (
    NotRegularError,
    build_graph,
    complete,
    complete_bipartite,
    cycle,
    find_max_energy_orientation,
    hypercube,
    is_gram_scalar,
    path,
    seed_orientation,
    skew_gram,
)


class TestSearchFinds:
    def test_k44(self):
        res = find_max_energy_orientation(complete_bipartite(4, 4))
        assert res.found and res.exhausted is False
        assert res.states <= 2**15
        assert np.array_equal(
            skew_gram(res.orientation), 4 * np.eye(8, dtype=np.int64)
        )

    def test_k4(self):
        res = find_max_energy_orientation(complete(4))
        assert res.found
        assert np.array_equal(
            skew_gram(res.orientation), 3 * np.eye(4, dtype=np.int64)
        )

    def test_c4_is_oddly_oriented(self):
        res = find_max_energy_orientation(cycle(4))
        assert res.found
        assert is_gram_scalar(res.orientation, 2)

    def test_p2(self):
        res = find_max_energy_orientation(path(2))
        assert res.found and res.orientation.direction == (0,)

    def test_first_direction_bit_pinned(self):
        for g in (complete_bipartite(4, 4), complete(4), cycle(4)):
            res = find_max_energy_orientation(g)
            assert res.orientation.direction[0] == 0

    def test_reproduces_frozen_seeds(self):
        # the stored family seeds are exactly what the search derives
        for base, g in [
            ("k44", complete_bipartite(4, 4)),
            ("k4", complete(4)),
            ("c4", cycle(4)),
            ("p2", path(2)),
        ]:
            res = find_max_energy_orientation(g)
            assert res.orientation == seed_orientation(base)

    def test_deterministic_across_runs(self):
        a = find_max_energy_orientation(complete_bipartite(4, 4))
        b = find_max_energy_orientation(complete_bipartite(4, 4))
        assert a == b

    def test_edgeless(self):
        res = find_max_energy_orientation(build_graph(3, []))
        assert res.found and res.orientation.direction == ()


@pytest.mark.parametrize(
    "g, states, exhausted",
    [
        (complete_bipartite(4, 4), 22, False),
        (complete_bipartite(6, 6), 53119, True),
        (complete_bipartite(8, 8), 140, False),
        (complete_bipartite(12, 12), 2982, False),
        (complete_bipartite(16, 16), 10840, False),
        (hypercube(7), 640, False),
        (cycle(6), 3, True),
        (complete(4), 7, False),
        (cycle(4), 4, False),
    ],
    ids=["K4,4", "K6,6", "K8,8", "K12,12", "K16,16", "Q7", "C6", "K4", "C4"],
)
def test_state_counts_are_pinned(g, states, exhausted):
    res = find_max_energy_orientation(g)
    assert (res.states, res.exhausted, res.found) == (states, exhausted, not exhausted)


class TestSearchExhausts:
    def test_c6_and_c8_not_found(self):
        for n in (6, 8):
            res = find_max_energy_orientation(cycle(n))
            assert not res.found
            assert res.exhausted

    def test_nonregular_rejected(self):
        with pytest.raises(NotRegularError):
            find_max_energy_orientation(path(3))

    def test_budget_stops_early(self):
        res = find_max_energy_orientation(complete_bipartite(4, 4), budget=5)
        assert not res.found
        assert not res.exhausted
        assert res.states == 5

    def test_q8_needs_no_recursion(self):
        # 1024 edges: one search level per edge, deeper than the
        # interpreter's default recursion limit.
        res = find_max_energy_orientation(hypercube(8), budget=10_000)
        assert res.states <= 10_000
        if res.found:
            assert is_gram_scalar(res.orientation, 8)
