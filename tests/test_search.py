import itertools
import random

import numpy as np
import pytest

import skewspec.search as search_module

from skewspec import (
    BudgetExceededError,
    NotRegularError,
    OrientedGraph,
    build_graph,
    complete,
    complete_bipartite,
    cycle,
    find_max_energy_orientation,
    hypercube,
    is_gram_scalar,
    path,
    seed_orientation,
    skew_adjacency,
    skew_gram,
)
from skewspec.search import _mod4_pivots


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
        # Found like any other success: exhausted is False.
        for n in (0, 1, 3):
            res = find_max_energy_orientation(build_graph(n, []))
            assert res.found and res.orientation.direction == ()
            assert (res.states, res.exhausted) == (0, False)


@pytest.mark.parametrize(
    "g, budget, states, exhausted",
    [
        (complete_bipartite(4, 4), None, 18, False),
        (complete_bipartite(6, 6), None, 0, True),
        (complete_bipartite(8, 8), None, 133, False),
        (complete_bipartite(12, 12), None, 2970, False),
        (complete_bipartite(16, 16), None, 10824, False),
        (hypercube(7), None, 448, False),
        (cycle(6), None, 0, True),
        (complete(4), None, 6, False),
        (cycle(4), None, 4, False),
        (complete_bipartite(10, 10), 10**6, 0, True),
        (complete(10), 10**6, 0, True),
    ],
    ids=[
        "K4,4", "K6,6", "K8,8", "K12,12", "K16,16", "Q7", "C6", "K4", "C4",
        "K10,10", "K10",
    ],
)
def test_state_counts_are_pinned(g, budget, states, exhausted):
    res = find_max_energy_orientation(g, budget=budget)
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

    def test_term_cap(self, monkeypatch):
        # K_300 has 300 * C(299, 2) = 13,365,300 terms, over the 2^22 cap,
        # and is refused before any term is made.  K4 has 4 * C(3, 2) = 12.
        with pytest.raises(BudgetExceededError, match="13365300 .* 4194304"):
            find_max_energy_orientation(complete(300), budget=1000)
        monkeypatch.setattr(search_module, "_BLOCK_TERMS", 12)
        assert find_max_energy_orientation(complete(4)).found
        monkeypatch.setattr(search_module, "_BLOCK_TERMS", 11)
        with pytest.raises(BudgetExceededError, match="12 .* 11"):
            find_max_energy_orientation(complete(4))

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


def _random_regular(n, k, rng):
    # A uniformly paired configuration, redrawn until it is simple.
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[a : a + 2])) for a in range(0, len(stubs), 2)}
        if len(edges) * 2 == len(stubs) and all(u != v for u, v in edges):
            return build_graph(n, edges)


def _union(*gs):
    edges, shift = [], 0
    for g in gs:
        edges += [(u + shift, v + shift) for u, v in g.edges]
        shift += g.n
    return build_graph(shift, edges)


def _brute_force_first(g):
    # Every orientation with bit 0 = 0, in lexicographic order, tested
    # with S S^T = k I on the per-arc skew adjacency matrix.
    k = g.regular_degree()
    target = k * np.eye(g.n, dtype=np.int64)
    for rest in itertools.product((0, 1), repeat=g.m - 1):
        og = OrientedGraph(g, (0,) + rest)
        s = skew_adjacency(og)
        if np.array_equal(s @ s.T, target):
            return og
    return None


_RNG = random.Random(0x5EED)
_SMALL_REGULAR = [
    *((f"C{n}", cycle(n)) for n in range(3, 15)),
    ("K4", complete(4)),
    ("K3,3", complete_bipartite(3, 3)),
    ("K4,4", complete_bipartite(4, 4)),
    ("Q3", hypercube(3)),
    ("2C4", _union(cycle(4), cycle(4))),
    ("3C4", _union(cycle(4), cycle(4), cycle(4))),
    ("C4+C8", _union(cycle(4), cycle(8))),
    ("2K4", _union(complete(4), complete(4))),
    ("K4+Q3", _union(complete(4), hypercube(3))),
    *(
        (f"2-regular-{t}", _random_regular(_RNG.randint(6, 14), 2, _RNG))
        for t in range(6)
    ),
    *(
        (f"3-regular-{t}", _random_regular(_RNG.choice((4, 6, 8)), 3, _RNG))
        for t in range(6)
    ),
]


@pytest.mark.parametrize(
    "g", [g for _, g in _SMALL_REGULAR], ids=[name for name, _ in _SMALL_REGULAR]
)
def test_search_matches_brute_force(g):
    # An independent route past the mod-4 presolve and the pruning: the
    # search returns the first success of the full enumeration, and proves
    # none exactly when there is none.
    expected = _brute_force_first(g)
    res = find_max_energy_orientation(g)
    assert res.orientation == expected
    assert res.exhausted is (expected is None)


@pytest.mark.parametrize("d", range(2, 9))
def test_hypercube_mod4_solutions_are_one_switching_class(d):
    # Switching at a vertex set adds a cut vector to the direction bits and
    # keeps S S^T, so the cut space (dimension n - 1 on a connected graph)
    # lies in the mod-4 solution space.  Equal dimensions mean every
    # orientation of Q_d with S S^T = d I is switching-equivalent to the
    # one the search returns, which it reaches without backtracking.
    # The rows are built here from the neighbour lists, with the
    # all-zero orientation's signs: S[i, t] S[j, t] is -1 just when
    # i < t < j.
    g = hypercube(d)
    rows, total = {}, {}
    for t in range(g.n):
        for i, j in itertools.combinations(g.neighbors(t), 2):
            bits = 1 << g.edge_index(i, t) ^ 1 << g.edge_index(j, t)
            rows[i, j] = rows.get((i, j), 0) ^ bits
            total[i, j] = total.get((i, j), 0) + (-1 if i < t < j else 1)
    pivots = _mod4_pivots(list(rows.values()), [total[p] // 2 % 2 for p in rows])
    assert g.m - len(pivots) == g.n - 1
    res = find_max_energy_orientation(g, budget=g.m)
    assert res.found and res.states == g.m


@pytest.mark.parametrize("a", range(1, 16))
def test_presolve_proves_the_order_conditions(a):
    # K_{a,a} needs a Hadamard matrix of order a and K_a a skew-conference
    # matrix; for a > 2 both need 4 | a.  The presolve proves every other
    # case empty in 0 states and leaves the rest to the search.
    for g in (complete_bipartite(a, a), complete(a)):
        res = find_max_energy_orientation(g, budget=1)
        proved = (res.found, res.states, res.exhausted) == (False, 0, True)
        assert proved is (a > 2 and a % 4 != 0)


class TestWithoutPresolve:
    """The branching search alone, with the mod-4 presolve switched off.

    The presolve proves every infeasible graph the other tests try, so
    only here does the search exhaust by branching.
    """

    @pytest.fixture(autouse=True)
    def no_presolve(self, monkeypatch):
        monkeypatch.setattr(search_module, "_mod4_pivots", lambda rows, rhs: {})

    def test_k66_exhausts_by_branching(self):
        res = find_max_energy_orientation(complete_bipartite(6, 6))
        assert (res.found, res.states, res.exhausted) == (False, 53119, True)

    @pytest.mark.parametrize(
        "g, states, presolved",
        [
            (complete_bipartite(4, 4), 22, 18),
            (complete_bipartite(8, 8), 140, 133),
            (hypercube(3), 16, 12),
        ],
        ids=["K4,4", "K8,8", "Q3"],
    )
    def test_presolve_keeps_the_first_solution(self, monkeypatch, g, states, presolved):
        res = find_max_energy_orientation(g)
        assert (res.found, res.states, res.exhausted) == (True, states, False)
        monkeypatch.undo()
        with_presolve = find_max_energy_orientation(g)
        assert with_presolve.states == presolved
        assert with_presolve.orientation == res.orientation
