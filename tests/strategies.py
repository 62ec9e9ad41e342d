"""Hypothesis strategies for small graphs and orientations."""

import contextlib
from itertools import combinations

from hypothesis import strategies as st

import skewspec.graph as graph_module
from skewspec import Graph, OrientedGraph, build_graph


@contextlib.contextmanager
def numpy_edge_route():
    """Check every edge list on the numpy route, short ones included,
    for the duration of the block."""
    saved = graph_module._SHORT
    graph_module._SHORT = 0
    try:
        yield
    finally:
        graph_module._SHORT = saved


#: The edge check's routes: the default (Python below ``_SHORT`` pairs)
#: and numpy for every list.
EDGE_ROUTES = (contextlib.nullcontext, numpy_edge_route)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, keep in zip(pairs, mask) if keep])


@st.composite
def oriented_graphs(draw, min_n: int = 1, max_n: int = 8) -> OrientedGraph:
    g = draw(graphs(min_n, max_n))
    bits = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    return OrientedGraph(g, tuple(int(b) for b in bits))


@st.composite
def vertex_subsets(draw, n: int) -> list[int]:
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [v for v, keep in enumerate(mask) if keep]


@st.composite
def bipartite_oriented_graphs(
    draw, min_n: int = 1, max_n: int = 8
) -> OrientedGraph:
    """An oriented graph with only the edges across a drawn two-colouring."""
    og = draw(oriented_graphs(min_n, max_n))
    side = draw(st.lists(st.booleans(), min_size=og.n, max_size=og.n))
    kept = [
        (e, b)
        for e, b in zip(og.graph.edges, og.direction)
        if side[e[0]] != side[e[1]]
    ]
    g = build_graph(og.n, [e for e, _ in kept])
    return OrientedGraph(g, tuple(b for _, b in kept))
