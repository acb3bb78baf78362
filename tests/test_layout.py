"""The exact searches return the lexicographically first optimum, which the
brute-force oracles pin; a small node budget bounds their wall time."""

import time

from hypothesis import given, settings, strategies as st

from ccwkit import Graph, SearchResult, bandwidth_exact, ccw_exact, ccw_upper_greedy, grid

from oracles import all_clique_partitions, brute_ccw, brute_first_min_layout, unpruned_ccw_exact


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return Graph.from_edges(n, edges)


def quotient(g, partition):
    """Blocks i < j adjacent iff some edge of g joins them."""
    t = len(partition)
    return Graph.from_edges(t, [
        (i, j) for i in range(t) for j in range(i + 1, t)
        if any(g.has_edge(u, v) for u in partition[i] for v in partition[j])
    ])


def width_of(g, order):
    pos = {v: i for i, v in enumerate(order)}
    return max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_bandwidth_ordering_is_first_minimum(g):
    res, order = bandwidth_exact(g)
    assert res.exact
    assert order == brute_first_min_layout(g)
    assert res.value == width_of(g, order)


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_ccw_cover_is_first_optimal_partition(g):
    res, cover = ccw_exact(g)
    best = brute_ccw(g)
    assert res == SearchResult(best, True)
    greedy_width, greedy_cover = ccw_upper_greedy(g)
    if greedy_width == best:
        expected = greedy_cover.to_json()
    else:
        for partition in all_clique_partitions(g):
            q = quotient(g, partition)
            layout = brute_first_min_layout(q)
            if width_of(q, layout) == best:
                expected = [sorted(partition[i]) for i in layout]
                break
    assert cover.to_json() == expected


@given(graphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_pruned_search_matches_unpruned(g):
    res, cover = ccw_exact(g)
    want, want_cover = unpruned_ccw_exact(g)
    assert res == want and res.exact
    assert cover.to_json() == want_cover.to_json()


@given(graphs(max_n=8), st.integers(min_value=0, max_value=60))
@settings(max_examples=80, deadline=None)
def test_pruning_only_helps_a_budget(g, budget):
    """Pruned children cost no node, so the same budget gets at least as far."""
    res, _ = ccw_exact(g, budget)
    want, _ = unpruned_ccw_exact(g, budget)
    assert res.value <= want.value
    assert res.exact or not want.exact


def test_small_budget_bounds_wall_time_on_grid5():
    start = time.perf_counter()
    res, _ = ccw_exact(grid(5), budget=1000)
    assert time.perf_counter() - start < 2.0
    assert not res.exact
    assert ccw_exact(grid(4))[0] == SearchResult(2, True)


def test_bandwidth_budget_spent_before_any_layout():
    res, order = bandwidth_exact(grid(3), budget=5)
    assert res == SearchResult(8, False) and order == list(range(9))
    for n in (0, 1, 4):
        edgeless = Graph.from_edges(n, [])
        assert bandwidth_exact(edgeless, budget=0) == (SearchResult(0, True), list(range(n)))
