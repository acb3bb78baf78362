"""The exact searches return the lexicographically first optimum, which the
brute-force oracles pin; the frozen unpruned layout search pins the deadline
rule; frozen references pin both searches node for node, through their
results at every budget; a small node budget bounds their wall time."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from ccwkit import (
    Graph,
    SearchResult,
    apex_grid,
    bandwidth_exact,
    ccw_exact,
    ccw_upper_greedy,
    grid,
)
from ccwkit.cliquecover import _layout

from oracles import (
    all_clique_partitions,
    brute_ccw,
    brute_first_min_layout,
    reference_ccw_exact,
    reference_layout,
    unpruned_ccw_exact,
    unpruned_layout,
)


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


def adj_of(g):
    return [g.adj_mask(v) for v in range(g.n)]


@given(graphs(max_n=9), st.data())
@settings(max_examples=80, deadline=None)
def test_layout_matches_unpruned_layout(g, data):
    """The deadline rule cuts only subtrees without a narrower ordering, so
    at the full cutoff and at any other the search returns the same result."""
    cutoff = data.draw(st.integers(min_value=0, max_value=g.n + 1))
    for c in (g.n + 1, cutoff):
        assert _layout(adj_of(g), c) == unpruned_layout(adj_of(g), c)


@given(graphs(max_n=10), st.integers(min_value=0, max_value=80))
@settings(max_examples=80, deadline=None)
def test_deadline_rule_only_helps_a_budget(g, budget):
    """The budgeted search visits the unpruned node sequence with the pruned
    subtrees left out, so the same budget gets at least as far."""
    width, _, exact = _layout(adj_of(g), g.n + 1, budget)
    want, _, want_exact = unpruned_layout(adj_of(g), g.n + 1, budget)
    assert width <= want
    assert exact or not want_exact


@given(graphs(max_n=10), st.integers(min_value=0, max_value=300))
@settings(deadline=None)  # the example count comes from the active profile
def test_layout_matches_the_reference(g, budget):
    """Node for node: at every cutoff, with and without a budget, the layout
    search returns what the reference returns, and so does bandwidth_exact."""
    adj = adj_of(g)
    for cutoff in range(g.n + 2):
        for b in (budget, math.inf):
            assert _layout(g._adj, cutoff, b) == reference_layout(adj, cutoff, b)
    width, order, exact = reference_layout(adj, g.n + 1, budget)
    if g.num_edges() == 0:
        want = SearchResult(0, True), list(range(g.n))
    elif order is None:
        want = SearchResult(g.n - 1, False), list(range(g.n))
    else:
        want = SearchResult(width, exact), order
    assert bandwidth_exact(g, budget) == want


@given(graphs(max_n=10), st.integers(min_value=0, max_value=300))
@settings(deadline=None)  # the example count comes from the active profile
def test_ccw_exact_matches_the_reference(g, budget):
    """Node for node: ccw_exact returns what the reference returns at every
    budget, so it visits the same partitions and quotient layouts."""
    assert ccw_exact(g, budget) == reference_ccw_exact(g, budget)
    assert ccw_exact(g) == reference_ccw_exact(g)


@pytest.mark.parametrize("search, g, proved, smallest", [
    (bandwidth_exact, grid(4), SearchResult(4, True), 538),
    (bandwidth_exact, grid(5), SearchResult(5, True), 9_327),
    (ccw_exact, grid(4), SearchResult(2, True), 29),
    (ccw_exact, apex_grid(1, 3), SearchResult(2, True), 29),
], ids=["bandwidth-grid4", "bandwidth-grid5", "ccw-grid4", "ccw-apex-grid-1-3"])
def test_smallest_proving_budget(search, g, proved, smallest):
    """The fewest nodes that prove each result: one node fewer finds the
    same width but cannot prove it."""
    assert search(g, smallest)[0] == proved
    assert search(g, smallest - 1)[0] == SearchResult(proved.value, False)


def test_grid4_bandwidth_proved_within_600_nodes():
    g = grid(4)
    res, order = bandwidth_exact(g, budget=600)
    assert res == SearchResult(4, True)
    assert width_of(g, order) == 4


def test_grid5_bandwidth_proved_within_10000_nodes():
    assert bandwidth_exact(grid(5), budget=10_000)[0] == SearchResult(5, True)


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
