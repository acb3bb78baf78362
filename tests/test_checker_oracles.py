"""The mask-based checkers against per-edge oracles written from the
definitions: `cover_width` (width and witness) and `verify_peo` (witness),
plus the extension-grown maximal-clique oracle against subset enumeration."""

from hypothesis import given, settings, strategies as st

from ccwkit import Graph, OrderedCliqueCover, WidthReport, ccw_upper_greedy, cover_width, verify_peo

from oracles import (
    brute_cover_width,
    brute_maximal_cliques,
    brute_peo_witness,
    fill_in,
    subset_maximal_cliques,
)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.floats(min_value=0, max_value=1)) < p
    ]
    return Graph.from_edges(n, edges)


@given(small_graphs(max_n=14), st.data())
@settings(max_examples=400, deadline=None)
def test_cover_width_matches_per_edge_scan(g, data):
    _, greedy = ccw_upper_greedy(g)
    order = data.draw(st.permutations(range(len(greedy.cliques))))
    blocks = [greedy.cliques[i] for i in order]
    expect = WidthReport(*brute_cover_width(g, blocks))
    assert cover_width(g, OrderedCliqueCover(tuple(blocks))) == expect


@given(small_graphs(), st.data())
@settings(max_examples=400, deadline=None)
def test_verify_peo_witness_on_any_permutation(g, data):
    order = data.draw(st.permutations(range(g.n)))
    assert verify_peo(g, order) == brute_peo_witness(g, order)


@given(small_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_peo_accepts_the_orders_of_fill_in(g, data):
    order = data.draw(st.permutations(range(g.n)))
    h = fill_in(g, order)
    assert brute_peo_witness(h, order) is None
    assert verify_peo(h, order) is None


@given(small_graphs())
@settings(max_examples=300, deadline=None)
def test_extension_cliques_match_subset_enumeration(g):
    assert brute_maximal_cliques(g) == subset_maximal_cliques(g)
