"""The exact orders of Lex-BFS and of the maximal cliques, pinned against
definition-based oracles: byte-identical envelopes and separators depend on
them, not only on the sets they contain."""

from hypothesis import given, settings, strategies as st

from ccwkit import (
    ChordalCertificate,
    Graph,
    is_chordal,
    lex_bfs,
    maximal_cliques_chordal,
    verify_peo,
)

from oracles import brute_lex_bfs, brute_ordered_maximal_cliques, fill_in


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return Graph.from_edges(n, edges)


def test_empty_graph():
    g = Graph.from_edges(0, [])
    assert lex_bfs(g) == []
    assert is_chordal(g) == (True, ChordalCertificate(peo=()))
    assert maximal_cliques_chordal(g, ()) == []


@given(small_graphs())
@settings(max_examples=300, deadline=None)
def test_lex_bfs_matches_definition(g):
    assert lex_bfs(g) == brute_lex_bfs(g)


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_cliques_on_lex_bfs_peo_match_definition(g):
    ok, cert = is_chordal(g)
    if ok:
        expect = [frozenset(c) for c in brute_ordered_maximal_cliques(g, cert.peo)]
        assert maximal_cliques_chordal(g, cert.peo) == expect


@given(small_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_cliques_on_any_peo_match_definition(g, data):
    order = data.draw(st.permutations(range(g.n)))
    h = fill_in(g, order)
    assert verify_peo(h, order) is None
    expect = [frozenset(c) for c in brute_ordered_maximal_cliques(h, order)]
    assert maximal_cliques_chordal(h, order) == expect
