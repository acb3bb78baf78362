"""`is_chordal`'s hole comes from `verify_peo`'s own witness and one BFS
path.  Its verdict is checked against networkx, the layer BFS it shares
with `connected_components` against the component oracle, and the mask
`verify_hole` against the pairwise definition in `oracles.py`."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwkit import (
    Graph,
    Measure,
    balanced_clique_separator,
    connected_components,
    is_chordal,
)
from ccwkit.chordal import verify_hole
from ccwkit.errors import NotChordal, VertexOutOfRange

from oracles import brute_components, fill_in, pairwise_verify_hole


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@st.composite
def gnp(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    p = draw(st.floats(0.05, 0.95))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


@st.composite
def near_chordal(draw, max_n=40):
    """A random chordal graph (the fill-in of a sparse G(n, p) along a random
    order) with one to three edges removed, and sometimes one edge added."""
    n = draw(st.integers(4, max_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = rng.uniform(0.5, 3) / n
    g = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )
    order = list(range(n))
    rng.shuffle(order)
    edges = set(fill_in(g, order).edges())
    for _ in range(min(len(edges), draw(st.integers(1, 3)))):
        edges.discard(rng.choice(sorted(edges)))
    if draw(st.booleans()):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def check_verdict(g: Graph):
    ok, cert = is_chordal(g)
    assert ok == nx.is_chordal(to_nx(g))
    if not ok:
        assert len(cert.hole) >= 4
        assert verify_hole(g, cert.hole) and pairwise_verify_hole(g, cert.hole)


@settings(max_examples=300, deadline=None)
@given(gnp())
def test_verdict_matches_networkx_on_gnp(g):
    check_verdict(g)


@settings(max_examples=300, deadline=None)
@given(near_chordal())
def test_verdict_matches_networkx_near_chordal(g):
    check_verdict(g)


@pytest.mark.parametrize("m", [4, 40, 400])
def test_clique_with_a_hanging_five_cycle(m):
    # K_m plus a 5-cycle through vertex m - 1: the hole is that 5-cycle
    cycle = [m - 1, m, m + 1, m + 2, m + 3]
    g = Graph.from_edges(
        m + 4,
        [(u, v) for u in range(m) for v in range(u + 1, m)]
        + [(cycle[i - 1], cycle[i]) for i in range(5)],
    )
    ok, cert = is_chordal(g)
    assert not ok and sorted(cert.hole) == cycle and verify_hole(g, cert.hole)


def test_separator_error_names_the_hole():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)])
    _, cert = is_chordal(g)
    with pytest.raises(NotChordal, match=rf"; hole \[{', '.join(map(str, cert.hole))}\]$"):
        balanced_clique_separator(g, Measure.uniform(g.n))
    assert sorted(cert.hole) == [0, 1, 2, 3, 4]


@settings(max_examples=200, deadline=None)
@given(gnp(max_n=20))
def test_components_match_the_oracle(g):
    assert connected_components(g) == brute_components(g)


@settings(max_examples=400, deadline=None)
@given(gnp(max_n=10), st.data())
def test_verify_hole_matches_the_pairwise_definition(g, data):
    hole = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n + 2))
    assert verify_hole(g, hole) == pairwise_verify_hole(g, hole)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_hole_on_cycles_with_chords(data):
    # a permuted cycle of length >= 4, sometimes with a chord added
    k = data.draw(st.integers(4, 10))
    hole = data.draw(st.permutations(range(k)))
    edges = {tuple(sorted((hole[i - 1], hole[i]))) for i in range(k)}
    if data.draw(st.booleans()):
        u, v = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        edges.add((min(u, v), max(u, v)))
    c = Graph.from_edges(k, sorted(edges))
    assert verify_hole(c, hole) == pairwise_verify_hole(c, hole)


@pytest.mark.parametrize("bad", [-1, -5, 6, 2**70])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_verify_hole_rejects_an_out_of_range_id(bad, where):
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    hole = [0, 1, 2, 3, 4, 5]
    hole[where] = bad
    with pytest.raises(VertexOutOfRange, match=r"vertex set not contained in V\(g\)"):
        verify_hole(g, hole)
