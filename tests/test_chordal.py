from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ccwkit import (
    Graph,
    Measure,
    balanced_clique_separator,
    clique_tree,
    connected_components,
    factorize_apex_grid,
    grid,
    induced_subgraph,
    is_chordal,
    lex_bfs,
    maximal_cliques_chordal,
    verify_peo,
)
from ccwkit.chordal import _balanced_bag, verify_hole
from ccwkit.errors import InvalidPEO, NotChordal

from oracles import brute_has_hole, brute_maximal_cliques, fill_in, verify_clique_tree


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return Graph.from_edges(n, edges)


class TestLexBfs:
    def test_empty_graph_some_permutation(self):
        assert sorted(lex_bfs(Graph.from_edges(3, []))) == [0, 1, 2]

    def test_k4_any_order_valid(self):
        order = lex_bfs(complete(4))
        assert sorted(order) == [0, 1, 2, 3]
        assert verify_peo(complete(4), order[::-1]) is None

    def test_p4_visits_in_order(self):
        assert lex_bfs(path(4)) == [0, 1, 2, 3]


class TestIsChordal:
    def test_c4_hole(self):
        ok, cert = is_chordal(cycle(4))
        assert not ok
        assert cert.hole is not None and len(cert.hole) == 4
        assert verify_hole(cycle(4), cert.hole)

    def test_tree_chordal(self):
        t = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        ok, cert = is_chordal(t)
        assert ok and verify_peo(t, cert.peo) is None

    def test_apex_grid_factor_one_chordal(self):
        f = factorize_apex_grid(2, 5)
        ok, cert = is_chordal(f.factors[0])
        assert ok and verify_peo(f.factors[0], cert.peo) is None

    def test_c6_hole_verifies(self):
        ok, cert = is_chordal(cycle(6))
        assert not ok
        assert verify_hole(cycle(6), cert.hole)

    @given(small_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_hole_search_oracle(self, g):
        ok, cert = is_chordal(g)
        assert ok == (not brute_has_hole(g))
        assert verify_peo(g, cert.peo) is None if ok else verify_hole(g, cert.hole)


class TestMaximalCliques:
    def test_k5_single_clique(self):
        _, cert = is_chordal(complete(5))
        assert maximal_cliques_chordal(complete(5), cert.peo) == [frozenset(range(5))]

    def test_p3_two_cliques(self):
        _, cert = is_chordal(path(3))
        got = {tuple(sorted(c)) for c in maximal_cliques_chordal(path(3), cert.peo)}
        assert got == {(0, 1), (1, 2)}

    def test_sliding_row_cliques(self):
        f = factorize_apex_grid(0, 4)
        g1_grid, _ = induced_subgraph(f.factors[0], range(16))
        _, cert = is_chordal(g1_grid)
        got = maximal_cliques_chordal(g1_grid, cert.peo)
        assert sorted(len(c) for c in got) == [8, 8, 8]
        expect = brute_maximal_cliques(g1_grid)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expect))

    def test_invalid_peo_rejected(self):
        with pytest.raises(InvalidPEO):
            maximal_cliques_chordal(path(3), [0, 1])

    @given(small_graphs())
    @settings(max_examples=100, deadline=None)
    def test_at_most_n_cliques_and_matches_oracle(self, g):
        ok, cert = is_chordal(g)
        if not ok:
            return
        got = maximal_cliques_chordal(g, cert.peo)
        assert len(got) <= g.n
        expect = brute_maximal_cliques(g)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expect))


class TestCliqueTree:
    def test_k4_single_bag(self):
        _, cert = is_chordal(complete(4))
        t = clique_tree(complete(4), cert.peo)
        assert len(t.bags) == 1 and t.tree_edges == ()

    def test_p4_path_of_bags(self):
        _, cert = is_chordal(path(4))
        t = clique_tree(path(4), cert.peo)
        assert sorted(map(sorted, t.bags)) == [[0, 1], [1, 2], [2, 3]]
        assert len(t.tree_edges) == 2
        assert verify_clique_tree(path(4), t)

    def test_tree_bags_are_edges(self):
        t5 = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        _, cert = is_chordal(t5)
        ct = clique_tree(t5, cert.peo)
        assert sorted(map(sorted, ct.bags)) == [[0, 1], [1, 2], [1, 3], [3, 4]]
        assert verify_clique_tree(t5, ct)

    @given(small_graphs())
    @settings(max_examples=100, deadline=None)
    def test_invariants_on_random_chordal(self, g):
        ok, cert = is_chordal(g)
        if not ok:
            return
        assert verify_clique_tree(g, clique_tree(g, cert.peo))


@pytest.mark.parametrize("build", [maximal_cliques_chordal, clique_tree])
@pytest.mark.parametrize("g, order", [(path(3), [1, 0, 2]), (cycle(4), [0, 1, 2, 3])],
                         ids=["p3-middle-first", "c4"])
def test_an_order_of_every_vertex_that_is_no_peo_is_refused(build, g, order):
    # verify_peo accepts the order as a permutation and returns a witness
    with pytest.raises(InvalidPEO, match="^not a perfect elimination ordering$"):
        build(g, order)


class TestBalancedCliqueSeparator:
    def test_k6_trivial(self):
        sep = balanced_clique_separator(complete(6), Measure.uniform(6))
        assert sep == set(range(6))

    def test_p9_middle_edge(self):
        g = path(9)
        sep = balanced_clique_separator(g, Measure.uniform(9))
        assert len(sep) == 2
        comps = connected_components(g, within=set(range(9)) - sep)
        assert all(len(c) <= 6 for c in comps)

    def test_apex_grid_factor(self):
        f = factorize_apex_grid(1, 8)
        g1 = f.factors[0]
        sep = balanced_clique_separator(g1, Measure.uniform(g1.n))
        rows = {g1.labels[v].row for v in sep if v < 64}
        assert len(rows) <= 2 and max(rows) - min(rows) <= 1
        comps = connected_components(g1, within=set(range(g1.n)) - sep)
        assert all(len(c) <= 2 * 65 / 3 for c in comps)

    def test_not_chordal_rejected(self):
        with pytest.raises(NotChordal):
            balanced_clique_separator(cycle(5), Measure.uniform(5))

    def test_weighted_measure(self):
        g = path(9)
        mu = Measure.from_list([10, 1, 1, 1, 1, 1, 1, 1, 1])
        sep = balanced_clique_separator(g, mu)
        comps = connected_components(g, within=set(range(9)) - sep)
        assert all(mu.of(c) <= 2 * 18 / 3 for c in comps)

    def test_empty_graph(self):
        assert balanced_clique_separator(Graph.from_edges(0, []), Measure.uniform(0)) == set()

    def test_p4_weight_at_an_end_on_every_peo(self):
        # {0, 1} is the only bag that leaves no component heavier than 5;
        # stepping only while the heaviest component strictly shrinks stops
        # at {2, 3} when the walk starts there
        g, mu = path(4), Measure.from_list([10, 0, 0, 0])
        assert balanced_clique_separator(g, mu) == {0, 1}
        for order in permutations(range(4)):
            if verify_peo(g, order) is None:
                assert _balanced_bag(g, order, mu) == {0, 1}


@st.composite
def weighted_chordal(draw, max_n=16):
    """A fill-in chordal graph with its PEO (sparse, so often disconnected)
    and integer weights, many of them 0."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    order = draw(st.permutations(range(n)))
    weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), min_size=n, max_size=n))
    return fill_in(Graph.from_edges(n, edges), order), order, Measure.from_list(weights)


class TestCliqueForest:
    @given(weighted_chordal())
    @settings(max_examples=300, deadline=None)
    def test_tree_cliques_and_centroid_on_fill_in(self, case):
        g, peo, mu = case
        tree = clique_tree(g, peo)
        assert verify_clique_tree(g, tree)
        assert set(tree.bags) == set(maximal_cliques_chordal(g, peo))
        sep = _balanced_bag(g, peo, mu)
        half = mu.total(g.n) / 2
        assert all(mu.of(c) <= half for c in connected_components(g, within=set(range(g.n)) - sep))
