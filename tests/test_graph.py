import json

import pytest
from hypothesis import given, strategies as st

from ccwkit import (
    Graph,
    OrderedCliqueCover,
    Plain,
    connected_components,
    cover_width,
    grid,
    apex_grid,
    induced_subgraph,
    intersect_graphs,
    is_clique,
    is_independent,
    verify_cover,
)
from ccwkit.errors import (
    DuplicateLabel,
    InvalidCover,
    InvalidGraph,
    MismatchedVertexSets,
    VertexOutOfRange,
)

from oracles import brute_components


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty(n):
    return Graph.from_edges(n, [])


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return Graph.from_edges(n, edges)


class TestBasics:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_edge_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            Graph.from_edges(2, [(0, 2)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            Graph.from_edges(2, [], labels=[Plain(0), Plain(0)])

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]


class TestLabelChecks:
    @pytest.mark.parametrize(
        "labels, error",
        [
            ([Plain(0)], InvalidGraph),
            ([Plain(0), Plain(1), Plain(2)], InvalidGraph),
            ([Plain(0), [1]], InvalidGraph),
            ([Plain(0), Plain(0)], DuplicateLabel),
        ],
        ids=["too-few", "too-many", "unhashable", "repeated"],
    )
    @pytest.mark.parametrize(
        "build",
        [lambda labels: Graph.from_edges(2, [(0, 1)], labels),
         lambda labels: Graph.from_masks([0b10, 0b01], labels)],
        ids=["from_edges", "from_masks"],
    )
    def test_both_constructors_raise_alike(self, build, labels, error):
        with pytest.raises(error):
            build(labels)


class TestIntersect:
    def test_identity(self):
        k3 = complete(3)
        assert intersect_graphs([k3, k3]).edge_equal(k3)

    def test_absorbing_empty(self):
        assert intersect_graphs([complete(3), empty(3)]).edge_equal(empty(3))

    def test_factorization_recovers_apex_grid(self):
        from ccwkit import factorize_apex_grid

        f = factorize_apex_grid(1, 4)
        assert intersect_graphs(list(f.factors)).edge_equal(apex_grid(1, 4))

    def test_mismatched_counts(self):
        with pytest.raises(MismatchedVertexSets):
            intersect_graphs([complete(3), complete(4)])

    def test_mismatched_labels(self):
        a = Graph.from_edges(2, [], labels=[Plain(0), Plain(1)])
        b = Graph.from_edges(2, [], labels=[Plain(1), Plain(0)])
        with pytest.raises(MismatchedVertexSets):
            intersect_graphs([a, b])

    @given(small_graphs(), small_graphs())
    def test_subset_commutative_idempotent(self, a, b):
        if a.n != b.n:
            b = Graph.from_edges(a.n, [(u, v) for u, v in b.edges() if v < a.n])
        ab = intersect_graphs([a, b])
        assert set(ab.edges()) <= set(a.edges())
        assert set(ab.edges()) <= set(b.edges())
        assert ab.edge_equal(intersect_graphs([b, a]))
        assert intersect_graphs([a, a]).edge_equal(a)
        # associativity
        assert intersect_graphs([ab, b]).edge_equal(intersect_graphs([a, intersect_graphs([b, b])]))


class TestInducedSubgraph:
    def test_c4_edge(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, back = induced_subgraph(c4, {0, 1})
        assert sub.n == 2 and sub.num_edges() == 1
        assert back == [0, 1]

    def test_grid_column_is_path(self):
        g = grid(3)
        column = [v for v, lbl in enumerate(g.labels) if lbl.col == 2]
        sub, _ = induced_subgraph(g, column)
        assert sub.n == 3 and sub.num_edges() == 2
        assert sorted(sub.degree(v) for v in range(3)) == [1, 1, 2]

    def test_apex_removal_restores_grid(self):
        ag = apex_grid(1, 3)
        sub, _ = induced_subgraph(ag, range(9))
        assert sub.edge_equal(grid(3))

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            induced_subgraph(grid(2), {5})

    @given(small_graphs())
    def test_full_induced_is_identity(self, g):
        sub, back = induced_subgraph(g, range(g.n))
        assert sub.edge_equal(g)
        assert back == list(range(g.n))


class TestComponents:
    def test_empty_graph_singletons(self):
        assert connected_components(empty(3)) == [{0}, {1}, {2}]

    def test_grid_connected(self):
        comps = connected_components(grid(4))
        assert len(comps) == 1 and len(comps[0]) == 16

    def test_grid_minus_column(self):
        g = grid(4)
        keep = [v for v, lbl in enumerate(g.labels) if lbl.col != 2]
        sub, _ = induced_subgraph(g, keep)
        sizes = sorted(len(c) for c in connected_components(sub))
        assert sizes == [4, 8]

    @given(small_graphs())
    def test_matches_bfs_oracle(self, g):
        got = connected_components(g)
        expect = brute_components(g)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expect))
        # partition + every edge inside one block
        assert sorted(v for c in got for v in c) == list(range(g.n))
        block = {v: i for i, c in enumerate(got) for v in c}
        for u, v in g.edges():
            assert block[u] == block[v]


class TestCliqueIndependent:
    def test_k4_clique(self):
        assert is_clique(complete(4), {0, 1, 2, 3})

    def test_grid_bipartition_class_independent(self):
        g = grid(3)
        color0 = [v for v, lbl in enumerate(g.labels) if (lbl.row + lbl.col) % 2 == 0]
        assert is_independent(g, color0)

    def test_grid_column_not_clique(self):
        g = grid(3)
        column = [v for v, lbl in enumerate(g.labels) if lbl.col == 1]
        assert not is_clique(g, column)

    def test_empty_set(self):
        assert is_clique(grid(2), set())
        assert is_independent(grid(2), set())


# a block {-1} beside blocks that cover grid(2)
NEGATIVE_BLOCK = OrderedCliqueCover((frozenset({-1}), frozenset({0, 1}), frozenset({2, 3})))
OUTSIDE = "block contains a vertex outside V(g)"

# name: (a call on grid(2) with vertex id -1, the error it raises or the value it returns)
NEGATIVE_IDS = {
    "is_clique": (lambda g: is_clique(g, [-1, 0]),
                  VertexOutOfRange("vertex set not contained in V(g)")),
    "is_independent": (lambda g: is_independent(g, [-1]),
                       VertexOutOfRange("vertex set not contained in V(g)")),
    "connected_components": (lambda g: connected_components(g, within=[-1]),
                             VertexOutOfRange("vertex set not contained in V(g)")),
    "induced_subgraph": (lambda g: induced_subgraph(g, [-1]),
                         VertexOutOfRange("vertex set not contained in V(g)")),
    "has_edge": (lambda g: g.has_edge(-1, 0), VertexOutOfRange("vertex -1 out of range for n=4")),
    "verify_cover": (lambda g: verify_cover(g, NEGATIVE_BLOCK), (False, OUTSIDE)),
    "cover_width": (lambda g: cover_width(g, NEGATIVE_BLOCK), InvalidCover(OUTSIDE)),
}


@pytest.mark.parametrize("call, expected", NEGATIVE_IDS.values(), ids=NEGATIVE_IDS.keys())
def test_negative_vertex_id(call, expected):
    # a negative id is outside V(g), as one >= n is; 1 << v must not see it
    if not isinstance(expected, Exception):
        assert call(grid(2)) == expected
        return
    with pytest.raises(type(expected)) as info:
        call(grid(2))
    assert str(info.value) == str(expected)


class TestSerialization:
    def test_json_round_trip(self):
        g = apex_grid(2, 3, {(1, 2)})
        again = Graph.from_json(json.loads(json.dumps(g.to_json())))
        assert again == g

    def test_dot_export(self):
        dot = grid(2).to_dot()
        assert dot.startswith("graph G {")
        assert "0 -- 1;" in dot
