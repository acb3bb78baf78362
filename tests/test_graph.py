import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from ccwkit import (
    Factorization,
    Graph,
    OrderedCliqueCover,
    Plain,
    connected_components,
    cover_width,
    factorize_apex_grid,
    grid,
    apex_grid,
    induced_subgraph,
    intersect_graphs,
    is_clique,
    is_independent,
    product_cell_cover,
    verify_cover,
    verify_factorization,
)
from ccwkit.errors import (
    DuplicateLabel,
    InvalidCover,
    InvalidGraph,
    MismatchedVertexSets,
    VertexOutOfRange,
)

from oracles import brute_components, reference_from_masks_error


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

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: Graph.from_masks([0b01, 0b00]), InvalidGraph("self-loop at vertex 0")),
            (lambda: Graph.from_masks([0b10, 0b11]), InvalidGraph("self-loop at vertex 1")),
            (lambda: Graph.from_masks([0b100, 0]), VertexOutOfRange("adjacency of 0 exceeds n=2")),
            (lambda: Graph.from_masks([0b10, 0b1, 0b1000]),
             VertexOutOfRange("adjacency of 2 exceeds n=3")),
            (lambda: Graph.from_edges(2.0, []), InvalidGraph("n must be an integer, got 2.0")),
            (lambda: Graph.from_edges("2", []), InvalidGraph("n must be an integer, got '2'")),
        ],
        ids=["masks-loop-0", "masks-loop-1", "masks-past-n", "masks-past-n-last",
             "edges-float-n", "edges-string-n"],
    )
    def test_malformed_input_refused(self, build, expected):
        with pytest.raises(type(expected)) as info:
            build()
        assert str(info.value) == str(expected)

    @pytest.mark.parametrize(
        "masks, expected",
        [
            # vertex 1 holds its own bit and one past n: the self-loop is named
            ([0b10, 0b1010, 0b100], InvalidGraph("self-loop at vertex 1")),
            ([0b10, 0b1001, 0b100], VertexOutOfRange("adjacency of 1 exceeds n=3")),
            ([0b10, 0b1001, 0b100, 0b1000], InvalidGraph("self-loop at vertex 2")),
            ([0b10, -2, 0b100], InvalidGraph("self-loop at vertex 1")),
            ([0b10, -8, 0], VertexOutOfRange("adjacency of 1 exceeds n=3")),
        ],
        ids=["loop-and-past-n", "past-n", "first-bad-vertex", "negative", "negative-high"],
    )
    def test_from_masks_names_the_first_bad_vertex(self, masks, expected):
        with pytest.raises(type(expected)) as info:
            Graph.from_masks(masks)
        assert str(info.value) == str(expected)

    @given(st.lists(st.integers(-(1 << 10), (1 << 10) - 1), max_size=10))
    def test_from_masks_error_matches_the_vertex_walk(self, masks):
        expected = reference_from_masks_error(masks)
        if expected is None:
            assert Graph.from_masks(masks)._adj == tuple(masks)
            return
        with pytest.raises(expected[0]) as info:
            Graph.from_masks(masks)
        assert type(info.value) is expected[0] and str(info.value) == expected[1]


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
        assert intersect_graphs([k3, k3]) == k3

    def test_absorbing_empty(self):
        assert intersect_graphs([complete(3), empty(3)]) == empty(3)

    def test_factorization_recovers_apex_grid(self):
        from ccwkit import factorize_apex_grid

        f = factorize_apex_grid(1, 4)
        assert intersect_graphs(list(f.factors)) == apex_grid(1, 4)

    def test_mismatched_counts(self):
        with pytest.raises(MismatchedVertexSets):
            intersect_graphs([complete(3), complete(4)])

    def test_no_factors(self):
        with pytest.raises(InvalidGraph, match="^need at least one factor$"):
            intersect_graphs([])

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
        assert ab == intersect_graphs([b, a])
        assert intersect_graphs([a, a]) == a
        # associativity
        assert intersect_graphs([ab, b]) == intersect_graphs([a, intersect_graphs([b, b])])


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
        assert sorted(sub.adj_mask(v).bit_count() for v in range(3)) == [1, 1, 2]

    def test_apex_removal_restores_grid(self):
        ag = apex_grid(1, 3)
        sub, _ = induced_subgraph(ag, range(9))
        assert sub == grid(3)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            induced_subgraph(grid(2), {5})

    @given(small_graphs())
    def test_full_induced_is_identity(self, g):
        sub, back = induced_subgraph(g, range(g.n))
        assert sub == g
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


OUTSIDE = "block contains a vertex outside V(g)"
NOT_IN_V = VertexOutOfRange("vertex set not contained in V(g)")


ROWS = (frozenset({0, 1}), frozenset({2, 3}))  # a cover of grid(2)


def cover_with(bad):
    """A block {bad} beside blocks that cover grid(2)."""
    return OrderedCliqueCover((frozenset({bad}), *ROWS))


def envelope_with(bad):
    """`Factorization.to_json` of grid(2)'s factorization with a block {bad}
    put in front of its cover, which must not raise; then the error
    `Factorization.from_json` raises on that envelope and the
    `cover_validity[1]` check of `verify_factorization`."""
    f = factorize_apex_grid(0, 2)
    cover = OrderedCliqueCover((frozenset({bad}), *f.covers[0].cliques))
    f = dataclasses.replace(f, covers=(cover,))
    obj = json.loads(json.dumps(f.to_json()))
    with pytest.raises(InvalidGraph) as info:
        Factorization.from_json(obj)
    checks = {name: (ok, detail) for name, ok, detail in verify_factorization(f)}
    return str(info.value), checks["cover_validity[1]"]


# name: (a call on grid(2) with the vertex id `bad` outside V(g), the error it
# raises or the value it returns); each takes caller ids through one door
DOOR_USERS = {
    "is_clique": (lambda g, bad: is_clique(g, [bad, 0]), NOT_IN_V),
    "is_independent": (lambda g, bad: is_independent(g, [bad]), NOT_IN_V),
    "connected_components": (lambda g, bad: connected_components(g, within=[bad]), NOT_IN_V),
    "induced_subgraph": (lambda g, bad: induced_subgraph(g, [bad]), NOT_IN_V),
    "verify_cover": (lambda g, bad: verify_cover(g, cover_with(bad)), (False, OUTSIDE)),
    "cover_width": (lambda g, bad: cover_width(g, cover_with(bad)), InvalidCover(OUTSIDE)),
    "product_cell_cover": (
        lambda g, bad: product_cell_cover(g, {0, bad}, [OrderedCliqueCover(ROWS)]),
        NOT_IN_V,
    ),
    "Factorization.to_json": (
        lambda g, bad: envelope_with(bad),
        ("certificate and cover entries must be vertex ids in [0, 4)", (False, OUTSIDE)),
    ),
}

# each door user with the id -1; 1 << -1 raises ValueError
NEGATIVE_IDS = {
    name: (lambda g, call=call: call(g, -1), expected) for name, (call, expected) in DOOR_USERS.items()
}
NEGATIVE_IDS["has_edge"] = (
    lambda g: g.has_edge(-1, 0),
    VertexOutOfRange("vertex -1 out of range for n=4"),
)

# each door user with n and 2**70; 1 << 2**70 raises OverflowError at once,
# where an id such as 2**33 would build a 1 GiB int
OUT_OF_RANGE_IDS = {
    f"{name}-{suffix}": (lambda g, call=call, bad=bad: call(g, bad), expected)
    for name, (call, expected) in DOOR_USERS.items()
    for suffix, bad in {"n": 4, "2**70": 2**70}.items()
}


def check_refused(call, expected):
    # an id outside [0, n), negative or huge, is refused before 1 << v sees it
    if not isinstance(expected, Exception):
        assert call(grid(2)) == expected
        return
    with pytest.raises(type(expected)) as info:
        call(grid(2))
    assert str(info.value) == str(expected)


@pytest.mark.parametrize("call, expected", NEGATIVE_IDS.values(), ids=NEGATIVE_IDS.keys())
def test_negative_vertex_id(call, expected):
    check_refused(call, expected)


@pytest.mark.parametrize("call, expected", OUT_OF_RANGE_IDS.values(), ids=OUT_OF_RANGE_IDS.keys())
def test_out_of_range_vertex_id(call, expected):
    check_refused(call, expected)


class TestSerialization:
    def test_json_round_trip(self):
        g = apex_grid(2, 3, {(1, 2)})
        again = Graph.from_json(json.loads(json.dumps(g.to_json())))
        assert again == g

    def test_dot_export(self):
        dot = grid(2).to_dot()
        assert dot.startswith("graph G {")
        assert "0 -- 1;" in dot
