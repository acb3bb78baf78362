"""The graph JSON codec: `Graph.from_edges`, `edges`, `to_json`, `from_json`."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from ccwkit import Apex, Graph, GridCell, Plain
from ccwkit.errors import InvalidGraph, VertexOutOfRange


@st.composite
def graphs(draw, max_n=70):
    # n up to 70 makes adjacency masks span several big-int digits
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from([0.05, 0.3, 0.8]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    labels = [(GridCell(0, v, 1), Apex(1, v), Plain(v))[rng.randrange(3)] for v in range(n)]
    return Graph.from_edges(n, edges, labels)


@given(graphs())
def test_to_json_edges_are_the_sorted_adjacency(g):
    expected = [[u, v] for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]
    assert g.to_json()["edges"] == expected
    assert list(g.edges()) == [tuple(e) for e in expected]


@given(graphs())
def test_json_round_trip(g):
    assert Graph.from_json(json.loads(json.dumps(g.to_json()))) == g


@given(graphs(), st.integers(min_value=0, max_value=2**32))
def test_edge_order_and_orientation_do_not_matter(g, seed):
    rng = random.Random(seed)
    edges = list(g.edges())
    swapped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in reversed(edges)]
    assert Graph.from_edges(g.n, swapped, g.labels) == g
    assert Graph.from_edges(g.n, edges + swapped, g.labels) == g


N = 3


# n, 2n - 1, 2n and -1, -n, -n - 1, -2n, -2n - 1 sit on either side of each
# boundary of the decoding loop's index table
@pytest.mark.parametrize("bad", [N, 2 * N - 1, 2 * N, 10**30, -1, -N, -N - 1, -2 * N, -2 * N - 1])
@pytest.mark.parametrize("first", [True, False])
def test_endpoint_out_of_range(bad, first):
    edge = (bad, 0) if first else (0, bad)
    with pytest.raises(VertexOutOfRange, match=rf"edge \({edge[0]},{edge[1]}\) out of range"):
        Graph.from_edges(N, [(0, 1), edge, (1, 2)])


@pytest.mark.parametrize("edge", [(0, N), (N, 0), (-1, 0), (0, -1)])
def test_out_of_range_reported_before_a_self_loop(edge):
    for edges in ([(1, 1), edge], [edge, (1, 1)]):
        with pytest.raises(VertexOutOfRange):
            Graph.from_edges(N, edges)


def test_self_loop_is_a_value_error_naming_the_vertex():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph.from_edges(N, [(0, 1), (1, 1)])


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), (0, 1.5), ("0", "1"), None, 5])
def test_malformed_edge(edge):
    with pytest.raises(InvalidGraph):
        Graph.from_edges(N, [(0, 1), edge])


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"n": 2, "edges": []},
        {"n": 2, "labels": [{"kind": "plain", "id": 0}, {"kind": "plain", "id": 1}]},
        {"n": 2, "edges": 5, "labels": [{"kind": "plain", "id": 0}, {"kind": "plain", "id": 1}]},
        {"n": 2.0, "edges": [], "labels": [{"kind": "plain", "id": 0}, {"kind": "plain", "id": 1}]},
        {"n": 3, "edges": [], "labels": [{"kind": "plain", "id": 0}, {"kind": "plain", "id": 1}]},
        {"n": 1, "edges": [], "labels": {"kind": "plain", "id": 0}},
        {"n": 1, "edges": [], "labels": [{"kind": "x"}]},
        {"n": 1, "edges": [], "labels": [{"kind": "grid", "part": 0}]},
        {"n": 1, "edges": [], "labels": [{"kind": "plain", "id": [0]}]},
        {"n": 1, "edges": [], "labels": ["plain"]},
        {"n": True, "edges": [], "labels": [{"kind": "plain", "id": 0}]},
        {"n": 1, "edges": [], "labels": [{"kind": "plain", "id": "zero"}]},
        {"n": 1, "edges": [], "labels": [{"kind": "plain", "id": True}]},
        {"n": 1, "edges": [], "labels": [{"kind": "plain", "id": 0.0}]},
        {"n": 1, "edges": [], "labels": [{"kind": "grid", "part": 0, "row": "1", "col": 1}]},
        {"n": 1, "edges": [], "labels": [{"kind": "grid", "part": 0, "row": 1.5, "col": 1}]},
        {"n": 1, "edges": [], "labels": [{"kind": "grid", "part": 0, "row": 1, "col": False}]},
        {"n": 1, "edges": [], "labels": [{"kind": "grid", "part": None, "row": 1, "col": 1}]},
        {"n": 1, "edges": [], "labels": [{"kind": "apex", "part": 0, "apex_index": "1"}]},
        {"n": 1, "edges": [], "labels": [{"kind": "apex", "part": True, "apex_index": 1}]},
        {"n": 1, "edges": [], "labels": [{"kind": "apex", "part": 0, "apex_index": [1]}]},
        {"n": 1, "edges": [], "labels": [{"kind": "plain", "id": 0}], "includes_base": True},
        {"n": 1, "edges": [], "labels": [{"kind": "plain", "id": 0}], "includes_cover": True},
    ],
)
def test_malformed_graph_object(obj):
    with pytest.raises(InvalidGraph):
        Graph.from_json(obj)
