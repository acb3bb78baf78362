import hashlib
import itertools
import random
import tracemalloc

import networkx as nx
import pytest

from ccwkit import (
    Apex,
    Graph,
    GridCell,
    apex_grid,
    check_factorization,
    clique_sum,
    cover_width,
    example3_i,
    example3_ii,
    factorize_apex_grid,
    factorize_clique_sum,
    grid,
    intersect_graphs,
    is_chordal,
    verify_factorization,
)
from ccwkit import constructions
from ccwkit.constructions import _apex_grid_factors, _make_factorization
from ccwkit.errors import (
    InvalidApexEdge,
    InvalidFactorization,
    InvalidSize,
    JunctionNotClique,
    BadRemovedEdge,
    UnequalApexSizes,
)
from ccwkit.cli import main

from oracles import complete_apex_edges, relabeled


def complete(n, labels=None):
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)], labels
    )


class TestGrid:
    def test_grid1(self):
        g = grid(1)
        assert g.n == 1 and g.num_edges() == 0

    def test_grid2_is_c4(self):
        g = grid(2)
        assert g.n == 4 and g.num_edges() == 4
        assert all(g.adj_mask(v).bit_count() == 2 for v in range(4))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_edge_count(self, n):
        assert grid(n).num_edges() == 2 * n * (n - 1)

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            grid(0)


class TestApexGrid:
    def test_k0_is_grid(self):
        assert apex_grid(0, 3) == grid(3)

    def test_k1_n3_edge_count(self):
        assert apex_grid(1, 3).num_edges() == 12 + 9

    def test_k2_n2_with_apex_edge(self):
        g = apex_grid(2, 2, {(1, 2)})
        assert g.n == 6 and g.num_edges() == 4 + 2 * 4 + 1

    def test_degrees(self):
        k, n = 3, 4
        g = apex_grid(k, n, {(1, 2)})
        base = grid(n)
        for v in range(n * n):
            assert g.adj_mask(v).bit_count() == base.adj_mask(v).bit_count() + k
        assert g.adj_mask(n * n).bit_count() == n * n + 1      # apex 1: one apex edge
        assert g.adj_mask(n * n + 1).bit_count() == n * n + 1  # apex 2
        assert g.adj_mask(n * n + 2).bit_count() == n * n      # apex 3: no apex edge

    def test_bad_apex_edge(self):
        with pytest.raises(InvalidApexEdge):
            apex_grid(1, 2, {(1, 2)})


class TestFactorizeApexGrid:
    def test_width_bound_k0_n4(self):
        f = factorize_apex_grid(0, 4)
        assert f.widths[0] <= 2

    def test_k1_n2_intersection_exact(self):
        f = factorize_apex_grid(1, 2)
        assert intersect_graphs(list(f.factors)) == apex_grid(1, 2)
        assert f.base == apex_grid(1, 2)

    def test_k3_n8_all_apex_pairs(self):
        f = factorize_apex_grid(3, 8, complete_apex_edges(3))
        ok, _ = is_chordal(f.factors[0])
        assert ok
        assert f.widths[0] <= 7

    def test_requires_n_at_least_two(self):
        with pytest.raises(InvalidSize):
            factorize_apex_grid(1, 1)

    def test_all_checks_pass(self):
        f = factorize_apex_grid(2, 5, {(1, 2)})
        assert all(ok for _, ok, _ in verify_factorization(f))

    @pytest.mark.parametrize("n,k", [(2, 0), (3, 1), (5, 2), (9, 3), (12, 0)])
    def test_width_bound_sweep(self, n, k):
        rng = random.Random(n * 31 + k)
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        apex_edges = {p for p in pairs if rng.random() < 0.5}
        f = factorize_apex_grid(k, n, apex_edges)
        assert f.widths[0] <= (n + 1) // 2 + k


# name: (a factorizing constructor, the width bound it certifies against)
BOUNDS = {
    "apex grid": (lambda: factorize_apex_grid(2, 5, {(1, 2)}), 3 + 2),
    "clique sum": (lambda: factorize_clique_sum([(2, 3), (2, 4)], [(1, 2)]), 5 + 6),
    "example3_i": (lambda: example3_i(3, 4), 1),
    "example3_ii": (lambda: example3_ii(3, 2), 1),
}


class TestWidthBound:
    @pytest.mark.parametrize("build, bound", BOUNDS.values(), ids=BOUNDS.keys())
    def test_each_constructor_certifies_against_its_bound(self, monkeypatch, build, bound):
        bounds = []

        def spy(*args):
            bounds.append(args[-1])
            return _make_factorization(*args)

        monkeypatch.setattr(constructions, "_make_factorization", spy)
        f = build()
        assert bounds == [bound]
        assert f.lstar <= bound

    def test_a_width_above_the_bound_is_refused(self):
        # the apex grid k = 2, n = 6 has cover width 3
        with pytest.raises(InvalidFactorization, match="^cover width 3 exceeds bound 1$"):
            _make_factorization(*_apex_grid_factors(2, [6], set()), 1)
        assert _make_factorization(*_apex_grid_factors(2, [6], set()), 3).lstar == 3


class TestCliqueSum:
    def test_two_triangles_shared_edge(self):
        a = complete(3)
        b = complete(3, labels=[GridCell(1, 1, c) for c in range(1, 4)])
        g = clique_sum([a, b], [[(0, 0), (1, 1)]])
        assert g.n == 4 and g.num_edges() == 5

    def test_shared_edge_removed_gives_c4(self):
        a = complete(3)
        b = complete(3, labels=[GridCell(1, 1, c) for c in range(1, 4)])
        g = clique_sum([a, b], [[(0, 0), (1, 1)]], removed_edges=[[(0, 1)]])
        assert g.n == 4 and g.num_edges() == 4
        assert all(g.adj_mask(v).bit_count() == 2 for v in range(4))

    def test_two_apex_grids_at_apex_pairs(self):
        parts = [relabeled(apex_grid(2, 3, complete_apex_edges(2)), i) for i in range(2)]
        g = clique_sum([parts[0], parts[1]], [[(9, 9), (10, 10)]])
        # 9 + 9 grid cells plus one shared apex pair
        assert g.n == 20

    def test_edge_count_identity(self):
        parts = [relabeled(apex_grid(2, 3, complete_apex_edges(2)), i) for i in range(2)]
        g = clique_sum([parts[0], parts[1]], [[(9, 9), (10, 10)]], [[(9, 10)]])
        # union double-counts the junction clique edge once; one edge removed
        assert g.num_edges() == parts[0].num_edges() + parts[1].num_edges() - 1 - 1

    def test_junction_must_be_clique(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = complete(3, labels=[GridCell(1, 1, c) for c in range(1, 4)])
        with pytest.raises(JunctionNotClique):
            clique_sum([a, b], [[(0, 0), (2, 1)]])

    def test_bad_removed_edge(self):
        a = complete(3)
        b = complete(3, labels=[GridCell(1, 1, c) for c in range(1, 4)])
        with pytest.raises(BadRemovedEdge):
            clique_sum([a, b], [[(0, 0), (1, 1)]], removed_edges=[[(0, 2)]])

    def test_labels_keep_earliest_part(self):
        parts = [relabeled(apex_grid(1, 2), i) for i in range(2)]
        g = clique_sum([parts[0], parts[1]], [[(4, 4)]])
        assert g.labels[4] == Apex(0, 1)


class TestFactorizeCliqueSum:
    def test_single_part_reduces(self):
        f = factorize_clique_sum([(1, 4)])
        single = factorize_apex_grid(1, 4, complete_apex_edges(1))
        assert f.base == single.base
        assert f.widths[0] <= 4 + 1

    def test_two_parts_bound(self):
        f = factorize_clique_sum([(2, 4), (2, 6)])
        assert f.widths[0] <= (4 + 2) + (6 + 2)
        assert all(ok for _, ok, _ in verify_factorization(f))

    def test_three_parts_intersection_exact(self):
        f = factorize_clique_sum([(1, 3), (1, 3), (1, 3)])
        assert f.base.n == 3 * 9 + 1 == 28
        assert intersect_graphs(list(f.factors)) == f.base

    def test_removed_apex_edges(self):
        f = factorize_clique_sum([(3, 3), (3, 4)], [(1, 2)])
        n2 = 9
        assert not f.base.has_edge(n2, n2 + 1)
        check_factorization(f)

    def test_unequal_apex_sizes_rejected(self):
        with pytest.raises(UnequalApexSizes):
            factorize_clique_sum([(1, 3), (2, 3)])

    def test_empty_parts_rejected(self):
        with pytest.raises(InvalidSize):
            factorize_clique_sum([])


class TestExample3i:
    def test_n1_k3_is_path(self):
        f = example3_i(1, 3)
        assert f.base.n == 3 and f.base.num_edges() == 2
        assert f.widths[0] == 1

    def test_n3_k4(self):
        f = example3_i(3, 4)
        assert f.base.n == 12
        base = nx.empty_graph(f.base.n)
        base.add_edges_from(f.base.edges())
        assert 4 - 1 <= nx.diameter(base) <= 4 + 2
        assert f.widths[0] == 1

    def test_n4_k2_factor1_complete(self):
        f = example3_i(4, 2)
        assert f.factors[0].num_edges() == 8 * 7 // 2

    def test_verifies(self):
        for n, k in [(2, 3), (3, 2), (4, 5)]:
            f = example3_i(n, k)
            assert all(ok for _, ok, _ in verify_factorization(f))
            assert f.widths[0] <= 1

    # sha256 over the files `construct example3i` and `factorize example3i`
    # wrote for n = 1..12, k = 1..4 (n outer, k inner), taken when the graph
    # was still built from a list of edge tuples; `factorize` taken again when
    # envelope factors came to include the base, and again when envelopes
    # came to write their id lists as runs (`graph.ids_to_json`) and factor 1
    # stopped carrying `includes_base`, and again when factor 2 came to be
    # written as `includes_cover` in place of its blocks' cliques
    CLI_DIGESTS = {
        "construct": "dbae1d22f54fe960d4b3d2dce9aaa6ea422707ab936972fc91e1d78f59f36aa7",
        "factorize": "1614f77e28527c3cc46251d62a8724492831d092a54cf8757d6445f59bdd5b97",
    }

    @pytest.mark.parametrize("cmd", CLI_DIGESTS)
    def test_cli_bytes_unchanged(self, tmp_path, cmd):
        digest = hashlib.sha256()
        for n, k in itertools.product(range(1, 13), range(1, 5)):
            out = tmp_path / f"{n}-{k}.json"
            assert main([cmd, "example3i", "--n", str(n), "--k", str(k), "--out", str(out)]) == 0
            digest.update(out.read_bytes())
        assert digest.hexdigest() == self.CLI_DIGESTS[cmd]

    def test_memory_is_the_masks(self):
        # the edge-tuple build peaked at 20.9 MB here; the masks peak at 0.57 MB
        tracemalloc.start()
        try:
            f = example3_i(800, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.base.num_edges() == 800 * 799 // 2
        assert peak < 2_000_000


class TestExample3ii:
    def test_n2_k1_is_c4(self):
        f = example3_ii(2, 1)
        assert f.base.n == 4 and list(f.base.edges()) == list(grid(2).edges())

    def test_n2_k2_counts(self):
        f = example3_ii(2, 2)
        assert f.base.n == 8
        # 4 blown cells of k(k-1)/2=1 edge each + 4 blown grid edges of k^2=4
        assert f.base.num_edges() == 4 * 1 + 4 * 4

    def test_n3_k2_intersection_exact(self):
        f = example3_ii(3, 2)
        assert f.base.n == 18
        assert intersect_graphs(list(f.factors)) == f.base
        assert f.widths[0] == 1

    def test_vertex_count(self):
        for n, k in [(2, 3), (4, 2)]:
            assert example3_ii(n, k).base.n == n * n * k


class TestFactorizationEnvelope:
    def test_json_round_trip(self):
        from ccwkit import Factorization

        f = factorize_apex_grid(2, 4, {(1, 2)})
        again = Factorization.from_json(f.to_json())
        assert again.base == f.base
        assert again.factors == f.factors
        assert again.covers == f.covers
        check_factorization(again)


class TestJunctionMessages:
    def test_not_a_clique_in_the_sum(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = complete(3, labels=[GridCell(1, 1, c) for c in range(1, 4)])
        with pytest.raises(JunctionNotClique, match="^identified set is not a clique in the sum$"):
            clique_sum([a, b], [[(0, 0), (2, 1)]])

    def test_not_a_clique_in_the_new_part(self):
        a = complete(3)
        b = Graph.from_edges(3, [(0, 1)], labels=[GridCell(1, 1, c) for c in range(1, 4)])
        with pytest.raises(
            JunctionNotClique, match="^identified set is not a clique in the new part$"
        ):
            clique_sum([a, b], [[(0, 0), (1, 2)]])

    @pytest.mark.parametrize(
        "parts, junctions, error, message",
        [
            (0, [], InvalidSize, "need at least one part"),
            (2, [], InvalidSize, "need one junction per consecutive pair"),
            (2, [[(0, 0)], [(0, 0)]], InvalidSize, "need one junction per consecutive pair"),
            (2, [[(0, 0), (3, 1)]], JunctionNotClique, "global vertex 3 does not exist"),
            (2, [[(-1, 0)]], JunctionNotClique, "global vertex -1 does not exist"),
            (2, [[(0, 0), (0, 1)]], JunctionNotClique, "identification is not injective"),
        ],
        ids=["no parts", "no junction", "a junction too many", "past the sum",
             "negative", "not injective"],
    )
    def test_malformed_sum_refused(self, parts, junctions, error, message):
        # each part a triangle with labels of its own
        graphs = [complete(3, [GridCell(i, 1, c) for c in range(1, 4)]) for i in range(parts)]
        with pytest.raises(error) as info:
            clique_sum(graphs, junctions)
        assert str(info.value) == message
