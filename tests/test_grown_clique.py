"""`_grown_clique`, the one greedy clique grower behind `ccw_upper_greedy`
and the widened cover blocks of an envelope, against its definition: given
the vertices of `allowed` adjacent to a start vertex, each joins, in
ascending order, iff it is adjacent to every vertex of the clique so far."""

import random

import pytest

from ccwkit import Graph, ccw_upper_greedy
from ccwkit.graph import _grown_clique, bits


def grown_by_definition(g, start, allowed):
    clique = list(bits(start))
    for u in bits(allowed & ~start):
        if all(g.has_edge(u, v) for v in clique):
            clique.append(u)
    return sum(1 << v for v in clique)


def random_graphs(seed, count=300, most=12):
    rng = random.Random(seed)
    for _ in range(count):
        n, p = rng.randint(1, most), rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield rng, Graph.from_edges(n, edges)


@pytest.mark.parametrize("seed", range(3))
def test_matches_the_definition(seed):
    for rng, g in random_graphs(seed):
        allowed = rng.getrandbits(g.n)
        v = rng.randrange(g.n)
        start = 1 << v
        grown = start | _grown_clique(g._adj, allowed & g._adj[v])
        assert grown == grown_by_definition(g, start, allowed)
        # a clique, maximal among the vertices of `allowed`
        members = list(bits(grown))
        assert all(g.has_edge(u, v) for u in members for v in members if u < v)
        assert not any(
            all(g.has_edge(u, v) for v in members) for u in bits(allowed & ~grown)
        )


@pytest.mark.parametrize("seed", range(3))
def test_greedy_cover_blocks(seed):
    for _, g in random_graphs(seed):
        _, cover = ccw_upper_greedy(g)
        rest = g.vertex_mask()
        for block in cover.cliques:
            low = rest & -rest
            assert sum(1 << v for v in block) == grown_by_definition(g, low, rest)
            rest &= ~sum(1 << v for v in block)
        assert rest == 0
