"""`audit_lower_bound` takes its grid clique from the elimination of factor
1 that `check_factorization` ran on the whole certified PEO, masked to the
grid cells (`separator._grid_clique`), not from a second elimination of the
PEO restricted to the grid.  This holds it to that second elimination, kept
as the reference, on apex grids and clique sums with random apex edges and
removed edges, each with its own PEO and with another one drawn at random."""

import dataclasses
import itertools

from hypothesis import given, strategies as st

from ccwkit import (
    ChordalCertificate,
    check_factorization,
    factorize_apex_grid,
    factorize_clique_sum,
    verify_peo,
)
from ccwkit.separator import _grid_clique

from oracles import reference_grid_clique


@st.composite
def factorizations(draw):
    """An apex grid with a random apex edge set, or a clique sum of 1-3 apex
    grids with random removed edges, k = 0..4 (1..4 for a sum)."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 4))
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        apex_edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return factorize_apex_grid(k, draw(st.integers(2, 6)), apex_edges)
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    removed = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return factorize_clique_sum([(k, n) for n in sizes], removed)


def random_peo(g, rnd):
    """A PEO of the chordal graph g: the reverse of a maximum cardinality
    search (Tarjan & Yannakakis 1984) whose ties are broken at random."""
    weight, order = [0] * g.n, []
    left = set(range(g.n))
    while left:
        top = max(weight[v] for v in left)
        v = rnd.choice(sorted(u for u in left if weight[u] == top))
        order.append(v)
        left.remove(v)
        for u in left:
            weight[u] += g.has_edge(u, v)
    return tuple(reversed(order))


@given(factorizations(), st.booleans(), st.randoms(use_true_random=False))
def test_grid_clique_matches_the_grid_peo_elimination(f, redraw, rnd):
    if redraw:
        peo = random_peo(f.factors[0], rnd)
        assert verify_peo(f.factors[0], peo) is None
        f = dataclasses.replace(f, chordal_cert=ChordalCertificate(peo=peo))
    succ, _ = check_factorization(f)
    assert _grid_clique(f, succ) == reference_grid_clique(f)
