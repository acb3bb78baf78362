"""`Factorization.to_json` against `oracles.reference_envelope`, the encoder
that checks every candidate clique and every base edge pair by pair and
trusts none: the same bytes on unchecked factorizations, whose certificate
may be a PEO, a permutation that is no PEO, no permutation or a hole, whose
covers may hold blocks that are not cliques, empty blocks or ids outside
the factor, whose factor 1 may have another size, and so its own labels,
and whose factor 2 may lack a base edge.  A factor is written with
`cliques` or `includes_cover` exactly when the factorization verifies, and
as its edges over the base otherwise.  Each envelope decodes to the
factorization it was written from, unless an id lies outside the base,
which `from_json` refuses."""

import dataclasses
import json
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwkit import (
    ChordalCertificate,
    Factorization,
    Graph,
    OrderedCliqueCover,
    example3_i,
    factorize_apex_grid,
    factorize_clique_sum,
    verify_factorization,
)
from ccwkit.errors import InvalidGraph

from oracles import reference_envelope

BUILT = [
    factorize_apex_grid(1, 3),
    factorize_apex_grid(2, 3),
    factorize_apex_grid(2, 4, {(1, 2)}),
    factorize_clique_sum([(2, 2), (2, 3)], [(1, 2)]),
    example3_i(3, 3),
]


@st.composite
def certificates(draw, f, g1):
    """The PEO of f (valid when g1 is f's factor 1), that PEO with two
    entries swapped, any order of g1's vertices, a list of ids that is
    mostly no permutation, or a hole."""
    n, peo = g1.n, list(f.chordal_cert.peo)
    kind = draw(st.sampled_from(["own", "swapped", "permutation", "list", "hole"]))
    if kind == "hole":
        return ChordalCertificate(hole=(0, 1, 2, 3))
    if kind == "swapped":
        i, j = draw(st.integers(0, len(peo) - 1)), draw(st.integers(0, len(peo) - 1))
        peo[i], peo[j] = peo[j], peo[i]
    elif kind == "permutation":
        peo = draw(st.permutations(range(n)))
    elif kind == "list":
        peo = draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    return ChordalCertificate(peo=tuple(peo))


@st.composite
def blocks(draw, f):
    """A block of f's cover, a random vertex set (mostly no clique), an
    empty block, or one holding an id outside [0, n)."""
    n = f.base.n
    kind = draw(st.sampled_from(["cover", "subset", "empty", "outside"]))
    if kind == "cover":
        return draw(st.sampled_from(f.covers[0].cliques))
    if kind == "empty":
        return frozenset()
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    if kind == "outside":
        ids.append(draw(st.sampled_from([-1, n, n + 7])))
    return frozenset(ids)


@st.composite
def unchecked_factorizations(draw):
    f = draw(st.sampled_from(BUILT))
    factors = f.factors
    if draw(st.booleans()):  # a factor 1 of another size, with its own labels
        other = draw(st.sampled_from([h for h in BUILT if h.base.n != f.base.n]))
        factors = (other.factors[0], *factors[1:])
    if draw(st.booleans()):  # a factor 2 that lacks a base edge
        u, v = draw(st.sampled_from(list(f.base.edges())))
        masks = list(factors[1]._adj)
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        factors = (factors[0], Graph.from_masks(masks, f.base.labels), *factors[2:])
    covers = f.covers
    if draw(st.booleans()):
        cover_lists = st.lists(blocks(f), max_size=8).map(lambda b: OrderedCliqueCover(tuple(b)))
        covers = tuple(draw(st.lists(cover_lists, max_size=3)))
    cert = draw(certificates(f, factors[0]))
    return dataclasses.replace(f, factors=factors, covers=covers, chordal_cert=cert)


@settings(deadline=None)
@given(unchecked_factorizations())
def test_same_bytes_as_the_checking_encoder(f):
    assert json.dumps(f.to_json()) == json.dumps(reference_envelope(f))


def ids_in_range(f) -> bool:
    cert = f.chordal_cert
    blocks = chain.from_iterable(c.cliques for c in f.covers)
    ids = [*(cert.peo or ()), *(cert.hole or ()), *chain.from_iterable(blocks)]
    return all(0 <= v < f.base.n for v in ids)


@settings(deadline=None)
@given(unchecked_factorizations())
def test_decodes_to_the_factorization(f):
    obj = json.loads(json.dumps(f.to_json()))
    if ids_in_range(f):
        assert Factorization.from_json(obj) == f
    else:
        with pytest.raises(InvalidGraph, match="certificate and cover entries must be vertex ids"):
            Factorization.from_json(obj)


# each built factorization as certified, and a copy certified as it is written
AS_BUILT = [*BUILT, *map(dataclasses.replace, BUILT)]


@settings(deadline=None)
@given(st.one_of(st.sampled_from(AS_BUILT), unchecked_factorizations()))
def test_a_factor_lists_cliques_iff_the_factorization_verifies(f):
    obj = json.loads(json.dumps(f.to_json()))
    verified = all(ok for _, ok, _ in verify_factorization(f))
    keys = [g.keys() & {"cliques", "includes_cover"} for g in obj["factors"]]
    if verified:
        assert keys == [{"cliques"}] + [{"includes_cover"}] * (len(keys) - 1)
    else:
        assert keys == [set()] * len(keys)
    if ids_in_range(f):
        assert Factorization.from_json(obj) == f


@st.composite
def partitions_of_factor_2(draw):
    """A built factorization, certified or replaced (and so certified again
    by `to_json`), as it is, or with two blocks of its cover merged into
    one at the place of the first: a partition of the vertices whose merged
    block is no clique of factor 2.  (A cover that is no partition fails
    verification whatever its blocks; the property above holds for it.)"""
    f = draw(st.sampled_from(BUILT))
    g2, blocks = f.factors[1], list(f.covers[0].cliques)
    if draw(st.booleans()):
        return draw(st.sampled_from([f, dataclasses.replace(f)]))
    pairs = [(i, j) for i, j in combinations(range(len(blocks)), 2) if not is_clique(g2, blocks[i] | blocks[j])]
    i, j = draw(st.sampled_from(pairs))
    blocks[i] |= blocks.pop(j)
    return dataclasses.replace(f, covers=(OrderedCliqueCover(tuple(blocks)),))


def is_clique(g, block) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(block, 2))


@settings(deadline=None)
@given(partitions_of_factor_2())
def test_factor_2_includes_its_cover_iff_every_block_is_a_clique(f):
    obj = json.loads(json.dumps(f.to_json()))
    g2 = obj["factors"][1]
    whole = all(is_clique(f.factors[1], b) for b in f.covers[0].cliques)
    assert g2.get("includes_cover", False) is whole
    assert whole is all(ok for _, ok, _ in verify_factorization(f))
    # the blocks are written once, in `covers`, never in factor 2's `cliques`
    assert "cliques" not in g2
    assert Factorization.from_json(obj) == f


def complete(n, labels=None):
    return Graph.from_masks([((1 << n) - 1) ^ (1 << v) for v in range(n)], labels)


def test_each_factor_includes_its_own_cover():
    # factor 3, the complete graph, with the one-block cover 2
    f = factorize_apex_grid(2, 4, {(1, 2)})
    n = f.base.n
    g = dataclasses.replace(
        f,
        factors=(*f.factors, complete(n, f.base.labels)),
        covers=(*f.covers, OrderedCliqueCover((frozenset(range(n)),))),
        widths=(*f.widths, 0),
    )
    obj = json.loads(json.dumps(g.to_json()))
    assert json.dumps(obj) == json.dumps(reference_envelope(g))
    assert obj["factors"][1]["includes_cover"] is True
    assert obj["factors"][2] == {"n": n, "edges": [], "includes_cover": True}
    decoded = Factorization.from_json(obj)
    assert decoded == g and all(ok for _, ok, _ in verify_factorization(decoded))


def test_a_factor_of_another_n_lists_its_cliques():
    # every block is a clique of factor 2, but a factor whose n is not the
    # base's fails verification: the factor is written as its edges, and
    # its cliques are listed once, as the blocks of `covers`
    f = factorize_apex_grid(2, 4, {(1, 2)})
    g = dataclasses.replace(f, factors=(f.factors[0], complete(f.base.n + 2)))
    assert all(is_clique(g.factors[1], b) for b in g.covers[0].cliques)
    obj = json.loads(json.dumps(g.to_json()))
    assert json.dumps(obj) == json.dumps(reference_envelope(g))
    g2 = obj["factors"][1]
    assert g2.keys() == {"n", "edges", "labels"} and g2["n"] == f.base.n + 2
    assert len(obj["covers"][0]) == len(f.covers[0].cliques)
    decoded = Factorization.from_json(obj)
    assert decoded == g and decoded.covers == f.covers
