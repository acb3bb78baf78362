"""A factorization that `_make_factorization` certified is written by
`Factorization.to_json` from that check: the bags of its verified
elimination, the cover's checked block masks, and factor 1 as the base plus
its bags, no edge tested.  These tests hold that envelope to
`oracles.reference_envelope`, which checks every candidate clique and every
base edge pair by pair, on every construction and on drawn apex grids and
clique sums.  Any other factorization, one made by `dataclasses.replace`
included, is encoded by the checking path, one `_elimination` inside
`to_json`, so a certificate cannot outlive the fields it was checked on.
Last, `Graph._from_json` tests for booleans only the edges with an endpoint
below 2; a boolean in a later edge still exits 2 with the same message."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccwkit.chordal
import ccwkit.cliquecover
from ccwkit import (
    Apex,
    ChordalCertificate,
    Graph,
    ccw_upper_greedy,
    factorize_apex_grid,
    factorize_clique_sum,
    verify_peo,
)
from ccwkit.cli import main
from ccwkit.errors import InvalidGraph, VertexOutOfRange

from oracles import reference_envelope
from test_build_once import EVERY_CONSTRUCTION


def counted(monkeypatch, owner, name):
    """Wrap `owner.name` so each call's arguments are appended to the list
    returned."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def same_bytes(f):
    return json.dumps(f.to_json()) == json.dumps(reference_envelope(f))


@pytest.mark.parametrize("build", EVERY_CONSTRUCTION.values(), ids=EVERY_CONSTRUCTION.keys())
def test_every_construction_writes_the_reference_bytes(build):
    f = build()
    assert f._checked is not None
    assert same_bytes(f)


@pytest.mark.parametrize("build", EVERY_CONSTRUCTION.values(), ids=EVERY_CONSTRUCTION.keys())
def test_certified_encoding_checks_nothing_again(build, monkeypatch):
    f = build()
    eliminations = counted(monkeypatch, ccwkit.chordal, "_elimination")
    covers = counted(monkeypatch, ccwkit.cliquecover, "_block_masks")
    blocks = counted(monkeypatch, Graph, "_subset_mask")
    f.to_json()
    assert eliminations == [] and covers == [] and blocks == []


def test_the_check_is_not_part_of_the_value():
    f = factorize_apex_grid(2, 4, {(1, 2)})
    g = dataclasses.replace(f)
    assert f._checked is not None and g._checked is None
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert "_checked" not in repr(f)


@st.composite
def certified(draw):
    """An apex grid, k = 0..4 and n = 2..9, with any apex edge set, or a
    clique sum of 1-3 apex grids, k = 1..4, with random removed edges."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 4))
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        apex_edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return factorize_apex_grid(k, draw(st.integers(2, 9)), apex_edges)
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    removed = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return factorize_clique_sum([(k, n) for n in sizes], removed)


@settings(deadline=None)
@given(certified())
def test_drawn_certified_envelope_is_the_reference(f):
    assert f._checked is not None
    assert same_bytes(f)


def ascending_peo(f):
    """Another PEO of factor 1: the vertices that are not apexes in
    ascending id order, then the apexes in ascending id order."""
    labels = f.base.labels
    return tuple(sorted(range(f.base.n), key=lambda v: isinstance(labels[v], Apex)))


REPLACED = {
    "as-is": lambda f: dataclasses.replace(f),
    "another-peo": lambda f: dataclasses.replace(
        f, chordal_cert=ChordalCertificate(peo=ascending_peo(f))
    ),
    "another-cover": lambda f: dataclasses.replace(f, covers=(ccw_upper_greedy(f.factors[1])[1],)),
}


@pytest.mark.parametrize("build", EVERY_CONSTRUCTION.values(), ids=EVERY_CONSTRUCTION.keys())
@pytest.mark.parametrize("replace", REPLACED.values(), ids=REPLACED.keys())
def test_replaced_factorization_is_checked_again(build, replace, monkeypatch):
    f = build()
    g = replace(f)
    assert g._checked is None
    if g.chordal_cert != f.chordal_cert:
        assert verify_peo(g.factors[0], g.chordal_cert.peo) is None
    eliminations = counted(monkeypatch, ccwkit.chordal, "_elimination")
    obj = g.to_json()
    assert eliminations == [(g.factors[0], g.chordal_cert.peo)]
    assert json.dumps(obj) == json.dumps(reference_envelope(g))


BOOLEAN = "edge endpoints must be integer vertex ids, not booleans"


def graph_file(tmp_path, edges, n=8):
    path = tmp_path / "g.json"
    labels = [{"kind": "plain", "id": v} for v in range(n)]
    path.write_text(json.dumps({"n": n, "edges": edges, "labels": labels}))
    return path


@pytest.mark.parametrize("edges", [[[3, 4], [5, True]], [[2, 3], [False, 7]]])
def test_boolean_in_a_later_edge_exits_2(tmp_path, capsys, edges):
    assert main(["ccw", str(graph_file(tmp_path, edges))]) == 2
    assert capsys.readouterr().err == f"error: {BOOLEAN}\n"
    with pytest.raises(InvalidGraph, match=BOOLEAN):
        Graph.from_json(json.loads(graph_file(tmp_path, edges).read_text()))


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ([[5, True], [0, 9]], VertexOutOfRange, "edge (0,9) out of range for n=8"),
        ([[False, 3], [6, 6]], InvalidGraph, "self-loop at vertex 6"),
        ([[1, True]], InvalidGraph, "self-loop at vertex 1"),
    ],
    ids=["range", "self-loop", "boolean-self-loop"],
)
def test_edge_errors_before_booleans(tmp_path, edges, error, message):
    with pytest.raises(error) as info:
        Graph.from_json(json.loads(graph_file(tmp_path, edges).read_text()))
    assert type(info.value) is error and str(info.value) == message
