"""`separate` and `audit_lower_bound` work from the elimination of the
envelope's PEO that check_factorization has just run and verified, and
reject an envelope whose certificate does not verify; each command, and
`clique_tree` and `maximal_cliques_chordal`, eliminates once."""

import dataclasses
import json

import pytest

import ccwkit.chordal
import ccwkit.constructions
import ccwkit.separator
from ccwkit import (
    ChordalCertificate,
    audit_lower_bound,
    clique_tree,
    connected_components,
    factorize_apex_grid,
    factorize_clique_sum,
    is_clique,
    maximal_cliques_chordal,
    separate,
    verify_peo,
)
from ccwkit.cli import main
from ccwkit.errors import InvalidFactorization


@pytest.fixture(scope="module")
def f():
    return factorize_apex_grid(2, 6)


def with_cert(f, **cert):
    return dataclasses.replace(f, chordal_cert=ChordalCertificate(**cert))


def test_another_valid_peo(f):
    identity = tuple(range(f.base.n))
    assert identity != f.chordal_cert.peo
    assert verify_peo(f.factors[0], identity) is None
    g = with_cert(f, peo=identity)

    r = separate(g)
    n = f.base.n
    assert r.side_a | r.side_b | r.separator == set(range(n))
    assert not (r.side_a & r.side_b or (r.side_a | r.side_b) & r.separator)
    assert is_clique(f.factors[0], r.separator)
    for comp in connected_components(f.base, within=r.side_a | r.side_b):
        assert comp <= r.side_a or comp <= r.side_b
    assert max(r.mu_a, r.mu_b) <= 2 * n / 3
    covered = set()
    for c in r.separator_cliques:
        assert is_clique(f.base, c) and not covered & c
        covered |= c
    assert covered == r.separator

    assert audit_lower_bound(g) == audit_lower_bound(f)


@pytest.mark.parametrize(
    "cert",
    [{"peo": tuple(reversed(range(38)))}, {"hole": (0, 1, 7, 6)}],
    ids=["not-a-peo", "hole"],
)
def test_bad_certificate_rejected(f, cert):
    bad = with_cert(f, **cert)
    if "peo" in cert:
        assert verify_peo(f.factors[0], cert["peo"]) is not None
    with pytest.raises(InvalidFactorization):
        separate(bad)
    with pytest.raises(InvalidFactorization):
        audit_lower_bound(bad)


def count_eliminations(monkeypatch):
    """Record each `_elimination` call as (graph, order), wherever a ccwkit
    module holds the function."""
    calls = []
    real = ccwkit.chordal._elimination

    def counted(g, order):
        calls.append((g, order))
        return real(g, order)

    for module in (ccwkit.chordal, ccwkit.constructions, ccwkit.separator):
        if getattr(module, "_elimination", None) is real:
            monkeypatch.setattr(module, "_elimination", counted)
    return calls


def test_peo_verified_once_and_never_recomputed(f, monkeypatch):
    calls = count_eliminations(monkeypatch)

    def no_search(g):
        raise AssertionError("the stored PEO should be reused")

    monkeypatch.setattr(ccwkit.chordal, "lex_bfs", no_search)
    for command in (separate, audit_lower_bound):
        calls.clear()
        command(f)
        # the one elimination is the PEO check's; the forest and the grid
        # clique are built on it
        assert calls == [(f.factors[0], f.chordal_cert.peo)]


ENVELOPES = {
    "apex-grid": lambda: factorize_apex_grid(2, 6),
    "clique-sum": lambda: factorize_clique_sum([(2, 3), (2, 4), (2, 3)], [(1, 2)]),
}


@pytest.mark.parametrize("build", ENVELOPES.values(), ids=ENVELOPES.keys())
@pytest.mark.parametrize("command", ["verify", "separate", "audit"])
def test_one_elimination_per_command(build, command, tmp_path, monkeypatch):
    f = build()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    calls = count_eliminations(monkeypatch)
    argv = [command, str(path)] + ([] if command == "verify" else ["--out", str(tmp_path / "o")])
    assert main(argv) == 0
    assert calls == [(f.factors[0], f.chordal_cert.peo)]


def test_clique_tree_and_maximal_cliques_eliminate_once(f, monkeypatch):
    g, peo = f.factors[0], f.chordal_cert.peo
    calls = count_eliminations(monkeypatch)
    tree = clique_tree(g, peo)
    cliques = maximal_cliques_chordal(g, peo)
    assert calls == [(g, peo), (g, peo)]
    assert set(tree.bags) == set(cliques)
