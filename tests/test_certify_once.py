"""`separate` and `audit_lower_bound` work from the envelope's PEO once
check_factorization has verified it, and reject an envelope whose
certificate does not verify."""

import dataclasses

import pytest

import ccwkit.chordal
from ccwkit import (
    ChordalCertificate,
    audit_lower_bound,
    connected_components,
    factorize_apex_grid,
    is_clique,
    separate,
    verify_peo,
)
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


def test_peo_verified_once_and_never_recomputed(f, monkeypatch):
    calls = []
    real_verify = ccwkit.chordal.verify_peo

    def counting_verify(g, order):
        calls.append(order)
        return real_verify(g, order)

    def no_search(g):
        raise AssertionError("the stored PEO should be reused")

    monkeypatch.setattr(ccwkit.chordal, "verify_peo", counting_verify)
    monkeypatch.setattr(ccwkit.chordal, "lex_bfs", no_search)
    separate(f)
    audit_lower_bound(f)
    assert calls == [f.chordal_cert.peo, f.chordal_cert.peo]
