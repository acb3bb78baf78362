"""Each factorizing construction builds its parts once and certifies the
result once, through the checker `verify` uses: no search for a PEO (the
construction states factor 1's), one PEO check on one elimination, no
separate chordality test and one cover check per cover per construction,
one cover check per cover in `verify_factorization`.
A cover check is `_block_masks`, the body of `verify_cover`, which
`cover_width` calls to build the block masks it measures."""

import pytest

import ccwkit
import ccwkit.chordal
import ccwkit.cliquecover
import ccwkit.constructions
import ccwkit.separator
from ccwkit import (
    Apex,
    example3_i,
    example3_ii,
    factorize_apex_grid,
    factorize_clique_sum,
    verify_factorization,
)
from ccwkit.errors import InvalidFactorization

MODULES = (ccwkit, ccwkit.chordal, ccwkit.cliquecover, ccwkit.constructions, ccwkit.separator)


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` wherever a ccwkit module holds it; returns the list
    the wrapper appends each call's arguments to."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in MODULES:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


CONSTRUCTIONS = {
    "apex-grid": lambda: factorize_apex_grid(2, 6),
    "clique-sum": lambda: factorize_clique_sum([(2, 3), (2, 4), (2, 3)], [(1, 2)]),
}


EVERY_CONSTRUCTION = {
    **CONSTRUCTIONS,
    "example3-i": lambda: example3_i(3, 4),
    "example3-ii": lambda: example3_ii(3, 2),
}


def stated_peo(f):
    """Factor 1's stated PEO: the vertices that are not apexes in descending
    id order, then the apexes in descending id order."""
    labels = f.base.labels
    return tuple(sorted(reversed(range(f.base.n)), key=lambda v: isinstance(labels[v], Apex)))


@pytest.mark.parametrize("build", EVERY_CONSTRUCTION.values(), ids=EVERY_CONSTRUCTION.keys())
def test_no_search_and_one_peo_check_per_construction(monkeypatch, build):
    lex = count_calls(monkeypatch, ccwkit.chordal, "lex_bfs")
    peo = count_calls(monkeypatch, ccwkit.chordal, "_peo_check")
    elim = count_calls(monkeypatch, ccwkit.chordal, "_elimination")
    chordal = count_calls(monkeypatch, ccwkit.chordal, "is_chordal")
    f = build()
    assert lex == [] and chordal == []
    assert f.chordal_cert.peo == stated_peo(f)
    assert [order for _, order in peo] == [f.chordal_cert.peo]
    assert elim == [(f.factors[0], f.chordal_cert.peo)]


def test_stated_peo_puts_the_apexes_last():
    # cells 0-3, apexes 4-5; a clique sum's later part follows the apexes
    assert factorize_apex_grid(2, 2).chordal_cert.peo == (3, 2, 1, 0, 5, 4)
    sum_peo = (9, 8, 7, 6, 3, 2, 1, 0, 5, 4)
    assert factorize_clique_sum([(2, 2), (2, 2)]).chordal_cert.peo == sum_peo
    assert example3_i(2, 2).chordal_cert.peo == (3, 2, 1, 0)


@pytest.mark.parametrize("build", EVERY_CONSTRUCTION.values(), ids=EVERY_CONSTRUCTION.keys())
def test_construction_checks_each_cover_once(monkeypatch, build):
    calls = count_calls(monkeypatch, ccwkit.cliquecover, "_block_masks")
    f = build()
    assert [cover for _, cover in calls] == list(f.covers)


@pytest.mark.parametrize("build", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
def test_verify_checks_each_cover_once(monkeypatch, build):
    f = build()
    calls = count_calls(monkeypatch, ccwkit.cliquecover, "_block_masks")
    assert all(ok for _, ok, _ in verify_factorization(f))
    assert [cover for _, cover in calls] == list(f.covers)


@pytest.mark.parametrize("build", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
def test_non_chordal_factor_one_is_rejected(monkeypatch, build):
    real = ccwkit.constructions._apex_grid_factors

    def base_as_factor_one(*args):
        # the base holds the grid's 4-cycles, and base ∩ factor 2 is still the base
        base, (_, g2), covers = real(*args)
        return base, [base, g2], covers

    monkeypatch.setattr(ccwkit.constructions, "_apex_grid_factors", base_as_factor_one)
    with pytest.raises(InvalidFactorization, match="^chordal_certificate: "):
        build()
