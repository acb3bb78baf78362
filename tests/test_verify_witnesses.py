"""`verify` FAIL lines name a concrete witness: the first edge on which the
factors' intersection and the base differ, and which side lacks it; the
vertex at which the stored PEO fails, with its two non-adjacent later
neighbours; the first edge that attains a cover's recomputed width, with the
blocks it spans; the first factor whose n or labels differ from the base's,
and where; the numbers of factors, covers and widths; the declared lstar
and the largest width.  PASS lines are unchanged."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwkit import (
    ChordalCertificate,
    Factorization,
    Graph,
    OrderedCliqueCover,
    factorize_apex_grid,
    factorize_clique_sum,
    verify_factorization,
)
from ccwkit.cli import main
from ccwkit.graph import label_to_json

from oracles import brute_cover_width, brute_intersection_witness, brute_peo_witness

FACTORIZATIONS = [
    factorize_apex_grid(1, 3),
    factorize_apex_grid(2, 4, {(1, 2)}),
    factorize_clique_sum([(2, 2), (2, 3)], [(1, 2)]),
]


def detail_of(f, name):
    return next(detail for check, _, detail in verify_factorization(f) if check == name)


def toggled(g: Graph, u: int, v: int) -> Graph:
    edges = set(g.edges()) ^ {(min(u, v), max(u, v))}
    return Graph.from_edges(g.n, sorted(edges), g.labels)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_intersection_witness(data):
    f = data.draw(st.sampled_from(FACTORIZATIONS))
    graphs = [f.base, *f.factors]
    # toggle a few vertex pairs, each in the base or in one factor
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(graphs) - 1))
        u, v = data.draw(st.lists(st.integers(0, f.base.n - 1), min_size=2,
                                  max_size=2, unique=True))
        graphs[i] = toggled(graphs[i], u, v)
    f = dataclasses.replace(f, base=graphs[0], factors=tuple(graphs[1:]))

    witness = brute_intersection_witness(f.factors, f.base)
    if witness is None:
        assert detail_of(f, "intersection") == "intersection of factors edge-equals base"
    else:
        u, v, where = witness
        where = "base" if where == "base" else f"factor {where}"
        assert detail_of(f, "intersection") == (
            f"first differing edge ({u},{v}) is not in {where}"
        )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_peo_witness(data):
    f = data.draw(st.sampled_from(FACTORIZATIONS))
    order = data.draw(st.permutations(range(f.base.n)))
    f = dataclasses.replace(f, chordal_cert=ChordalCertificate(peo=tuple(order)))
    witness = brute_peo_witness(f.factors[0], order)
    if witness is None:
        assert detail_of(f, "chordal_certificate") == "factor 1 PEO verifies"
    else:
        v, p, w = witness
        assert detail_of(f, "chordal_certificate") == (
            f"PEO fails at vertex {v}: its later neighbours {p} and {w} are not adjacent"
        )


@pytest.mark.parametrize(
    "cert, detail",
    [
        ({"peo": (0, 0, *range(2, 10))}, "ordering is not a permutation of V(g)"),
        ({"peo": tuple(range(9))}, "ordering is not a permutation of V(g)"),
        ({"hole": (0, 1, 4, 3)}, "a hole certificate, not a PEO"),
    ],
    ids=["repeated-vertex", "missing-vertex", "hole"],
)
def test_certificate_that_is_no_peo(cert, detail):
    f = dataclasses.replace(FACTORIZATIONS[0], chordal_cert=ChordalCertificate(**cert))
    assert detail_of(f, "chordal_certificate") == detail


def test_verify_prints_the_witnesses(tmp_path, capsys):
    src = tmp_path / "f.json"
    assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(src)]) == 0
    obj = json.loads(src.read_text())
    # drop base edge (0,1) from factor 2, written as its edge list since the
    # edge lies in one of its cliques, and let the PEO start at the centre
    # cell 4, whose later neighbours include rows 0 and 2: first 0, then 6
    g2 = Factorization.from_json(obj).factors[1]
    obj["factors"][1] = {"n": g2.n, "edges": [[u, v] for u, v in g2.edges() if (u, v) != (0, 1)]}
    obj["chordal_cert"]["peo"] = [4, 0, 1, 2, 3, 5, 6, 7, 8, 9]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[:3] == [
        "PASS vertex_sets: factors share the base vertex set",
        "FAIL intersection: first differing edge (0,1) is not in factor 2",
        "FAIL chordal_certificate: PEO fails at vertex 4: "
        "its later neighbours 0 and 6 are not adjacent",
    ]
    assert err == "verification failed: intersection\n"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_width_witness(data):
    f = data.draw(st.sampled_from(FACTORIZATIONS))
    blocks = data.draw(st.permutations(f.covers[0].cliques))
    f = dataclasses.replace(f, covers=(OrderedCliqueCover(tuple(blocks)),))
    width, witness = brute_cover_width(f.factors[1], blocks)
    detail = f"recomputed width {width}, declared {f.widths[0]}"
    if width != f.widths[0]:
        x, y, bx, by = witness
        detail += f": edge ({x},{y}) spans blocks {bx} and {by}"
    assert detail_of(f, "cover_width[1]") == detail


def test_verify_prints_the_width_witness(tmp_path, capsys):
    src = tmp_path / "f.json"
    assert main(["factorize", "apex-grid", "--k", "1", "--n", "5", "--out", str(src)]) == 0
    obj = json.loads(src.read_text())
    # the split-block tamper of acceptance criterion 7: the largest block's
    # second half moves to the end of the cover
    cover = obj["covers"][0]
    blk = max(cover, key=len)
    i = cover.index(blk)
    cover[i] = blk[: len(blk) // 2]
    cover.append(blk[len(blk) // 2 :])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "PASS vertex_sets: factors share the base vertex set",
        "PASS intersection: intersection of factors edge-equals base",
        "PASS chordal_certificate: factor 1 PEO verifies",
        "PASS cover_validity[1]: cover verifies",
        "FAIL cover_width[1]: recomputed width 5, declared 2: edge (0,25) spans blocks 0 and 5",
        "PASS lstar: lstar must equal max width",
    ]
    assert err == "verification failed: cover_width[1]\n"


def verify_lines(tmp_path, capsys, edit):
    """verify's exit code and stdout lines on the `factorize apex-grid --k 1
    --n 3` envelope after `edit(obj)`."""
    src = tmp_path / "f.json"
    assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(src)]) == 0
    obj = json.loads(src.read_text())
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = main(["verify", str(bad)])
    return code, capsys.readouterr().out.splitlines()


def per_label(obj):
    """The base's labels, one dict per label."""
    return [label_to_json(lbl) for lbl in Factorization.from_json(obj).base.labels]


def relabel_factor_2(obj):
    # factor 2 carries its own labels, with the centre cell's row moved
    labels = per_label(obj)
    labels[4]["row"] = 5
    obj["factors"][1]["labels"] = labels


def shrink_factor_1(obj):
    obj["factors"][0] = {"n": 3, "edges": [[0, 1]], "labels": per_label(obj)[:3]}


@pytest.mark.parametrize(
    "edit, lines",
    [
        (relabel_factor_2, [
            "FAIL vertex_sets: factor 2 labels vertex 4 GridCell(part=0, row=5, col=2), "
            "the base GridCell(part=0, row=2, col=2)",
        ]),
        (shrink_factor_1, ["FAIL vertex_sets: factor 1 has n=3, the base n=10"]),
        (lambda obj: obj.update(covers=[]), [
            "PASS vertex_sets: factors share the base vertex set",
            "PASS intersection: intersection of factors edge-equals base",
            "PASS chordal_certificate: factor 1 PEO verifies",
            "FAIL cover_count: 2 factors, 0 covers and 1 widths: "
            "need one cover/width per factor >= 2",
        ]),
        (lambda obj: obj.update(lstar=7), [
            "PASS vertex_sets: factors share the base vertex set",
            "PASS intersection: intersection of factors edge-equals base",
            "PASS chordal_certificate: factor 1 PEO verifies",
            "PASS cover_validity[1]: cover verifies",
            "PASS cover_width[1]: recomputed width 1, declared 1",
            "FAIL lstar: declared lstar 7, max width 1",
        ]),
    ],
    ids=["vertex_sets-label", "vertex_sets-n", "cover_count", "lstar"],
)
def test_verify_names_the_count_and_label_witnesses(tmp_path, capsys, edit, lines):
    assert verify_lines(tmp_path, capsys, edit) == (1, lines)


def test_vertex_set_witness_in_the_library():
    f = FACTORIZATIONS[0]
    g = dataclasses.replace(f, factors=(f.factors[0], Graph.from_edges(3, [(0, 1)])))
    assert detail_of(g, "vertex_sets") == "factor 2 has n=3, the base n=10"
    labels = list(f.base.labels)
    labels[0], labels[9] = labels[9], labels[0]
    g = dataclasses.replace(f, factors=(Graph.from_masks(f.factors[0]._adj, labels), f.factors[1]))
    assert detail_of(g, "vertex_sets") == (
        "factor 1 labels vertex 0 Apex(part=0, index=1), the base GridCell(part=0, row=1, col=1)"
    )
    assert detail_of(f, "vertex_sets") == "factors share the base vertex set"


def one_factor_envelope(tmp_path, lstar):
    """An envelope whose only factor is its base, a chordal path: no covers,
    no widths, and the given lstar."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    f = Factorization(base=g, factors=(g,), chordal_cert=ChordalCertificate(peo=(0, 1, 2)),
                      covers=(), widths=(), lstar=lstar)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(f.to_json()))
    return path


@pytest.mark.parametrize(
    "lstar, code, last",
    [(99, 1, "FAIL lstar: declared lstar 99, max width 0"),
     (0, 0, "PASS lstar: lstar must equal max width")],
    ids=["false", "zero"],
)
def test_lstar_of_an_envelope_without_covers(tmp_path, capsys, lstar, code, last):
    assert main(["verify", str(one_factor_envelope(tmp_path, lstar))]) == code
    assert capsys.readouterr().out.splitlines() == [
        "PASS vertex_sets: factors share the base vertex set",
        "PASS intersection: intersection of factors edge-equals base",
        "PASS chordal_certificate: factor 1 PEO verifies",
        last,
    ]


def test_separate_refuses_a_false_lstar_without_covers(tmp_path, capsys):
    src = one_factor_envelope(tmp_path, 99)
    out, rows = tmp_path / "sep.json", tmp_path / "rows.csv"
    assert main(["separate", str(src), "--out", str(out), "--csv", str(rows)]) == 1
    assert capsys.readouterr().err == "error: lstar: declared lstar 99, max width 0\n"
    assert not out.exists() and not rows.exists()
