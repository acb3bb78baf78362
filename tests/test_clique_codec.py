"""Graphs written as cliques plus leftover edges: the `cliques` key of
`Graph.from_json`, on graphs the reference encoder writes with candidate
cliques, and factorization envelopes, whose factors are written that way,
each as the base plus its cliques (only envelopes write `cliques` and
`includes_base`), while envelopes of earlier layouts still load and give
the same outputs."""

import dataclasses
import json
import random
import shutil
from pathlib import Path

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
)
from ccwkit.cli import _dump, main
from ccwkit.errors import InvalidGraph

from oracles import reference_graph_json
from test_codec import graphs

DATA = Path(__file__).parent / "data"


def round_trip(obj):
    return json.loads(json.dumps(obj))


@st.composite
def candidates(draw, g):
    """Candidate cliques for g: greedy cliques and their subsets, arbitrary
    vertex sets (mostly not cliques), singletons, empty sets and repeats,
    as lists, sets or frozensets."""
    if g.n == 0:
        return []
    rng = random.Random(draw(st.integers(0, 2**32)))
    out = []
    for _ in range(draw(st.integers(0, 12))):
        kind = rng.randrange(5)
        if kind == 0:  # a clique grown greedily from a random order
            c = []
            for v in rng.sample(range(g.n), g.n):
                if all(g.has_edge(u, v) for u in c):
                    c.append(v)
        elif kind == 1 and out:  # part of, or all of, an earlier candidate
            earlier = list(out[rng.randrange(len(out))])
            c = rng.sample(earlier, rng.randint(0, len(earlier)))
        elif kind == 2:
            c = rng.sample(range(g.n), rng.randint(0, g.n))
        elif kind == 3:
            c = [rng.randrange(g.n)]
        else:  # a vertex listed twice
            v = rng.randrange(g.n)
            c = [v, *rng.sample(range(g.n), rng.randint(0, min(3, g.n))), v]
        out.append(c)
    form = draw(st.sampled_from([list, set, frozenset]))
    return [form(c) for c in out]


class TestGraphRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_decodes_to_the_graph(self, data):
        g = data.draw(graphs(max_n=40))
        obj = reference_graph_json(g, data.draw(candidates(g)))
        assert Graph.from_json(round_trip(obj)) == g

    def test_singleton_and_empty_cliques_add_nothing(self):
        obj = {**Graph.from_edges(3, [(0, 1)]).to_json(), "cliques": [[2], [], [0, 1]]}
        assert Graph.from_json(obj) == Graph.from_edges(3, [(0, 1)])


def labels(n):
    return [{"kind": "plain", "id": v} for v in range(n)]


N = 5


def graph_obj(edges=(), **extra):
    return {"n": N, "edges": [list(e) for e in edges], "labels": labels(N), **extra}


class TestMalformedCliques:
    @pytest.mark.parametrize(
        "cliques, message",
        [
            (5, "'cliques' must be a list of lists"),
            ({"0": [0, 1]}, "'cliques' must be a list of lists"),
            ([[0, 1], 5], "'cliques' must be a list of lists"),
            ([[0, 1], (2, 3)], "'cliques' must be a list of lists"),
            ([[0, True]], "clique members must be integer vertex ids, not booleans"),
            ([[False, 1]], "clique members must be integer vertex ids, not booleans"),
            ([[0, 1.0]], "clique member 1.0 is not an integer vertex id"),
            ([[0, "1"]], "clique member '1' is not an integer vertex id"),
            ([[0, None]], "clique member None is not an integer vertex id"),
            ([[0, [1]]], "clique member [1] is not an integer vertex id"),
            ([[0, N]], f"clique member {N} out of range for n={N}"),
            ([[0, 2 * N - 1]], f"clique member {2 * N - 1} out of range"),
            ([[0, 2 * N]], f"clique member {2 * N} out of range"),
            ([[0, 2**70]], f"clique member {2**70} out of range"),
            ([[0, -1]], "clique member -1 out of range"),
            ([[0, -N]], f"clique member {-N} out of range"),
            ([[0, -N - 1]], f"clique member {-N - 1} out of range"),
            ([[0, -2 * N]], f"clique member {-2 * N} out of range"),
            ([[0, -2 * N - 1]], f"clique member {-2 * N - 1} out of range"),
            ([[N - 1, -N - 1]], f"clique member {-N - 1} out of range"),
            ([[1, 2], [0, 3, 0]], "clique [0, 3, 0] repeats a member"),
            ([[1, 1]], "clique [1, 1] repeats a member"),
        ],
    )
    def test_invalid_graph(self, cliques, message):
        with pytest.raises(InvalidGraph) as info:
            Graph.from_json(graph_obj(cliques=cliques))
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("edge", [[0, N], [0, 1.5], [0, 1, 2], [3, 3]])
    def test_edge_errors_come_first(self, edge):
        with pytest.raises(Exception) as plain:
            Graph.from_json(graph_obj([edge]))
        with pytest.raises(Exception) as both:
            Graph.from_json(graph_obj([edge], cliques=[[0, 0], [True]]))
        assert type(both.value) is type(plain.value) and str(both.value) == str(plain.value)

    @pytest.mark.parametrize("edges", [[[True, 0]], [[0, 1], [2, False]]])
    def test_boolean_endpoints(self, edges):
        with pytest.raises(InvalidGraph, match="edge endpoints must be integer vertex ids, not booleans"):
            Graph.from_json(graph_obj(edges))


def hole_free_and_holed():
    f = factorize_apex_grid(2, 4, {(1, 2)})
    return f, dataclasses.replace(f, chordal_cert=ChordalCertificate(hole=(0, 1, 5, 4)))


class TestEnvelopeRoundTrip:
    def test_factors_are_written_as_their_cliques(self):
        f = factorize_apex_grid(2, 4, {(1, 2)})
        obj = f.to_json()
        g1, g2 = obj["factors"]
        # each factor is its cliques, plus the base where they leave a base
        # edge uncovered, so it lists no edge; factor 1's bags cover every
        # edge it has, so it does not carry `includes_base`
        assert "includes_base" not in g1 and g2["includes_base"] is True
        assert g1["edges"] == g2["edges"] == []
        # the row bands, each id list written as runs (`graph.ids_to_json`):
        # rows r and r + 1 are one range of ids, the apexes 16 and 17 follow
        assert g1["cliques"] == [[[0, 8, 1], 16, 17], [[4, 12, 1], 16, 17], [[8, 18, 1]]]
        # factor 2's cliques are its cover's blocks as they are, written once,
        # in `covers`: the middle column holds both apexes; each column is
        # one run of step n
        cover = f.covers[0].to_json()
        assert cover[1] == [1, 5, 9, 13, 16, 17]
        assert g2 == {"n": 18, "edges": [], "includes_base": True, "includes_cover": True}
        assert obj["covers"] == [[[[0, 16, 4]], [[1, 17, 4], 16, 17], [[2, 18, 4]], [[3, 19, 4]]]]
        assert obj["chordal_cert"] == {"peo": [[15, -1, -1], 17, 16]}
        assert obj["base"] == f.base.to_json()

    def test_hole_certificate(self):
        _, holed = hole_free_and_holed()
        g1 = holed.to_json()["factors"][0]
        # no bags without a PEO: the edges factor 1 adds to the base
        g, base = holed.factors[0], holed.base
        added = [list(e) for e in g.edges() if not base.has_edge(*e)]
        assert g1 == {"n": g.n, "edges": added, "includes_base": True}
        assert Factorization.from_json(round_trip(holed.to_json())) == holed

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_order_as_the_peo(self, data):
        f = factorize_clique_sum([(2, 2), (2, 3)], [(1, 2)])
        n = f.base.n
        order = data.draw(
            st.permutations(range(n))
            | st.lists(st.integers(0, n - 1), max_size=2 * n)
        )
        g = dataclasses.replace(f, chordal_cert=ChordalCertificate(peo=tuple(order)))
        assert Factorization.from_json(round_trip(g.to_json())) == g

    def test_covers_that_do_not_fit_their_factors(self):
        f, _ = hole_free_and_holed()
        blocks = f.covers[0].cliques
        not_a_clique = OrderedCliqueCover(blocks[::-1] + (frozenset({0, 15}),))
        for covers in ([], [f.covers[0]] * 3, [not_a_clique]):
            g = dataclasses.replace(f, covers=tuple(covers))
            assert Factorization.from_json(round_trip(g.to_json())) == g

    def test_factor_1_smaller_than_its_peo(self):
        f, _ = hole_free_and_holed()
        g = dataclasses.replace(f, factors=(Graph.from_edges(3, [(0, 1)]), f.factors[1]))
        assert Factorization.from_json(round_trip(g.to_json())) == g


# `factorize apex-grid --k 1 --n 3` and `factorize clique-sum --parts
# 2:2,2:3 --removed-edges 1-2`, as written before factor 2's cover became one
# line, so a fresh `factorize` writes another cover
EDGE_ONLY = ["legacy-apex-grid-k1-n3.json", "legacy-clique-sum-2x2-2x3.json"]
# `factorize apex-grid --k 2 --n 4` and `factorize clique-sum --parts
# 3:2,3:3 --removed-edges 1-2`, as written before factors included the base:
# factor 2's blocks each widened to a maximal clique, plus the base edges
# they leave uncovered (the apex joins and the grid rows)
WIDENED = ["widened-apex-grid-k2-n4.json", "widened-clique-sum-3x2-3x3.json"]
# `factorize apex-grid --k 2 --n 5 --apex-edges 1-2` and `factorize
# clique-sum --parts 3:2,3:4 --removed-edges 1-3`, as written before the
# certificate, the cover blocks and the cliques were written as id runs,
# when factor 1 still carried `includes_base`
PLAIN_IDS = ["plain-ids-apex-grid-k2-n5.json", "plain-ids-clique-sum-3x2-3x4.json"]
# `factorize apex-grid --k 2 --n 4` and `factorize clique-sum --parts
# 3:2,3:4 --removed-edges 1-3`, as written before factor 2 came to include
# its cover (`includes_cover`): its cover's blocks also listed as its
# `cliques`, id runs as in `covers`
BLOCKS_TWICE = {
    "blocks-twice-apex-grid-k2-n4.json": ["apex-grid", "--k", "2", "--n", "4"],
    "blocks-twice-clique-sum-3x2-3x4.json": [
        "clique-sum", "--parts", "3:2,3:4", "--removed-edges", "1-3",
    ],
}


def outputs(envelope, work, capsys):
    """verify's stdout and the files separate (with --csv) and audit write."""
    work.mkdir()
    assert main(["verify", str(envelope)]) == 0
    verdict = capsys.readouterr().out
    sep, rows, aud = work / "sep.json", work / "rows.csv", work / "audit.json"
    assert main(["separate", str(envelope), "--out", str(sep), "--csv", str(rows)]) == 0
    assert main(["audit", str(envelope), "--out", str(aud)]) == 0
    return verdict, sep.read_bytes(), rows.read_bytes(), aud.read_bytes()


class TestLegacyEnvelopes:
    """tests/data holds envelopes as `factorize` wrote them before factors
    were written as cliques (`EDGE_ONLY`), before they included the base
    (`WIDENED`), before id lists were written as runs (`PLAIN_IDS`), and
    before factor 2 included its cover (`BLOCKS_TWICE`)."""

    @pytest.mark.parametrize("name", EDGE_ONLY + WIDENED)
    def test_same_outputs_as_the_clique_encoded_envelope(self, tmp_path, capsys, name):
        legacy = tmp_path / name
        shutil.copy(DATA / name, legacy)
        obj = json.loads(legacy.read_text())
        assert not any("includes_base" in g for g in obj["factors"])
        if name in EDGE_ONLY:
            assert all("cliques" not in g for g in obj["factors"])
        # the same factorization re-encoded: each factor the base plus its
        # cliques, with no edge left
        new = tmp_path / "new.json"
        _dump({**Factorization.from_json(obj).to_json(), "meta": obj["meta"]}, str(new))
        g1, g2 = json.loads(new.read_text())["factors"]
        # factor 1's bags cover every edge it has, so only factor 2 carries
        # `includes_base`; factor 2's cliques are its cover's blocks
        assert "includes_base" not in g1 and g2["includes_base"] is True
        assert g1["cliques"] and g2["includes_cover"] is True and "cliques" not in g2
        assert g1["edges"] == g2["edges"] == []
        assert new.stat().st_size < legacy.stat().st_size

        decoded = [Factorization.from_json(json.loads(p.read_text())) for p in (legacy, new)]
        assert decoded[0] == decoded[1]
        assert outputs(legacy, tmp_path / "legacy", capsys) == outputs(new, tmp_path / "new", capsys)

    @pytest.mark.parametrize("name", PLAIN_IDS)
    def test_plain_id_lists_give_the_same_outputs(self, tmp_path, capsys, name):
        legacy = tmp_path / name
        shutil.copy(DATA / name, legacy)
        obj = json.loads(legacy.read_text())
        cliques = [c for g in obj["factors"] for c in g["cliques"]]
        lists = [obj["chordal_cert"]["peo"], *sum(obj["covers"], []), *cliques]
        assert all(type(v) is int for ids in lists for v in ids)
        assert all(g["includes_base"] is True for g in obj["factors"])
        # the same factorization re-encoded, its id lists as runs
        new = tmp_path / "new.json"
        _dump({**Factorization.from_json(obj).to_json(), "meta": obj["meta"]}, str(new))
        assert "includes_base" not in json.loads(new.read_text())["factors"][0]
        assert new.stat().st_size < legacy.stat().st_size

        decoded = [Factorization.from_json(json.loads(p.read_text())) for p in (legacy, new)]
        assert decoded[0] == decoded[1]
        assert outputs(legacy, tmp_path / "legacy", capsys) == outputs(new, tmp_path / "new", capsys)


    @pytest.mark.parametrize("name", BLOCKS_TWICE)
    def test_blocks_listed_twice_give_the_same_outputs(self, tmp_path, capsys, name):
        legacy = tmp_path / name
        shutil.copy(DATA / name, legacy)
        obj = json.loads(legacy.read_text())
        g2 = obj["factors"][1]
        assert "includes_cover" not in g2 and g2["cliques"] == obj["covers"][0]
        # the same factorization as `factorize` writes it now: factor 2
        # includes its cover, and lists no clique
        new = tmp_path / "new.json"
        assert main(["factorize", *BLOCKS_TWICE[name], "--out", str(new)]) == 0
        g2 = json.loads(new.read_text())["factors"][1]
        assert g2["includes_cover"] is True and "cliques" not in g2
        assert new.stat().st_size < legacy.stat().st_size
        # and as this layout re-encodes it, byte for byte
        again = tmp_path / "again.json"
        _dump({**Factorization.from_json(obj).to_json(), "meta": obj["meta"]}, str(again))
        assert again.read_bytes() == new.read_bytes()

        decoded = [Factorization.from_json(json.loads(p.read_text())) for p in (legacy, new)]
        assert decoded[0] == decoded[1]
        assert outputs(legacy, tmp_path / "legacy", capsys) == outputs(new, tmp_path / "new", capsys)


class TestMalformedCliquesInTheCli:
    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("env") / "f.json"
        assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
        obj = json.loads(f.read_text())
        # so the cliques given to factor 2 meet its cover's blocks
        assert obj["factors"][1]["includes_cover"] is True
        return obj

    @pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
    @pytest.mark.parametrize(
        "factor, cliques, message",
        [
            (0, 5, "'cliques' must be a list of lists of vertex ids"),
            (1, [[0, 3], 6], "'cliques' must be a list of lists of vertex ids"),
            (0, [[0, 1, True]], "clique members must be integer vertex ids, not booleans"),
            (1, [["0", 3]], "clique member '0' is not an integer vertex id"),
            (0, [[0, 10]], "clique member 10 out of range for n=10"),
            (1, [[0, 2**70]], f"clique member {2**70} out of range for n=10"),
            (0, [[0, -21]], "clique member -21 out of range for n=10"),
            (1, [[0, 3, 6, 3]], "clique [0, 3, 6, 3] repeats a member"),
        ],
        ids=["not-a-list", "not-lists", "boolean", "string", "out-of-range", "huge",
             "negative", "repeated"],
    )
    def test_exits_2(self, tmp_path, capsys, envelope, cmd, factor, cliques, message):
        factors = [dict(g) for g in envelope["factors"]]
        factors[factor]["cliques"] = cliques
        f = tmp_path / "f.json"
        f.write_text(json.dumps({**envelope, "factors": factors}))
        out, rows = tmp_path / "out.json", tmp_path / "rows.csv"
        argv = {
            "verify": ["verify", str(f)],
            "separate": ["separate", str(f), "--out", str(out), "--csv", str(rows)],
            "audit": ["audit", str(f), "--out", str(out)],
        }[cmd]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not rows.exists()

    def test_boolean_edge_in_a_graph_file(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 2, "edges": [[True, False]], "labels": labels(2)}))
        assert main(["ccw", str(g)]) == 2
        assert "not booleans" in capsys.readouterr().err
