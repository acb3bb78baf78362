"""An envelope writes the vertex labels once, in the base.  A factor that
shares them is written without `labels` and decodes onto the base's label
tuple; a factor with labels of its own keeps them, and an envelope with a
copy in every factor, as earlier releases wrote it, decodes to the same
factorization (see also `test_clique_codec.TestLegacyEnvelopes`)."""

import dataclasses
import json

import pytest

from ccwkit import Factorization, Graph, factorize_apex_grid, factorize_clique_sum
from ccwkit.cli import main

from test_grid_builder import GOLDEN

FAMILIES = [*GOLDEN, ("example3i", "--n", "3", "--k", "2")]


def factorized(tmp_path, argv):
    out = tmp_path / "f.json"
    assert main(["factorize", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def with_copies(obj):
    """The envelope with the base's labels copied into every factor."""
    return {**obj, "factors": [{**g, "labels": obj["base"]["labels"]} for g in obj["factors"]]}


@pytest.mark.parametrize("argv", FAMILIES, ids=" ".join)
def test_factors_are_written_without_labels(tmp_path, argv):
    obj = factorized(tmp_path, argv)
    assert "labels" in obj["base"] and not any("labels" in g for g in obj["factors"])
    f = Factorization.from_json(obj)
    assert all(g.labels is f.base.labels for g in f.factors)
    copied = Factorization.from_json(with_copies(obj))
    assert copied == f and all(g.labels is not f.base.labels for g in copied.factors)


def test_built_factors_share_the_base_labels():
    for f in [
        factorize_apex_grid(2, 4, {(1, 2)}),
        factorize_clique_sum([(2, 2), (2, 3)], [(1, 2)]),
    ]:
        assert all(g.labels is f.base.labels for g in f.factors)


def test_a_factor_with_other_labels_keeps_them():
    f = factorize_apex_grid(2, 4, {(1, 2)})
    smaller = Graph.from_edges(3, [(0, 1)])
    relabeled = Graph.from_masks(f.factors[1]._adj, f.base.labels[::-1])
    for factors, own in [
        ((smaller, f.factors[1]), [True, False]),
        ((f.factors[0], relabeled), [False, True]),
    ]:
        g = dataclasses.replace(f, factors=factors)
        obj = json.loads(json.dumps(g.to_json()))
        assert ["labels" in h for h in obj["factors"]] == own
        assert Factorization.from_json(obj) == g


def commands(tmp_path):
    f, out, rows = tmp_path / "f.json", tmp_path / "out.json", tmp_path / "rows.csv"
    return [
        ["verify", str(f)],
        ["separate", str(f), "--out", str(out), "--csv", str(rows)],
        ["audit", str(f), "--out", str(out)],
    ]


@pytest.mark.parametrize(
    "factor, message",
    [
        (5, "a graph needs keys 'n', 'edges' and 'labels'"),
        ("x", "a graph needs keys 'n', 'edges' and 'labels'"),
        ([], "a graph needs keys 'n', 'edges' and 'labels'"),
        (None, "a graph needs keys 'n', 'edges' and 'labels'"),
        ({"edges": []}, "factor 2 has no labels, so its n must be the base's 10, not None"),
        ({"n": 9, "edges": []}, "factor 2 has no labels, so its n must be the base's 10, not 9"),
        ({"n": 10.0, "edges": []},
         "factor 2 has no labels, so its n must be the base's 10, not 10.0"),
        ({"n": "10", "edges": []},
         "factor 2 has no labels, so its n must be the base's 10, not '10'"),
        ({"n": True, "edges": []},
         "factor 2 has no labels, so its n must be the base's 10, not True"),
        ({"n": 10}, "a graph needs keys 'n' and 'edges'"),
        ({"n": 10, "edges": [[0, 10]]}, "edge (0,10) out of range for n=10"),
        ({"n": 10, "edges": [], "includes_base": False},
         "factor 2: 'includes_base' must be true, not False"),
        ({"n": 10, "edges": [], "includes_base": 1},
         "factor 2: 'includes_base' must be true, not 1"),
        ({"n": 10, "edges": [], "includes_base": "yes"},
         "factor 2: 'includes_base' must be true, not 'yes'"),
        ({"n": 10, "edges": [], "includes_base": None},
         "factor 2: 'includes_base' must be true, not None"),
        ({"n": 9, "edges": [], "labels": [{"kind": "plain", "id": v} for v in range(9)],
          "includes_base": True},
         "factor 2 includes the base, so its n must be the base's 10, not 9"),
        ({"n": 10, "edges": [], "includes_cover": False},
         "factor 2: 'includes_cover' must be true, not False"),
        ({"n": 10, "edges": [], "includes_cover": 1},
         "factor 2: 'includes_cover' must be true, not 1"),
        ({"n": 10, "edges": [], "includes_cover": None},
         "factor 2: 'includes_cover' must be true, not None"),
        ({"n": 9, "edges": [], "labels": [{"kind": "plain", "id": v} for v in range(9)],
          "includes_cover": True},
         "factor 2 includes cover 1, so its n must be the base's 10, not 9"),
        ({"n": 10, "edges": {}}, "edges must be a list of [u, v] pairs"),
    ],
    ids=["int", "string", "list", "null", "no-n", "n-9", "n-float", "n-string", "n-true",
         "no-edges", "edge-out-of-range", "includes-base-false", "includes-base-1",
         "includes-base-string", "includes-base-null", "includes-base-n-9",
         "includes-cover-false", "includes-cover-1", "includes-cover-null",
         "includes-cover-n-9", "edges-not-a-list"],
)
@pytest.mark.parametrize("cmd", range(3), ids=["verify", "separate", "audit"])
def test_malformed_factor_exits_2(tmp_path, capsys, cmd, factor, message):
    obj = factorized(tmp_path, ("apex-grid", "--k", "1", "--n", "3"))
    capsys.readouterr()
    obj["factors"][1] = factor
    (tmp_path / "f.json").write_text(json.dumps(obj))
    assert main(commands(tmp_path)[cmd]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


@pytest.mark.parametrize("cmd", range(3), ids=["verify", "separate", "audit"])
def test_factor_1_includes_no_cover(tmp_path, capsys, cmd):
    # cover i belongs to factor i + 1, so factor 1 has none to include
    obj = factorized(tmp_path, ("apex-grid", "--k", "1", "--n", "3"))
    capsys.readouterr()
    obj["factors"][0]["includes_cover"] = True
    (tmp_path / "f.json").write_text(json.dumps(obj))
    assert main(commands(tmp_path)[cmd]) == 2
    message = "factor 1 may not carry 'includes_cover': it has no cover"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]
