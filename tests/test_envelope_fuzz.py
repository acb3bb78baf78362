"""Mutated envelopes never end in a traceback: `verify`, `separate --csv`
and `audit` return an exit code of 0, 1 or 2 whatever one key or value of a
valid envelope is deleted or replaced with.  0 stays possible: a mutation
can leave a valid envelope (a `meta` field, say).  A label field changed
alike in every graph that carries labels gets past `vertex_sets`, and exits
2 unless it is still an integer.  Envelopes are fuzzed as `factorize` writes
them, labels in the base only and grid and apex labels as runs, and in the
forms of earlier releases: one dict per label, and a copy of the labels in
every factor.  Tests that edit a label field first expand the runs."""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwkit import Factorization
from ccwkit.cli import main
from ccwkit.graph import label_to_json

SOURCES = {
    "apex-grid": ["apex-grid", "--k", "2", "--n", "3", "--apex-edges", "1-2"],
    "clique-sum": ["clique-sum", "--parts", "2:2,2:3", "--removed-edges", "1-2"],
}
REPLACEMENTS = [None, True, False, 1.5, 2**70, "x", [], {}]
DELETE = object()


def run(argv):
    """`main(argv)` with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def expand_labels(obj):
    """The base's label runs rewritten as one dict per label."""
    labels = Factorization.from_json(obj).base.labels
    obj["base"]["labels"] = [label_to_json(lbl) for lbl in labels]


@functools.cache
def envelope(family, copies=False, per_label=False):
    """The envelope `factorize` writes; with `per_label`, its base labels
    written one dict per label; with `copies`, the base's labels copied into
    every factor."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "f.json"
        assert run(["factorize", *SOURCES[family], "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
    if per_label:
        expand_labels(obj)
    if copies:
        for g in obj["factors"]:
            g["labels"] = copy.deepcopy(obj["base"]["labels"])
    return obj


def paths(obj, prefix=()):
    """The path (keys and indices from the root) of every value below obj."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


@st.composite
def mutations(draw):
    family = draw(st.sampled_from(sorted(SOURCES)))
    copies, per_label = draw(st.booleans()), draw(st.booleans())
    every = list(paths(envelope(family, copies, per_label)))
    # most paths are edge endpoints; draw the top two levels as often as the rest
    shallow = [p for p in every if len(p) <= 2]
    path = draw(st.sampled_from(shallow) | st.sampled_from(every))
    return family, copies, per_label, path, draw(st.sampled_from([DELETE, *REPLACEMENTS]))


def mutated(family, copies, per_label, path, value):
    obj = copy.deepcopy(envelope(family, copies, per_label))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_every_command_exits_0_1_or_2(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        env = tmp / "f.json"
        env.write_text(json.dumps(mutated(*mutation)))
        for argv in (
            ["verify", str(env)],
            ["separate", str(env), "--out", str(tmp / "sep.json"), "--csv", str(tmp / "rows.csv")],
            ["audit", str(env), "--out", str(tmp / "audit.json")],
        ):
            assert run(argv) in (0, 1, 2)


@pytest.mark.parametrize("meta", [5, None, [], "x"])
@pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
def test_meta_that_is_not_an_object_exits_2(tmp_path, capsys, meta, cmd):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({**envelope("apex-grid"), "meta": meta}))
    out, rows = tmp_path / "out.json", tmp_path / "rows.csv"
    argv = {
        "verify": ["verify", str(f)],
        "separate": ["separate", str(f), "--out", str(out), "--csv", str(rows)],
        "audit": ["audit", str(f), "--out", str(out)],
    }[cmd]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: 'meta' must be an object\n")
    assert not out.exists() and not rows.exists()


def test_envelope_without_meta_still_loads(tmp_path):
    env = dict(envelope("apex-grid"))
    del env["meta"]
    f = tmp_path / "f.json"
    f.write_text(json.dumps(env))
    assert run(["separate", str(f), "--out", str(tmp_path / "s.json"),
                "--csv", str(tmp_path / "rows.csv")]) == 0
    assert (tmp_path / "rows.csv").read_text().splitlines()[1].startswith("?,,,")


def labeled_graphs(obj):
    """The base, and each factor that carries its own labels."""
    return [g for g in [obj["base"], *obj["factors"]] if "labels" in g]


def with_label_field(family, copies, vertex, key, value):
    """The envelope with one label field set to `value` (or deleted) in
    every graph that carries labels alike, so `vertex_sets` still passes.
    The labels are one dict per label."""
    obj = copy.deepcopy(envelope(family, copies, per_label=True))
    for g in labeled_graphs(obj):
        if value is DELETE:
            del g["labels"][vertex][key]
        else:
            g["labels"][vertex][key] = value
    return obj


def commands(tmp):
    return [
        ["verify", str(tmp / "f.json")],
        ["separate", str(tmp / "f.json"), "--out", str(tmp / "sep.json"),
         "--csv", str(tmp / "rows.csv")],
        ["audit", str(tmp / "f.json"), "--out", str(tmp / "audit.json")],
    ]


@st.composite
def label_mutations(draw):
    family = draw(st.sampled_from(sorted(SOURCES)))
    labels = envelope(family, per_label=True)["base"]["labels"]
    vertex = draw(st.integers(0, len(labels) - 1))
    key = draw(st.sampled_from(sorted(labels[vertex])))
    copies = draw(st.booleans())
    return family, copies, vertex, key, draw(st.sampled_from([DELETE, *REPLACEMENTS]))


@settings(max_examples=100, deadline=None)
@given(label_mutations())
def test_a_label_field_changed_in_every_copy(mutation):
    """A label field that is missing or not an integer, in every graph that
    carries labels, is an input error; 2**70 in an integer field is a valid
    label, so the envelope still verifies (`audit` may then exit 2: its
    default `--apex 1` names no apex once apex 1's index is 2**70)."""
    family, copies, vertex, key, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "f.json").write_text(json.dumps(with_label_field(*mutation)))
        codes = [run(argv) for argv in commands(tmp)]
        if key != "kind" and type(value) is int:
            assert codes[0] == 0 and set(codes[1:]) <= {0, 1, 2}
        else:
            assert codes == [2, 2, 2]
            assert sorted(p.name for p in tmp.iterdir()) == ["f.json"]


@pytest.mark.parametrize("cmd", range(3), ids=["verify", "separate", "audit"])
@pytest.mark.parametrize("row", [str, lambda r: r + 0.5], ids=["string", "float"])
def test_grid_rows_that_are_not_integers_exit_2(tmp_path, capsys, cmd, row):
    # before labels were type-checked, string rows verified and then broke
    # `audit` with a TypeError, and rows r + 0.5 made `audit` exit 1
    src = tmp_path / "src.json"
    assert run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(src)]) == 0
    obj = json.loads(src.read_text())
    src.unlink()
    expand_labels(obj)
    for g in labeled_graphs(obj):
        for label in g["labels"]:
            if label["kind"] == "grid":
                label["row"] = row(label["row"])
    (tmp_path / "f.json").write_text(json.dumps(obj))
    assert main(commands(tmp_path)[cmd]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed vertex label {")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]
