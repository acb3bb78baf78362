"""Each label kind is spelled in one place: its JSON `kind`, its JSON fields
and its DOT name.  A `kind` that names no label kind, including one that is
not a string, is an input error."""

import json

import pytest

from ccwkit import Graph, apex_grid
from ccwkit.cli import main


@pytest.mark.parametrize("kind", ["hex", 5, [1], None], ids=["hex", "int", "list", "null"])
def test_unknown_kind_exits_2(tmp_path, capsys, kind):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"n": 1, "edges": [], "labels": [{"kind": kind, "id": 0}]}))
    assert main(["ccw", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown label kind {kind!r}\n"


def test_dot_names_grid_and_apex_labels():
    lines = apex_grid(1, 2).to_dot().splitlines()
    assert lines[:6] == [
        "graph G {",
        '  0 [label="g0_1_1"];',
        '  1 [label="g0_1_2"];',
        '  2 [label="g0_2_1"];',
        '  3 [label="g0_2_2"];',
        '  4 [label="x0_1"];',
    ]


def test_dot_names_plain_labels():
    assert Graph.from_edges(2, [(0, 1)]).to_dot() == (
        'graph G {\n  0 [label="v0"];\n  1 [label="v1"];\n  0 -- 1;\n}\n'
    )
