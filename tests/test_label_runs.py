"""Grid and apex labels are written as runs: a block GridCell(p, 1..R, 1..C)
row-major as one `{"kind": "grid", "part", "rows", "cols"}` entry, a block
Apex(p, 1..k) as one `{"kind": "apex", "part", "count"}` entry, and every
other label as its own dict.  Runs are checked before they are expanded.
Envelopes also write each factor i >= 2 as the base plus its cover's
blocks, as they are, which only `covers` lists."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwkit import (
    Graph,
    example3_i,
    example3_ii,
    factorize_apex_grid,
    factorize_clique_sum,
)
from ccwkit.cli import main
from ccwkit.errors import InvalidGraph
from ccwkit.graph import Apex, GridCell, Plain, labels_from_json, labels_to_json

from oracles import reference_id_lists

SUM_SIZES = [3, 4, 5, 6, 7, 8] * 10 + [4, 5]


@st.composite
def grid_block(draw):
    """Part of a row-major block GridCell(p, 1..R, 1..C): whole, starting
    off (1, 1), or missing its last cells."""
    p, rows, cols = draw(st.integers(0, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [GridCell(p, r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    start = draw(st.sampled_from([0, 0, 1, cols]))
    stop = len(cells) - draw(st.sampled_from([0, 0, 1]))
    return cells[start:stop]


@st.composite
def apex_block(draw):
    """Apex(p, j) for j = 1..k, some of them left out."""
    p, k = draw(st.integers(0, 2)), draw(st.integers(1, 5))
    return [Apex(p, j) for j in range(1, k + 1) if draw(st.booleans())]


@st.composite
def label_sequences(draw):
    blocks = draw(st.lists(
        grid_block() | apex_block() | st.lists(st.builds(Plain, st.integers(0, 5)), max_size=3),
        max_size=6,
    ))
    # blocks back to back; a label repeated across blocks keeps its first place
    return list(dict.fromkeys(lbl for blk in blocks for lbl in blk))


@settings(max_examples=300, deadline=None)
@given(label_sequences(), st.data())
def test_round_trip(labels, data):
    n = len(labels)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    g = Graph.from_edges(n, edges, labels)
    obj = json.loads(json.dumps(g.to_json()))
    assert Graph.from_json(obj) == g
    # every run holds at least two labels, and no two entries could be one run
    runs = [e for e in obj["labels"] if e.keys() & {"rows", "cols", "count"}]
    assert all(e.get("rows", 1) * e.get("cols", 1) * e.get("count", 1) >= 2 for e in runs)
    assert len(obj["labels"]) == n - sum(
        e.get("rows", 1) * e.get("cols", 1) * e.get("count", 1) - 1 for e in runs
    )


def test_examples_of_runs():
    labels = [
        GridCell(0, 1, 1), GridCell(0, 1, 2), GridCell(0, 2, 1), GridCell(0, 2, 2),
        GridCell(0, 3, 1),  # a third row that stops short
        GridCell(1, 1, 1), GridCell(1, 2, 1),  # a single column
        GridCell(2, 1, 2), GridCell(2, 1, 3),  # starting off (1, 1)
        Apex(0, 1), Apex(0, 2), Apex(0, 4),  # a gap
        Apex(1, 1),  # a run needs two labels
        Plain(7),
    ]
    assert labels_to_json(labels) == [
        {"kind": "grid", "part": 0, "rows": 2, "cols": 2},
        {"kind": "grid", "part": 0, "row": 3, "col": 1},
        {"kind": "grid", "part": 1, "rows": 2, "cols": 1},
        {"kind": "grid", "part": 2, "row": 1, "col": 2},
        {"kind": "grid", "part": 2, "row": 1, "col": 3},
        {"kind": "apex", "part": 0, "count": 2},
        {"kind": "apex", "part": 0, "apex_index": 4},
        {"kind": "apex", "part": 1, "apex_index": 1},
        {"kind": "plain", "id": 7},
    ]


def test_entry_counts():
    # the apex grid's base: one grid run and one apex run
    base = factorize_apex_grid(2, 40).to_json()["base"]
    assert base["labels"] == [
        {"kind": "grid", "part": 0, "rows": 40, "cols": 40},
        {"kind": "apex", "part": 0, "count": 2},
    ]
    # 62 grid runs and the shared apex run
    f = factorize_clique_sum([(3, s) for s in SUM_SIZES], [(1, 2)])
    labels = f.to_json()["base"]["labels"]
    assert len(labels) == 63
    assert labels[1] == {"kind": "apex", "part": 0, "count": 3}
    assert [e["rows"] for e in labels if e["kind"] == "grid"] == SUM_SIZES


def test_one_dict_per_label_still_loads():
    g = factorize_apex_grid(1, 3).base
    obj = g.to_json()
    obj["labels"] = [
        {"kind": "grid", "part": 0, "row": r, "col": c} for r in range(1, 4) for c in range(1, 4)
    ] + [{"kind": "apex", "part": 0, "apex_index": 1}]
    assert Graph.from_json(obj) == g


def test_a_run_field_on_another_kind_is_ignored():
    # as any extra field of a single label is: no run of plain labels exists
    assert labels_from_json([{"kind": "plain", "id": 0, "count": 3}], 1) == [Plain(0)]
    assert labels_from_json([{"kind": "apex", "part": 0, "apex_index": 2, "rows": 3}], 1) == [
        Apex(0, 2)
    ]


def test_a_huge_run_allocates_nothing():
    obj = factorize_apex_grid(2, 3).base.to_json()
    obj["labels"][0]["rows"] = obj["labels"][0]["cols"] = 2**70
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGraph, match="more than the 11 left of n"):
            Graph.from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def grid_run(**fields):
    """The base labels of the apex grid k=2, n=3 with the grid run's fields
    replaced (None deletes one)."""
    run = {"kind": "grid", "part": 0, "rows": 3, "cols": 3, **fields}
    run = {k: v for k, v in run.items() if v is not None}
    return [run, {"kind": "apex", "part": 0, "count": 2}]


MALFORMED = {
    "rows 0": (grid_run(rows=0), "malformed label run"),
    "rows -1": (grid_run(rows=-1), "malformed label run"),
    "rows true": (grid_run(rows=True), "malformed label run"),
    "rows 1.5": (grid_run(rows=1.5), "malformed label run"),
    "rows string": (grid_run(rows="2"), "malformed label run"),
    "rows 2**70": (grid_run(rows=2**70), "labels, more than the 11 left of n"),
    "no cols": (grid_run(cols=None), "malformed label run"),
    "part true": (grid_run(part=True), "malformed label run"),
    "count past n": (grid_run()[:1] + [{"kind": "apex", "part": 0, "count": 3}],
                     "holds 3 labels, more than the 2 left of n"),
    "count 0": (grid_run()[:1] + [{"kind": "apex", "part": 0, "count": 0}],
                "malformed label run"),
    "too many single labels": (grid_run() + [{"kind": "plain", "id": 0}],
                               "expected 11 labels, got 12"),
}


@pytest.mark.parametrize("labels, message", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("cmd", ["ccw", "verify", "separate", "audit"])
def test_malformed_runs_exit_2(tmp_path, capsys, cmd, labels, message):
    src = tmp_path / "src.json"
    if cmd == "ccw":
        argv = ["construct", "apex-grid", "--k", "2", "--n", "3", "--out", str(src)]
    else:
        argv = ["factorize", "apex-grid", "--k", "2", "--n", "3", "--out", str(src)]
    assert main(argv) == 0
    obj = json.loads(src.read_text())
    src.unlink()
    (obj if cmd == "ccw" else obj["base"])["labels"] = labels
    f, out = tmp_path / "f.json", tmp_path / "out.json"
    f.write_text(json.dumps(obj))
    argv = [cmd, str(f)] + {
        "ccw": ["--out", str(out)],
        "verify": [],
        "separate": ["--out", str(out), "--csv", str(tmp_path / "rows.csv")],
        "audit": ["--out", str(out)],
    }[cmd]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


FACTORIZATIONS = {
    "apex grid k=2": lambda: factorize_apex_grid(2, 5),
    "apex grid k=3, one apex edge": lambda: factorize_apex_grid(3, 4, {(1, 3)}),
    "clique sum": lambda: factorize_clique_sum([(3, 3), (3, 4)], [(1, 2)]),
    "example3_i": lambda: example3_i(3, 4),
    "example3_ii": lambda: example3_ii(3, 2),
}


@pytest.mark.parametrize("build", FACTORIZATIONS.values(), ids=FACTORIZATIONS.keys())
def test_cover_blocks_are_written_as_maximal_cliques(build):
    """The blocks were once widened to maximal cliques, as the name says;
    each is now written once, as it is, members ascending, in `covers`,
    and the factor as the base plus its cover's blocks (`includes_cover`),
    with no edge left and no clique listed."""
    f = build()
    obj = f.to_json()
    for cover, blocks, written in zip(f.covers, obj["covers"], obj["factors"][1:]):
        n = f.base.n
        assert written == {"n": n, "edges": [], "includes_base": True, "includes_cover": True}
        # each block's id list is written as runs (`graph.ids_to_json`), the
        # blocks in one room; the reference writer gives the same entries
        assert blocks == reference_id_lists(map(sorted, cover.cliques), n)
