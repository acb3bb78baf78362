"""A graph file may declare at most `MAX_VERTICES` vertices.  A label run
lets a file of a hundred bytes declare any n, and decoding an n-vertex graph
allocates about n^2/16 bytes, so a larger n is refused with exit 2 before
any run is expanded, in a `ccw` graph file and in an envelope's base."""

import json
import tracemalloc

import pytest

from ccwkit import Graph, factorize_apex_grid
from ccwkit import graph as graph_module
from ccwkit.cli import main
from ccwkit.errors import InvalidGraph
from ccwkit.graph import MAX_VERTICES

TOO_MANY = MAX_VERTICES + 1
MESSAGE = f"n={TOO_MANY} exceeds the limit of {MAX_VERTICES} vertices"


def run_file(n: int) -> dict:
    """A graph file of n vertices, labelled by one 1 x n grid run, with one edge."""
    run = {"kind": "grid", "part": 0, "rows": 1, "cols": n}
    return {"n": n, "edges": [[0, 1]], "labels": [run]}


def test_limit_value():
    assert MAX_VERTICES == 32_768


def test_ccw_exits_2(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(run_file(TOO_MANY)))
    assert len(f.read_bytes()) < 120
    assert main(["ccw", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {MESSAGE}\n"


def test_verify_exits_2_on_the_base(tmp_path, capsys):
    envelope = factorize_apex_grid(1, 2).to_json()
    envelope["base"].update(run_file(TOO_MANY))
    f = tmp_path / "f.json"
    f.write_text(json.dumps(envelope))
    assert main(["verify", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {MESSAGE}\n"


def test_refused_before_allocating():
    obj = run_file(TOO_MANY)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGraph, match=MESSAGE):
            Graph.from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_n_at_the_limit_loads(monkeypatch):
    # the bound is inclusive; a small stand-in limit keeps the graphs small
    monkeypatch.setattr(graph_module, "MAX_VERTICES", 4)
    assert Graph.from_json(run_file(4)).n == 4
    with pytest.raises(InvalidGraph, match="n=5 exceeds the limit of 4 vertices"):
        Graph.from_json(run_file(5))
