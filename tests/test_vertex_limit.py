"""A graph file may declare at most `MAX_VERTICES` vertices.  A label run
lets a file of a hundred bytes declare any n, and decoding an n-vertex graph
allocates about n^2/16 bytes, so a larger n is refused with exit 2 before
any run is expanded, in a `ccw` graph file and in an envelope's base.  The
constructions refuse to build more vertices than that, before they allocate
anything, so `construct` and `factorize` never write a file that `ccw` or
`verify` would refuse."""

import json
import tracemalloc

import pytest

from ccwkit import (
    Graph,
    apex_grid,
    example3_i,
    example3_ii,
    factorize_apex_grid,
    factorize_clique_sum,
    grid,
    verify_factorization,
)
from ccwkit import graph as graph_module
from ccwkit.cli import main
from ccwkit.errors import InvalidGraph, InvalidSize
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


@pytest.mark.parametrize("argv, refused", [
    (["construct", "grid", "--n", "182"], "grid: n=33124"),
    (["factorize", "apex-grid", "--k", "2", "--n", "182"], "factorize_apex_grid: n=33126"),
], ids=["construct-grid", "factorize-apex-grid"])
def test_construction_over_the_limit_exits_2(tmp_path, capsys, argv, refused):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused} exceeds the limit of {MAX_VERTICES} vertices\n"


def sum_of(*parts):
    return lambda: factorize_clique_sum(parts)


# name: (a build of 16 vertices, a larger build, the refusal naming its count)
BUILDS = {
    "grid": (lambda: grid(4), lambda: grid(5), "grid: n=25"),
    "apex_grid": (lambda: apex_grid(0, 4), lambda: apex_grid(1, 4), "apex_grid: n=17"),
    "factorize_apex_grid": (
        lambda: factorize_apex_grid(0, 4),
        lambda: factorize_apex_grid(1, 4),
        "factorize_apex_grid: n=17",
    ),
    "factorize_clique_sum": (
        sum_of((3, 3), (3, 2)), sum_of((4, 3), (4, 2)), "factorize_clique_sum: n=17"
    ),
    "example3_i": (lambda: example3_i(4, 4), lambda: example3_i(17, 1), "example3_i: n=17"),
    "example3_ii": (lambda: example3_ii(2, 4), lambda: example3_ii(1, 17), "example3_ii: n=17"),
}


@pytest.mark.parametrize("at_limit, over, refused", BUILDS.values(), ids=BUILDS.keys())
def test_constructions_stop_at_the_limit(monkeypatch, at_limit, over, refused):
    # the bound is inclusive and read at call time; a small stand-in keeps the builds small
    monkeypatch.setattr(graph_module, "MAX_VERTICES", 16)
    built = at_limit()
    assert getattr(built, "base", built).n == 16
    with pytest.raises(InvalidSize, match=f"^{refused} exceeds the limit of 16 vertices$"):
        over()


HUGE = {
    "grid": lambda: grid(10**6),
    "apex_grid": lambda: apex_grid(2, 10**6),
    "factorize_apex_grid": lambda: factorize_apex_grid(2, 10**6),
    "factorize_clique_sum": sum_of((2, 100), (2, 10**6)),
    # 500 apexes over the limit: no list of their pairs is made before the refusal
    "factorize_clique_sum many apexes": sum_of((500, 182)),
    "example3_i": lambda: example3_i(10**6, 10**6),
    "example3_ii": lambda: example3_ii(10**6, 2),
}


@pytest.mark.parametrize("build", HUGE.values(), ids=HUGE.keys())
def test_constructions_refuse_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSize, match="exceeds the limit of 32768 vertices"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_clique_sum_joins_its_apex_set_as_one_clique():
    # k = 1 000: the apex set is joined on the masks as one clique, not as
    # its k(k - 1)/2 pairs, which would trace tens of MB
    tracemalloc.start()
    try:
        f = factorize_clique_sum([(1000, 2), (1000, 2)], [(1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.lstar == 2
    assert all(ok for _, ok, _ in verify_factorization(f))
    assert peak < 5_000_000
