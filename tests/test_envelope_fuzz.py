"""Mutated envelopes never end in a traceback: `verify`, `separate --csv`
and `audit` return an exit code of 0, 1 or 2 whatever one key or value of a
valid envelope is deleted or replaced with.  0 stays possible: a mutation
can leave a valid envelope (a `meta` field, say)."""

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

from ccwkit.cli import main

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


@functools.cache
def envelope(family):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "f.json"
        assert run(["factorize", *SOURCES[family], "--out", str(out)]) == 0
        return json.loads(out.read_text())


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
    every = list(paths(envelope(family)))
    # most paths are edge endpoints; draw the top two levels as often as the rest
    shallow = [p for p in every if len(p) <= 2]
    path = draw(st.sampled_from(shallow) | st.sampled_from(every))
    return family, path, draw(st.sampled_from([DELETE, *REPLACEMENTS]))


def mutated(family, path, value):
    obj = copy.deepcopy(envelope(family))
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
