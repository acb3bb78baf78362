"""Inputs that the JSON reader cannot turn into a value, and a manifest that
cannot be written, exit 2 with an `error:` line, like any other unreadable
input, not 1, which means a verification failure."""

import sys

import pytest

from ccwkit.cli import main

TOO_MANY_DIGITS = "1" * 5000  # past the default limit of 4 300 digits
TOO_DEEP = "[" * 200_000


def readers(tmp_path, bad):
    """The argv of each command that reads `bad` as JSON: a graph file, an
    envelope, a weights file or a manifest."""
    f = tmp_path / "f.json"
    assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
    out = str(tmp_path / "out.json")
    return {
        "ccw": ["ccw", bad, "--out", out],
        "verify": ["verify", bad],
        "separate": ["separate", bad, "--out", out],
        "audit": ["audit", bad, "--out", out],
        "separate-weights": ["separate", str(f), "--weights", bad, "--out", out],
        "replay": ["replay", bad],
    }


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            TOO_MANY_DIGITS,
            id="digits",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="no limit on integer string conversion",
            ),
        ),
        pytest.param(TOO_DEEP, id="nesting"),
    ],
)
@pytest.mark.parametrize(
    "reader", ["ccw", "verify", "separate", "audit", "separate-weights", "replay"]
)
def test_unparsable_json_exits_2(tmp_path, capsys, text, reader):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = readers(tmp_path, str(bad))[reader]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {bad} is not valid JSON: ")
    assert not (tmp_path / "out.json").exists()


def test_unwritable_manifest_exits_2_and_runs_nothing(tmp_path, capsys):
    manifest = tmp_path / "missing" / "m.json"
    out = tmp_path / "g.json"
    argv = ["--manifest", str(manifest), "construct", "grid", "--n", "2", "--out", str(out)]
    assert main(argv) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("error: ") and str(manifest) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []
