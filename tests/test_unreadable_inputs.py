"""Inputs that the JSON reader cannot turn into a value, a manifest that
cannot be written, and a path with a NUL byte exit 2 with an `error:` line,
like any other unreadable input, not 1, which means a verification failure."""

import json
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


# name -> (bytes to write, or None for no file and "dir" for a directory,
# and the error the reader gives after "error: ", with {bad} for the path).
# Inputs are read as UTF-8 whatever the locale, and json.loads sees text, so
# it does not detect a BOM or UTF-16 on its own.
UNREADABLE = {
    "missing": (None, "[Errno 2] No such file or directory: {bad!r}"),
    "directory": ("dir", "[Errno 21] Is a directory: {bad!r}"),
    "utf8-bom": (
        b"\xef\xbb\xbf[1]",
        "{bad} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
        " line 1 column 1 (char 0)",
    ),
    "utf16": (
        b"\xff\xfe" + "[1]".encode("utf-16-le"),
        "{bad} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0:"
        " invalid start byte",
    ),
    "invalid-utf8": (
        b'[1, "\xff"]',
        "{bad} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 5:"
        " invalid start byte",
    ),
}


@pytest.mark.parametrize("kind", list(UNREADABLE))
@pytest.mark.parametrize(
    "reader", ["ccw", "verify", "separate", "audit", "separate-weights", "replay"]
)
def test_unreadable_bytes_exit_2(tmp_path, capsys, kind, reader):
    content, message = UNREADABLE[kind]
    bad = tmp_path / "bad.json"
    if content == "dir":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    argv = readers(tmp_path, str(bad))[reader]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: " + message.format(bad=str(bad)) + "\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("where", ["file", "--out", "--manifest", "--weights", "--csv"])
def test_nul_byte_in_a_path_exits_2_and_writes_nothing(tmp_path, capsys, where):
    # a manifest can carry any string; a NUL is refused before any file is
    # opened, with an error line, not a ValueError traceback
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
    assert main(["construct", "grid", "--n", "2", "--out", str(g)]) == 0
    out = str(tmp_path / "out.json")
    bad = str(tmp_path / "x") + "\0.json"
    argv = {
        "file": ["ccw", bad, "--out", out],
        "--out": ["ccw", str(g), "--out", bad],
        "--manifest": ["--manifest", bad, "ccw", str(g), "--out", out],
        "--weights": ["separate", str(f), "--weights", bad, "--out", out],
        "--csv": ["separate", str(f), "--out", out, "--csv", bad],
    }[where]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"command": "ccwkit", "argv": argv, "seed": 0}))
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err == f"error: argument {bad!r} contains a NUL byte\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
