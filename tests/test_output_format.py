"""Every CLI output is compact, sorted-key JSON with one trailing newline,
and envelopes written in the older indented form still load and give the
same bytes downstream."""

import json

import pytest

from ccwkit.cli import main


def compact(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture
def envelope(tmp_path):
    out = tmp_path / "f.json"
    assert main(["factorize", "apex-grid", "--k", "2", "--n", "6", "--out", str(out)]) == 0
    return out


def test_every_output_is_compact(tmp_path, envelope):
    graph = tmp_path / "g.json"
    manifest = tmp_path / "m.json"
    outputs = [envelope, graph, manifest]
    assert main(["--manifest", str(manifest),
                 "construct", "grid", "--n", "3", "--out", str(graph)]) == 0
    for cmd, extra in [("ccw", ["--bandwidth", "--budget", "1000"]),
                       ("separate", []), ("audit", [])]:
        src = graph if cmd == "ccw" else envelope
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, str(src), *extra, "--out", str(out)]) == 0
        outputs.append(out)
    for path in outputs:
        text = path.read_text()
        assert text == compact(text), path.name


def test_stdout_is_compact(capsys):
    assert main(["construct", "apex-grid", "--k", "1", "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert text == compact(text)


@pytest.mark.parametrize("cmd", ["separate", "audit"])
def test_indented_envelope_gives_the_same_bytes(tmp_path, capsys, envelope, cmd):
    indented = tmp_path / "indented.json"
    obj = json.loads(envelope.read_text())
    indented.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    assert main(["verify", str(indented)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    from_compact, from_indented = tmp_path / "a.json", tmp_path / "b.json"
    assert main([cmd, str(envelope), "--out", str(from_compact)]) == 0
    assert main([cmd, str(indented), "--out", str(from_indented)]) == 0
    assert from_compact.read_bytes() == from_indented.read_bytes()
