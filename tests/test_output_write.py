"""How the CLI writes its output files: an existing file is overwritten in
place (no O_TRUNC), cut to the new length only if it was longer, and keeps
its inode and mode; a write that raises part way leaves it empty.  Every
output path of every command goes through the one writer, `cli._write`."""

import errno
import os

import pytest

from ccwkit.cli import main


@pytest.fixture
def files(tmp_path):
    """A graph file and an envelope, as the CLI wrote them."""
    g, f = tmp_path / "g.json", tmp_path / "f.json"
    assert main(["construct", "apex-grid", "--k", "1", "--n", "3", "--out", str(g)]) == 0
    assert main(["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", str(f)]) == 0
    return g, f


def ccw_stdout(g, capsys):
    capsys.readouterr()
    assert main(["ccw", str(g)]) == 0
    return capsys.readouterr().out.encode()


class TestOverwrite:
    def test_longer_file_loses_its_tail(self, tmp_path, files, capsys):
        g, _ = files
        expected = ccw_stdout(g, capsys)
        out = tmp_path / "r.json"
        out.write_bytes(b"x" * (10 * len(expected)))
        assert main(["ccw", str(g), "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_shorter_file_is_replaced(self, tmp_path, files, capsys):
        g, _ = files
        expected = ccw_stdout(g, capsys)
        out = tmp_path / "r.json"
        out.write_bytes(b"{}")
        assert main(["ccw", str(g), "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_inode_and_mode_are_kept(self, tmp_path, files):
        g, _ = files
        out = tmp_path / "r.json"
        out.write_bytes(b"x" * 5000)
        out.chmod(0o640)
        before = out.stat()
        assert main(["ccw", str(g), "--out", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_short_writes_are_continued(self, tmp_path, files, capsys, monkeypatch):
        # os.write may write fewer bytes than asked; the writer loops
        g, _ = files
        expected = ccw_stdout(g, capsys)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        out = tmp_path / "r.json"
        out.write_bytes(b"x" * 1000)
        assert main(["ccw", str(g), "--out", str(out)]) == 0
        assert out.read_bytes() == expected


class TestErrors:
    def test_directory_exits_2(self, tmp_path, files, capsys):
        g, _ = files
        capsys.readouterr()
        assert main(["ccw", str(g), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("dot", [[], ["--dot"]], ids=["json", "dot"])
    def test_empty_path_exits_2(self, capsys, dot):
        # "" names the current directory, not stdout
        assert main(["construct", "grid", "--n", "2", *dot, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 21] Is a directory: '.'\n"

    def test_trailing_slash_exits_2(self, tmp_path, files, capsys):
        # the path is opened as given, as a shell redirect would: a trailing
        # slash names a directory, so no x.json is written
        g, _ = files
        out = f"{tmp_path / 'x.json'}/"
        capsys.readouterr()
        assert main(["ccw", str(g), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: {out!r}\n"
        assert not (tmp_path / "x.json").exists()

    def test_failed_write_leaves_the_file_empty(self, tmp_path, files, capsys, monkeypatch):
        g, _ = files
        out = tmp_path / "r.json"
        out.write_bytes(b"old bytes " * 100)
        real_write, calls = os.write, []

        def write(fd, data):
            # the first call writes a few bytes, the second finds the disk full
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:5])

        monkeypatch.setattr(os, "write", write)
        capsys.readouterr()
        assert main(["ccw", str(g), "--out", str(out)]) == 2
        assert len(calls) == 2
        assert out.read_bytes() == b""
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_reports_the_write_error(self, files, capsys):
        # a device cannot be truncated; the write's own error is reported
        g, _ = files
        capsys.readouterr()
        assert main(["ccw", str(g), "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n"


class TestStdout:
    @pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["absent", "dash"])
    def test_to_stdout(self, tmp_path, files, capsys, out, monkeypatch):
        g, _ = files
        expected = ccw_stdout(g, capsys)
        monkeypatch.chdir(tmp_path)
        assert main(["ccw", str(g), *out]) == 0
        assert capsys.readouterr().out.encode() == expected
        assert not (tmp_path / "-").exists()

    def test_dev_null(self, files, capsys):
        g, _ = files
        assert main(["ccw", str(g), "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""


def commands(g, f, out):
    """Every command that writes a file, with that file at `out`."""
    return {
        "construct": ["construct", "grid", "--n", "3", "--out", out],
        "construct --dot": ["construct", "grid", "--n", "3", "--dot", "--out", out],
        "factorize": ["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", out],
        "ccw": ["ccw", str(g), "--bandwidth", "--out", out],
        "separate": ["separate", str(f), "--out", out],
        "audit": ["audit", str(f), "--out", out],
        "--manifest": ["--manifest", out, "verify", str(f)],
    }


@pytest.mark.parametrize("name", list(commands("g", "f", "out")))
def test_no_output_is_opened_with_o_trunc(tmp_path, files, capsys, monkeypatch, name):
    g, f = files
    out = tmp_path / "out"
    out.write_bytes(b"x" * 100_000)
    real_open, flags = os.open, []

    def record(path, flag, *args, **kwargs):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", record)
    assert main(commands(g, f, str(out))[name]) == 0
    assert flags == [os.O_WRONLY | os.O_CREAT]
    assert 0 < out.stat().st_size < 100_000
