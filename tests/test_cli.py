import gc
import json
import os
from pathlib import Path

import pytest

from ccwkit import Apex, Factorization, Graph, GridCell, OrderedCliqueCover, verify_factorization
from ccwkit.cli import _dump, main
from ccwkit.constructions import _make_factorization
from ccwkit.graph import label_to_json

DATA = Path(__file__).parent / "data"


def run(argv):
    return main(argv)


class TestConstruct:
    def test_apex_grid_file(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["construct", "apex-grid", "--k", "1", "--n", "4", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 17

    def test_grid2_is_c4(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["construct", "grid", "--n", "2", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 4 and len(obj["edges"]) == 4

    def test_example3ii_vertex_count(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["construct", "example3ii", "--n", "3", "--k", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 18

    def test_dot_output(self, tmp_path, capsys):
        assert run(["construct", "grid", "--n", "2", "--dot"]) == 0
        assert "graph G {" in capsys.readouterr().out

    def test_invalid_params_exit_2(self, capsys):
        assert run(["construct", "grid", "--n", "0"]) == 2


class TestFactorizeVerify:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["factorize", "apex-grid", "--k", "2", "--n", "6", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["widths"][0] <= 5
        assert run(["verify", str(out)]) == 0

    def test_clique_sum(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["factorize", "clique-sum", "--parts", "1:4,1:6", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["widths"][0] <= 12
        assert run(["verify", str(out)]) == 0

    def test_c4_degenerate(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["factorize", "apex-grid", "--k", "0", "--n", "2", "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0

    def test_verify_rejects_tampering(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", str(out)])
        obj = json.loads(out.read_text())
        del obj["factors"][1]["includes_base"]  # factor 2 loses the base's edges
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run(["verify", str(bad)]) == 1
        assert "intersection" in capsys.readouterr().err


class TestCcw:
    def test_p3_exact(self, tmp_path):
        g = tmp_path / "p3.json"
        g.write_text(json.dumps({
            "n": 3, "edges": [[0, 1], [1, 2]],
            "labels": [{"kind": "plain", "id": i} for i in range(3)],
        }))
        out = tmp_path / "r.json"
        assert run(["ccw", str(g), "--exact", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["width"] == 1

    @pytest.mark.parametrize("extra", [[], ["--greedy"], ["--bandwidth"]])
    def test_negative_budget_exits_2(self, tmp_path, capsys, extra):
        g = tmp_path / "g.json"
        run(["construct", "grid", "--n", "3", "--out", str(g)])
        out = tmp_path / "r.json"
        assert run(["ccw", str(g), "--budget", "-1", *extra, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --budget must be >= 0\n"
        assert not out.exists()
        assert run(["ccw", str(g), "--budget", "0", *extra, "--out", str(out)]) == 0

    def test_k5_zero(self, tmp_path):
        g = tmp_path / "k5.json"
        g.write_text(json.dumps({
            "n": 5,
            "edges": [[i, j] for i in range(5) for j in range(i + 1, 5)],
            "labels": [{"kind": "plain", "id": i} for i in range(5)],
        }))
        out = tmp_path / "r.json"
        assert run(["ccw", str(g), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["width"] == 0

    def test_greedy_upper_bound(self, tmp_path):
        gfile = tmp_path / "g.json"
        run(["construct", "apex-grid", "--k", "1", "--n", "3", "--out", str(gfile)])
        out = tmp_path / "r.json"
        assert run(["ccw", str(gfile), "--greedy", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        from ccwkit import Graph, OrderedCliqueCover, verify_cover

        g = Graph.from_json(json.loads(gfile.read_text()))
        ok, _ = verify_cover(g, OrderedCliqueCover.from_json(obj["cover"]))
        assert ok


class TestSeparateAudit:
    def test_separate_with_csv(self, tmp_path):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "8", "--out", str(f)])
        out = tmp_path / "sep.json"
        csvf = tmp_path / "rows.csv"
        assert run(["separate", str(f), "--out", str(out), "--csv", str(csvf)]) == 0
        obj = json.loads(out.read_text())
        assert len(obj["side_a"]) <= 43 and len(obj["side_b"]) <= 43
        lines = csvf.read_text().strip().splitlines()
        assert lines[0] == "family,n,k,N,lstar,sep_size,sep_cliques,bound,mu_a,mu_b"
        assert lines[1].startswith("apex-grid,8,1,65,")

    @pytest.mark.parametrize("existing", ["", "family,n\n"], ids=["empty", "non-empty"])
    def test_csv_header_only_into_an_empty_file(self, tmp_path, existing):
        # an existing empty file gets the header as a new one does; a file
        # that holds anything gets the row only
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)])
        csvf = tmp_path / "rows.csv"
        csvf.write_text(existing)
        assert run(["separate", str(f), "--out", str(tmp_path / "sep.json"),
                    "--csv", str(csvf)]) == 0
        lines = csvf.read_text().splitlines()
        header = "family,n,k,N,lstar,sep_size,sep_cliques,bound,mu_a,mu_b"
        assert lines[:-1] == (existing.splitlines() or [header])
        assert lines[-1].startswith("apex-grid,3,1,")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_csv_into_a_pipe_gets_rows_only(self, tmp_path):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)])
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader, os.fdopen(w, "wb") as writer:
            assert run(["separate", str(f), "--out", str(tmp_path / "sep.json"),
                        "--csv", f"/dev/fd/{w}"]) == 0
            writer.close()
            lines = reader.read().decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("apex-grid,3,1,")

    def test_unwritable_csv_writes_nothing(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)])
        out, csvf = tmp_path / "sep.json", tmp_path / "rows.csv"
        csvf.mkdir()
        assert run(["separate", str(f), "--out", str(out), "--csv", str(csvf)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert not out.exists() and not any(csvf.iterdir())

    @pytest.mark.parametrize(
        "copies, weights", [(1030, None), (1000, [1e10] * 5)], ids=["uniform", "weighted"]
    )
    def test_a_bound_past_the_float_range_is_written_as_infinity(
        self, tmp_path, capsys, copies, weights
    ):
        # factor 2 of the apex grid k = 1, n = 2, its cover and its width
        # repeated: a valid envelope of d = copies + 1 factors, whose bound
        # 2^d lstar^((d-1)/d) mu^((d-1)/d) passes the largest float; at
        # d = 1 031, 2^d alone does
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "2", "--out", str(f)])
        obj = json.loads(f.read_text())
        obj["factors"] = [obj["factors"][0], *[obj["factors"][1]] * copies]
        obj["covers"] *= copies
        obj["widths"] *= copies
        f.write_text(json.dumps(obj))
        assert run(["verify", str(f)]) == 0
        assert run(["audit", str(f), "--out", str(tmp_path / "a.json")]) == 0
        out, rows = tmp_path / "sep.json", tmp_path / "rows.csv"
        argv = ["separate", str(f), "--out", str(out), "--csv", str(rows)]
        if weights:
            (w := tmp_path / "w.json").write_text(json.dumps(weights))
            argv += ["--weights", str(w)]
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        assert '"bound_value":Infinity' in out.read_text()
        assert json.loads(out.read_text())["bound_value"] == float("inf")
        assert rows.read_text().splitlines()[1].split(",")[7] == "inf"

    @pytest.mark.parametrize("copies", [1, 1030])
    def test_a_weightless_graph_has_bound_zero_for_any_number_of_factors(
        self, tmp_path, capsys, copies
    ):
        # the envelope above with every weight 0: mu(G) = 0 makes the bound
        # 0.0, also where 2^d is inf, whose product with 0.0 would be NaN
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "2", "--out", str(f)])
        obj = json.loads(f.read_text())
        obj["factors"] = [obj["factors"][0], *[obj["factors"][1]] * copies]
        obj["covers"] *= copies
        obj["widths"] *= copies
        f.write_text(json.dumps(obj))
        assert run(["verify", str(f)]) == 0
        (w := tmp_path / "w.json").write_text(json.dumps([0] * 5))
        out, rows = tmp_path / "sep.json", tmp_path / "rows.csv"
        capsys.readouterr()
        assert run(["separate", str(f), "--weights", str(w), "--out", str(out),
                    "--csv", str(rows)]) == 0
        assert capsys.readouterr().err == ""
        assert '"bound_value":0.0' in out.read_text()
        assert rows.read_text().splitlines()[1].split(",")[7] == "0.000"

    def test_audit(self, tmp_path):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "6", "--out", str(f)])
        out = tmp_path / "a.json"
        assert run(["audit", str(f), "--apex", "1", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["grid_clique_size"] == 12
        assert obj["restricted_cover_sizes"] == [6]

    @pytest.mark.parametrize("copies", [False, True], ids=["labels-once", "labels-in-every-graph"])
    def test_audit_reads_the_bipartition_from_the_graph(self, tmp_path, copies):
        # rows doubled in every graph that carries labels: the label parity
        # (row + col) % 2 then colours each grid row alike, but verify still
        # passes, and audit 2-colours the grid clique from the base itself
        src = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(src)])
        obj = json.loads(src.read_text())
        # the base's label runs expanded to one dict per label first
        labels = [label_to_json(lbl) for lbl in Factorization.from_json(obj).base.labels]
        obj["base"]["labels"] = labels
        if copies:
            for g in obj["factors"]:
                g["labels"] = json.loads(json.dumps(labels))
        for g in [obj["base"], *obj["factors"]]:
            for label in g.get("labels", []):
                if label["kind"] == "grid":
                    label["row"] *= 2
        doubled = tmp_path / "doubled.json"
        doubled.write_text(json.dumps(obj))
        assert run(["verify", str(doubled)]) == 0
        reports = []
        for env in (src, doubled):
            out = tmp_path / f"audit-{env.stem}.json"
            assert run(["audit", str(env), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_audit_refuses_a_grid_clique_that_is_no_bipartite_graph(self, tmp_path, capsys):
        # K4 as both factors, one block covering it: a valid envelope whose
        # three grid-labelled vertices form a triangle, so the larger class
        # of its 2-colouring holds an edge
        labels = [GridCell(0, 1, c) for c in (1, 2, 3)] + [Apex(0, 1)]
        k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)], labels)
        f = _make_factorization(k4, [k4, k4], [OrderedCliqueCover((frozenset(range(4)),))], 0)
        env = tmp_path / "k4.json"
        _dump(f.to_json(), str(env))
        assert run(["verify", str(env)]) == 0
        capsys.readouterr()
        assert run(["audit", str(env), "--out", str(tmp_path / "a.json")]) == 1
        assert capsys.readouterr().err == (
            "error: bipartition class is not independent in the base\n"
        )

    def test_audit_refuses_an_envelope_with_no_grid_cell(self, tmp_path, capsys):
        # two adjacent apexes and nothing else: a valid one-factor envelope
        # that has apex 1 but no grid clique to audit
        k2 = Graph.from_edges(2, [(0, 1)], [Apex(0, 1), Apex(0, 2)])
        env = tmp_path / "apexes.json"
        _dump(_make_factorization(k2, [k2], [], 0).to_json(), str(env))
        assert run(["verify", str(env)]) == 0
        capsys.readouterr()
        out = tmp_path / "a.json"
        assert run(["audit", str(env), "--apex", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: no grid cell, so no grid clique to audit\n"


class TestManifestReplay:
    def test_replay_byte_identical(self, tmp_path):
        out = tmp_path / "f.json"
        manifest = tmp_path / "m.json"
        run(["--manifest", str(manifest),
             "factorize", "apex-grid", "--k", "1", "--n", "5", "--out", str(out)])
        first = out.read_bytes()
        out.unlink()
        assert run(["replay", str(manifest)]) == 0
        assert out.read_bytes() == first


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run(["verify", "/nonexistent/file.json"]) == 2

    @pytest.mark.parametrize("cmd", ["verify", "ccw", "separate", "audit", "replay"])
    def test_directory_as_input(self, tmp_path, capsys, cmd):
        assert run([cmd, str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["bogus-command"])
        assert exc.value.code == 2


class TestMalformedParts:
    @pytest.mark.parametrize("cmd", ["construct", "factorize"])
    def test_missing_parts(self, tmp_path, capsys, cmd):
        out = tmp_path / "f.json"
        assert run([cmd, "clique-sum", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: clique-sum needs --parts")
        assert not out.exists()

    @pytest.mark.parametrize("parts", ["1-4", "1:4,", "1:x", "1:4:2"])
    def test_malformed_token(self, tmp_path, capsys, parts):
        out = tmp_path / "f.json"
        assert run(["factorize", "clique-sum", "--parts", parts, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed --parts token")
        assert not out.exists()

    def test_malformed_apex_edges(self, capsys):
        assert run(["construct", "apex-grid", "--k", "2", "--n", "3", "--apex-edges", "1:2"]) == 2
        assert capsys.readouterr().err.startswith("error: malformed --apex-edges token")


class TestInvalidWeights:
    @pytest.mark.parametrize("weights", ["NaN", "Infinity", "-Infinity", "-1", '"a"'])
    def test_bad_weight(self, tmp_path, capsys, weights):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", str(f)])
        w = tmp_path / "w.json"
        w.write_text("[" + ", ".join(["1"] * 16 + [weights]) + "]")
        out = tmp_path / "sep.json"
        csvf = tmp_path / "rows.csv"
        assert run(["separate", str(f), "--weights", str(w), "--out", str(out),
                    "--csv", str(csvf)]) == 2
        assert capsys.readouterr().err.startswith("error: measure weights must be")
        assert not out.exists() and not csvf.exists()

    @pytest.mark.parametrize(
        "weights, bad",
        [
            ("1111111111", "not str"),
            ({str(v): 1 for v in range(10)}, "not dict"),
            ([str(v) for v in range(1, 11)], "entry 0 is '1'"),
            ([True] * 10, "entry 0 is True"),
            ([1] * 9 + [None], "entry 9 is None"),
            ([1] * 9 + [10**400], "finite and non-negative"),
        ],
        ids=["string", "object", "numeric-strings", "booleans", "null", "huge-int"],
    )
    def test_weights_that_are_not_a_list_of_numbers(self, tmp_path, capsys, weights, bad):
        # the first four shapes were read as ten weights for the ten vertices
        # and exited 0; an int too large for a float ended in a traceback
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)])
        w = tmp_path / "w.json"
        w.write_text(json.dumps(weights))
        out, csvf = tmp_path / "sep.json", tmp_path / "rows.csv"
        assert run(["separate", str(f), "--weights", str(w), "--out", str(out),
                    "--csv", str(csvf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: measure weights must be") and err.rstrip().endswith(bad)
        assert not out.exists() and not csvf.exists()

    def test_weights_whose_sum_overflows(self, tmp_path, capsys):
        # each weight is finite, their sum is not: this exited 1, as a
        # verification failure, "sides weigh inf, 0, not the stored inf, 0.0"
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)])
        w = tmp_path / "w.json"
        w.write_text(json.dumps([1e308] * 10))
        out, csvf = tmp_path / "sep.json", tmp_path / "rows.csv"
        assert run(["separate", str(f), "--weights", str(w), "--out", str(out),
                    "--csv", str(csvf)]) == 2
        assert capsys.readouterr() == ("", "error: measure weights must sum to a finite total\n")
        assert not out.exists() and not csvf.exists()

    @pytest.mark.parametrize("count", [16, 18])
    def test_wrong_length(self, tmp_path, capsys, count):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", str(f)])
        w = tmp_path / "w.json"
        w.write_text(json.dumps([1.0] * count))
        out = tmp_path / "sep.json"
        assert run(["separate", str(f), "--weights", str(w), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: measure has {count} weights for 17 vertices\n"
        assert not out.exists()


class TestReplayOfReplay:
    def test_self_replay(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert run(["--manifest", str(manifest), "replay", str(manifest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_replay_cycle(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"command": "ccwkit", "argv": ["replay", str(b)], "seed": 0}))
        b.write_text(json.dumps({"command": "ccwkit", "argv": ["replay", str(a)], "seed": 0}))
        assert run(["replay", str(a)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("manifest", [[], {"seed": 0}, {"argv": "verify f.json"}])
    def test_manifest_without_argv_list(self, tmp_path, capsys, manifest):
        m = tmp_path / "m.json"
        m.write_text(json.dumps(manifest))
        assert run(["replay", str(m)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestMalformedJson:
    @pytest.mark.parametrize("cmd", ["verify", "ccw", "separate", "audit", "replay"])
    def test_malformed_input_file(self, tmp_path, capsys, cmd):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "edges": [[0, 1],')
        assert run([cmd, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid JSON" in err

    def test_malformed_weights_file(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", str(f)])
        w = tmp_path / "w.json"
        w.write_text("[1, 1,")
        out = tmp_path / "sep.json"
        assert run(["separate", str(f), "--weights", str(w), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid JSON" in err
        assert not out.exists()


def _plain(n):
    return [{"kind": "plain", "id": i} for i in range(n)]


class TestMalformedGraphFile:
    @pytest.mark.parametrize(
        "graph",
        [
            {"n": 2, "edges": [[0, 0]], "labels": _plain(2)},
            {"n": 3, "edges": [[0, 1]], "labels": _plain(2)},
            {"n": 2, "edges": [[0, 1]], "labels": [{"kind": "x"}, {"kind": "plain", "id": 1}]},
            {"n": 2, "edges": [[0, 1, 2]], "labels": _plain(2)},
            {"n": 2, "edges": [[0, 1]]},
            {"n": 2, "edges": [[0, 1.5]], "labels": _plain(2)},
            {"n": 2, "edges": [[0, 2]], "labels": _plain(2)},
            {"n": 2, "edges": [], "labels": _plain(2), "includes_base": True},
            {"n": 2, "edges": [], "labels": _plain(2), "includes_cover": True},
        ],
        ids=["self-loop", "label-count", "label-kind", "triple", "no-labels",
             "non-integer-id", "out-of-range", "includes-base", "includes-cover"],
    )
    def test_ccw_exits_2(self, tmp_path, capsys, graph):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(graph))
        out = tmp_path / "r.json"
        assert run(["ccw", str(g), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
    def test_empty_envelope_exits_2(self, tmp_path, capsys, cmd):
        f = tmp_path / "f.json"
        f.write_text("{}")
        assert run([cmd, str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: an envelope needs keys")

    @pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
    @pytest.mark.parametrize("factor", [1, 2], ids=["factor-1", "factor-2"])
    def test_self_loop_in_a_factor_exits_2(self, tmp_path, capsys, factor, cmd):
        # factor 1 is written as its clique-forest bags, factor 2 as the
        # blocks of its cover
        f, out = tmp_path / "f.json", tmp_path / "out.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", str(f)])
        obj = json.loads(f.read_text())
        assert obj["factors"][0]["cliques"] and obj["factors"][1]["includes_cover"] is True
        obj["factors"][factor - 1]["edges"].append([3, 3])
        f.write_text(json.dumps(obj))
        argv = [cmd, str(f)] if cmd == "verify" else [cmd, str(f), "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: self-loop at vertex 3\n"
        assert not out.exists()


class TestEdgesNotAList:
    """`edges` that is not a list, even one as empty as `{}` or `""`, is
    refused in a graph file and in every graph of an envelope, and not read
    as no edges."""

    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("env") / "f.json"
        assert run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
        return json.loads(f.read_text())

    @pytest.mark.parametrize("edges", [{}, "", {"0": 1}, "01", 5], ids=repr)
    @pytest.mark.parametrize(
        "cmd, graph",
        [("ccw", None)]
        + [(cmd, g) for cmd in ("verify", "separate", "audit") for g in ("base", 0, 1)],
        ids=lambda x: "factor-" + str(x + 1) if type(x) is int else str(x),
    )
    def test_exits_2(self, tmp_path, capsys, envelope, cmd, graph, edges):
        f, out = tmp_path / "in.json", tmp_path / "out.json"
        if cmd == "ccw":
            obj = {"n": 3, "edges": edges, "labels": _plain(3)}
        else:
            obj = json.loads(json.dumps(envelope))
            (obj["base"] if graph == "base" else obj["factors"][graph])["edges"] = edges
        f.write_text(json.dumps(obj))
        assert run([cmd, str(f)] if cmd == "verify" else [cmd, str(f), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: edges must be a list of [u, v] pairs\n")
        assert not out.exists()


class TestMalformedEnvelope:
    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("env") / "f.json"
        assert run(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
        return json.loads(f.read_text())

    @pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("factors", [], "'factors' must be a non-empty list"),
            ("chordal_cert", {}, "'chordal_cert' needs exactly one of a 'peo' and a 'hole' list"),
            ("chordal_cert", {"peo": [0], "hole": [0]},
             "'chordal_cert' needs exactly one of a 'peo' and a 'hole' list"),
            ("chordal_cert", {"peo": 5}, "certificate and cover entries must be vertex ids"),
            ("covers", [5], "'covers' must be a list of covers"),
            ("covers", [[["a", 0]]], "certificate and cover entries must be vertex ids"),
            ("covers", [[[-1]]], "certificate and cover entries must be vertex ids"),
            ("covers", [[[10**15]]], "certificate and cover entries must be vertex ids"),
            ("covers", [[[0, 3, 6, 0], [1, 4, 7], [9], [2, 5, 8]]],
             "block 0 of cover 1 repeats a member"),
            ("widths", 5, "'widths' must be a list of integers"),
            ("lstar", "1", "'widths' must be a list of integers and 'lstar' an integer"),
        ],
        ids=["no-factors", "empty-cert", "peo-and-hole", "peo-not-a-list", "cover-not-a-list",
             "non-integer-block-id", "negative-block-id", "huge-block-id", "repeated-block-id",
             "widths-not-a-list", "lstar-not-an-integer"],
    )
    def test_exits_2(self, tmp_path, capsys, envelope, cmd, key, value, message):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({**envelope, key: value}))
        out = tmp_path / "out.json"
        argv = [cmd, str(f)] if cmd == "verify" else [cmd, str(f), "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


class TestOneParserPerProcess:
    def test_no_state_carried_between_calls(self, tmp_path):
        m1, m2, out = tmp_path / "m1.json", tmp_path / "m2.json", tmp_path / "g.json"
        assert run(["--seed", "7", "--manifest", str(m1),
                    "construct", "grid", "--n", "2", "--out", str(out)]) == 0
        assert run(["--manifest", str(m2), "construct", "grid", "--n", "2", "--out", str(out)]) == 0
        assert json.loads(m1.read_text())["seed"] == 7
        assert json.loads(m2.read_text())["seed"] == 0


class TestGcState:
    @pytest.fixture
    def envelope(self, tmp_path):
        f = tmp_path / "f.json"
        run(["factorize", "apex-grid", "--k", "1", "--n", "4", "--out", str(f)])
        return f

    def _tamper(self, f):
        obj = json.loads(f.read_text())
        del obj["factors"][1]["includes_base"]
        f.write_text(json.dumps(obj))

    @pytest.mark.parametrize("tampered", [False, True])
    def test_collector_back_on_and_on_while_verifying(self, envelope, monkeypatch, tampered):
        from ccwkit import cli

        seen = []

        def spy(f):
            seen.append(gc.isenabled())
            return verify_factorization(f)

        monkeypatch.setattr(cli, "verify_factorization", spy)
        if tampered:
            self._tamper(envelope)
        assert gc.isenabled()
        assert run(["verify", str(envelope)]) == (1 if tampered else 0)
        assert gc.isenabled() and seen == [True]

    def test_collector_left_off_when_the_caller_turned_it_off(self, envelope, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        gc.disable()
        try:
            assert run(["verify", str(envelope)]) == 0
            assert not gc.isenabled()
            assert run(["verify", str(bad)]) == 2
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestFailedVerification:
    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("env") / "f.json"
        assert run(["factorize", "apex-grid", "--k", "2", "--n", "4", "--out", str(f)]) == 0
        return json.loads(f.read_text())

    @pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
    def test_every_command_exits_1(self, tmp_path, capsys, envelope, cmd):
        g1, g2 = envelope["factors"]
        f = tmp_path / "f.json"  # factor 2 without the base's edges
        g2 = {key: v for key, v in g2.items() if key != "includes_base"}
        f.write_text(json.dumps({**envelope, "factors": [g1, g2]}))
        out, csvf = tmp_path / "out.json", tmp_path / "rows.csv"
        argv = {
            "verify": ["verify", str(f)],
            "separate": ["separate", str(f), "--out", str(out), "--csv", str(csvf)],
            "audit": ["audit", str(f), "--out", str(out)],
        }[cmd]
        assert run(argv) == 1
        err = capsys.readouterr().err
        if cmd == "verify":
            assert err == "verification failed: intersection\n"
        else:
            assert err.startswith("error: intersection: ")
        assert not out.exists() and not csvf.exists()

    TAMPERS = [
        lambda c: [c[0] + c[1]] + c[2:],
        lambda c: c[1:],
        lambda c: [c[0]] + c,
    ]
    TAMPER_IDS = ["merged-columns", "dropped-column", "repeated-column"]

    @pytest.mark.parametrize(
        "tamper, detail",
        zip(TAMPERS, [
            "block 0 is not a clique",
            "blocks do not cover V(g)",
            "blocks are not pairwise disjoint",
        ]),
        ids=TAMPER_IDS,
    )
    def test_invalid_cover(self, tmp_path, capsys, tamper, detail):
        # the same factorization as `envelope`, in the layout that lists
        # factor 2's cliques itself, so a tampered cover leaves factor 2 as it is
        envelope = json.loads((DATA / "blocks-twice-apex-grid-k2-n4.json").read_text())
        assert "includes_cover" not in envelope["factors"][1]
        f = tmp_path / "f.json"
        f.write_text(json.dumps({**envelope, "covers": [tamper(envelope["covers"][0])]}))
        assert run(["verify", str(f)]) == 1
        assert capsys.readouterr() == (
            "PASS vertex_sets: factors share the base vertex set\n"
            "PASS intersection: intersection of factors edge-equals base\n"
            "PASS chordal_certificate: factor 1 PEO verifies\n"
            f"FAIL cover_validity[1]: {detail}\n"
            "PASS lstar: lstar must equal max width\n",
            "verification failed: cover_validity[1]\n",
        )

    SHARED = "PASS vertex_sets: factors share the base vertex set\n"
    MEET = "PASS intersection: intersection of factors edge-equals base\n"
    PEO = "PASS chordal_certificate: factor 1 PEO verifies\n"
    LSTAR = "PASS lstar: lstar must equal max width\n"

    @pytest.mark.parametrize(
        "tamper, verdict",
        zip(TAMPERS, [
            (
                SHARED
                + "FAIL intersection: first differing edge (0,5) is not in base\n"
                + PEO
                + "PASS cover_validity[1]: cover verifies\n"
                + "PASS cover_width[1]: recomputed width 2, declared 2\n"
                + LSTAR,
                "verification failed: intersection\n",
            ),
            (
                SHARED + MEET + PEO + "FAIL cover_validity[1]: blocks do not cover V(g)\n" + LSTAR,
                "verification failed: cover_validity[1]\n",
            ),
            (
                SHARED + MEET + PEO + "FAIL cover_validity[1]: blocks are not pairwise disjoint\n"
                + LSTAR,
                "verification failed: cover_validity[1]\n",
            ),
        ]),
        ids=TAMPER_IDS,
    )
    def test_invalid_cover_of_a_factor_that_includes_it(
        self, tmp_path, capsys, envelope, tamper, verdict
    ):
        # factor 2 is the base plus its cover's blocks (`includes_cover`), so
        # merged columns become a clique of it, one that gives factor 2 an
        # edge factor 1 has and the base lacks
        assert envelope["factors"][1]["includes_cover"] is True
        f = tmp_path / "f.json"
        f.write_text(json.dumps({**envelope, "covers": [tamper(envelope["covers"][0])]}))
        assert run(["verify", str(f)]) == 1
        assert capsys.readouterr() == verdict


class TestEmptyOutPath:
    """`--out ""` names a path (the current directory), not stdout, for the
    JSON and the DOT form of `construct` alike: both exit 2."""

    @pytest.mark.parametrize("dot", [[], ["--dot"]], ids=["json", "dot"])
    def test_exits_2(self, capsys, dot):
        assert run(["construct", "grid", "--n", "2", *dot, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
