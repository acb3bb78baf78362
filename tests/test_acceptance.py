"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import time

import networkx as nx
import pytest

from ccwkit import (
    Graph,
    apex_grid,
    bandwidth_exact,
    ccw_exact,
    example3_i,
    example3_ii,
    factorize_apex_grid,
    factorize_clique_sum,
    intersect_graphs,
    is_chordal,
    is_clique,
    separate,
    verify_factorization,
    verify_peo,
)
from ccwkit.cli import main as cli_main

from oracles import brute_ccw, brute_maximal_cliques


def _report(name, detail=""):
    print(f"ACCEPTANCE PASS {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_theorem_3ii_sweep():
    """Factor 1 chordal, exact intersection, width <= ceil(n/2) + k over the
    full (n, k, apex-edge) sweep, in under 30 s."""
    rng = random.Random(20260826)
    start = time.monotonic()
    count = 0
    for n in range(2, 21):
        for k in range(0, 6):
            pairs = list(itertools.combinations(range(1, k + 1), 2))
            for _ in range(5):
                apex_edges = {p for p in pairs if rng.random() < 0.5}
                f = factorize_apex_grid(k, n, apex_edges)
                assert f.chordal_cert.peo is not None
                assert verify_peo(f.factors[0], f.chordal_cert.peo) is None
                assert intersect_graphs(list(f.factors)) == apex_grid(k, n, apex_edges)
                assert f.widths[0] <= (n + 1) // 2 + k
                count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"sweep took {elapsed:.1f}s"
    _report("criterion-1", f"{count} factorizations in {elapsed:.1f}s")


def test_criterion_2_theorem_5_sweep():
    """Merged cover width <= sum(n_i + k_i), intersection equality, chordal G1
    for clique sums of two and three parts."""
    count = 0
    for t in (2, 3):
        for k in (1, 2):
            for ns in itertools.combinations_with_replacement(range(3, 9), t):
                f = factorize_clique_sum([(k, n) for n in ns])
                assert f.widths[0] <= sum(n + k for n in ns)
                assert intersect_graphs(list(f.factors)) == f.base
                ok, _ = is_chordal(f.factors[0])
                assert ok
                count += 1
    _report("criterion-2", f"{count} clique sums")


def _from_nx(g):
    nodes = sorted(g.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    return Graph.from_edges(len(nodes), [(idx[u], idx[v]) for u, v in g.edges()])


def test_criterion_3_ccw_bandwidth_oracle_suite():
    """ccw <= bw on every connected graph with at most 6 vertices (atlas,
    exhaustive up to isomorphism), complete graphs at 0, and the named small
    values matched against the brute-force ordered-cover enumerator."""
    atlas = nx.generators.atlas.graph_atlas_g()
    checked = 0
    for g in atlas:
        if not 1 <= g.number_of_nodes() <= 6 or not nx.is_connected(g):
            continue
        gg = _from_nx(g)
        ccw_res, _ = ccw_exact(gg)
        bw_res, _ = bandwidth_exact(gg)
        assert ccw_res.exact and bw_res.exact
        assert ccw_res.value <= bw_res.value
        checked += 1
    assert checked == 1 + 1 + 2 + 6 + 21 + 112

    for m in range(1, 7):
        km = Graph.from_edges(m, list(itertools.combinations(range(m), 2)))
        assert ccw_exact(km)[0].value == 0

    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    k13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for g, expect in [(p3, 1), (c4, 1), (k13, 1)]:
        assert brute_ccw(g) == expect
        assert ccw_exact(g)[0].value == expect
    _report("criterion-3", f"{checked} connected graphs <= 6 vertices")


def test_criterion_4_separator_contract():
    """2/3-balanced sides, verified clique partition of the separator, and the
    generous-constant clique-count bound, in under 10 s."""
    start = time.monotonic()
    rows = []
    for n in (8, 12, 16, 20, 24):
        f = factorize_apex_grid(1, n)
        big_n = n * n + 1
        r = separate(f)
        assert len(r.side_a) <= -(-2 * big_n // 3)
        assert len(r.side_b) <= -(-2 * big_n // 3)
        covered = set()
        for c in r.separator_cliques:
            assert is_clique(f.base, c)
            assert not covered & c
            covered |= c
        assert covered == set(r.separator)
        lstar = n // 2 + 1
        assert len(r.separator_cliques) <= 4 * (lstar * big_n) ** 0.5
        rows.append((n, len(r.separator_cliques)))
        assert len(r.separator_cliques) <= n + 1  # observed on this family
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"separator sweep took {elapsed:.1f}s"
    _report("criterion-4", f"clique counts {rows} in {elapsed:.1f}s")


def test_criterion_5_lower_bound_audit():
    """Audit reports: grid clique of two full rows, independent half, and
    |B_2| = n cover blocks; small cases cross-checked by brute force."""
    from ccwkit import audit_lower_bound, induced_subgraph

    for n in range(4, 13):
        f = factorize_apex_grid(1, n)
        rep = audit_lower_bound(f)
        assert rep.grid_clique_size == 2 * n
        assert rep.indep_size >= n
        assert rep.restricted_cover_sizes == (n,)
        assert rep.restricted_cover_sizes[0] >= n  # d=2 instantiation
        if n <= 5:
            sub, _ = induced_subgraph(f.factors[0], range(n * n))
            assert rep.grid_clique_size == max(
                len(c) for c in brute_maximal_cliques(sub)
            )
    _report("criterion-5", "n in 4..12")


def test_criterion_6_example3_suite():
    for n, k in [(2, 2), (3, 4), (4, 3), (5, 2)]:
        f = example3_i(n, k)
        assert all(ok for _, ok, _ in verify_factorization(f))
        assert f.widths[0] == 1
        base = nx.empty_graph(f.base.n)
        base.add_edges_from(f.base.edges())
        d = nx.diameter(base)
        assert k - 1 <= d <= k + 2
    for n, k in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        f = example3_ii(n, k)
        assert all(ok for _, ok, _ in verify_factorization(f))
        assert f.widths[0] == 1
        assert f.base.n == n * n * k
    _report("criterion-6")


def test_criterion_7_fault_injection(tmp_path, capsys):
    """cmd_verify rejects each injected fault with the right named failure."""
    src = tmp_path / "good.json"
    assert cli_main(
        ["factorize", "apex-grid", "--k", "1", "--n", "5", "--out", str(src)]
    ) == 0
    good = json.loads(src.read_text())

    def run_tampered(mutate, expect_name):
        obj = json.loads(src.read_text())
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = cli_main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"verification failed: {expect_name}" in captured.err, captured.err

    # one base edge added (a non-edge of the intersection); a factor that
    # includes the base would gain it too, so each lists the base's edges
    # as its own first
    def add_base_edge(obj):
        edges = {tuple(e) for e in obj["base"]["edges"]}
        extra = next(
            (u, v)
            for u in range(obj["base"]["n"])
            for v in range(u + 1, obj["base"]["n"])
            if (u, v) not in edges
        )
        for g in obj["factors"]:
            if g.pop("includes_base", False):
                g["edges"] += obj["base"]["edges"]
        obj["base"]["edges"].append(list(extra))

    run_tampered(add_base_edge, "intersection")

    # factor 2 without the base's edges (edges the base needs)
    def drop_factor_base(obj):
        del obj["factors"][1]["includes_base"]

    run_tampered(drop_factor_base, "intersection")

    # one cover block split across non-adjacent positions
    def split_cover_block(obj):
        cover = obj["covers"][0]
        blk = max(cover, key=len)
        i = cover.index(blk)
        cover[i] = blk[: len(blk) // 2]
        cover.append(blk[len(blk) // 2 :])

    run_tampered(split_cover_block, "cover_width[1]")

    # perturbed perfect elimination ordering
    def perturb_peo(obj):
        peo = obj["chordal_cert"]["peo"]
        peo[0], peo[-1] = peo[-1], peo[0]

    run_tampered(perturb_peo, "chordal_certificate")
    _report("criterion-7")
