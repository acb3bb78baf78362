"""Every grid factorization comes from one builder, and `grid` and
`apex_grid` return its base.  These tests hold its outputs to the
independent definitions (the per-pair oracles of both apex-grid factors,
whose edge intersection is the base, `clique_sum` and a per-pair oracle of
the blown-up grid), hold factor 2's cover to the optimum (the exact
search on small apex grids, and the floor of a complete apex set, with its
witness, on clique sums), pin the bytes of a few envelopes per family and
of `construct grid` and `construct apex-grid`, and pin every bad-parameter
error: type, message and which check comes first."""

import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccwkit import (
    Apex,
    Factorization,
    Graph,
    GridCell,
    apex_grid,
    ccw_exact,
    clique_sum,
    example3_i,
    example3_ii,
    factorize_apex_grid,
    factorize_clique_sum,
    grid,
    is_independent,
)
from ccwkit.cli import _dump, main
from ccwkit.errors import InvalidApexEdge, InvalidSize, UnequalApexSizes
from ccwkit.graph import label_to_json

from oracles import apex_grid_factors, blown_up_grid, complete_apex_edges, relabeled


def apex_pairs(k):
    return sorted(itertools.combinations(range(1, k + 1), 2))


@st.composite
def apex_edge_sets(draw, k):
    """A subset of the apex pairs, each drawn in either orientation."""
    pairs = draw(st.lists(st.sampled_from(apex_pairs(k)), unique=True)) if k > 1 else []
    return {(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs}


def oracle_base(k, n, edges):
    """The apex grid as the edge intersection of the per-pair oracle's two
    factors, with the oracle's labels."""
    g1, g2, _ = apex_grid_factors(k, [n], edges)
    return Graph.from_edges(g1.n, set(g1.edges()) & set(g2.edges()), g1.labels)


class TestAgainstDefinitions:
    @settings(deadline=None)  # the example count comes from the active profile
    @given(st.data())
    def test_apex_grid_base(self, data):
        k = data.draw(st.integers(0, 3))
        n = data.draw(st.integers(1, 8))
        edges = data.draw(apex_edge_sets(k))
        assert apex_grid(k, n, edges) == oracle_base(k, n, edges)
        if n >= 2:
            assert factorize_apex_grid(k, n, edges).base == oracle_base(k, n, edges)
        if k == 0:
            assert grid(n) == oracle_base(0, n, set())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_clique_sum_base(self, data):
        k = data.draw(st.integers(1, 3))
        sizes = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
        removed = data.draw(apex_edge_sets(k))
        f = factorize_clique_sum([(k, n) for n in sizes], sorted(removed))

        full = complete_apex_edges(k)
        if len(sizes) == 1:
            expected = apex_grid(k, sizes[0], full - {tuple(sorted(e)) for e in removed})
        else:
            # apex j of every later part is apex j of part 0; the removed
            # edges come off after the last sum, so no later part restores them
            a0 = sizes[0] ** 2
            junctions = [[(a0 + j, n * n + j) for j in range(k)] for n in sizes[1:]]
            dropped = [(a0 + a - 1, a0 + b - 1) for a, b in removed]
            expected = clique_sum(
                [relabeled(apex_grid(k, n, full), i) for i, n in enumerate(sizes)],
                junctions,
                [[] for _ in junctions[1:]] + [dropped],
            )
        assert f.base == expected

    @settings(deadline=None)  # the example count comes from the active profile
    @given(st.data())
    def test_factors_and_cover(self, data):
        k = data.draw(st.integers(0, 3))
        # a clique sum needs k >= 1, so with k = 0 there is one part
        sizes = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=4 if k else 1))
        edges = {tuple(sorted(e)) for e in data.draw(apex_edge_sets(k))}
        if len(sizes) == 1 and (k == 0 or data.draw(st.booleans())):
            f = factorize_apex_grid(k, sizes[0], edges)
        else:
            f = factorize_clique_sum([(k, n) for n in sizes], complete_apex_edges(k) - edges)
        g1, g2, cover = apex_grid_factors(k, sizes, edges)
        assert f.factors == (g1, g2)
        assert f.covers[0].to_json() == cover

    @pytest.mark.parametrize("n, b", [(n, b) for n in range(1, 5) for b in range(1, 4)])
    def test_example3_ii(self, n, b):
        f = example3_ii(n, b)
        assert (f.base, *f.factors) == blown_up_grid(n, b)
        columns = [[x for x in range(n * n * b) if x // b % n == c] for c in range(n)]
        assert f.covers[0].to_json() == columns


class TestOptimalCover:
    """Factor 2's cover puts the N columns of all parts in one line with the
    apex cliques at its middle.  With a complete apex set its width is
    ceil((N - 1) / 2), which no ordered clique cover of factor 2 beats: the
    N diagonal cells are independent there and all adjacent to apex 1, so
    they take N blocks within the width of apex 1's.  With any apex set the
    width is the farther end of the line from the outermost apex class."""

    @pytest.mark.parametrize("apexes", ["none", "complete"])
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("n", range(2, 5))
    def test_small_apex_grids_meet_the_exact_width(self, n, k, apexes):
        f = factorize_apex_grid(k, n, complete_apex_edges(k) if apexes == "complete" else set())
        result, _ = ccw_exact(f.factors[1])
        assert result.exact and f.lstar == result.value

    @settings(deadline=None)  # the example count comes from the active profile
    @given(st.integers(1, 4), st.lists(st.integers(2, 6), min_size=1, max_size=5))
    def test_complete_apex_sets_meet_the_floor(self, k, sizes):
        f = factorize_clique_sum([(k, n) for n in sizes])
        g2, labels = f.factors[1], f.base.labels
        diagonal = [v for v, lbl in enumerate(labels)
                    if isinstance(lbl, GridCell) and lbl.row == lbl.col]
        near_apex = g2.adj_mask(labels.index(Apex(0, 1)))
        assert len(diagonal) == sum(sizes) and is_independent(g2, diagonal)
        assert all(near_apex >> v & 1 for v in diagonal)
        assert f.lstar == math.ceil((len(diagonal) - 1) / 2)

    @settings(deadline=None)  # the example count comes from the active profile
    @given(st.data())
    def test_width_for_any_apex_set(self, data):
        k = data.draw(st.integers(1, 7))
        sizes = data.draw(st.lists(st.integers(2, 7), min_size=1, max_size=4))
        edges = {tuple(sorted(e)) for e in data.draw(apex_edge_sets(k))}
        if len(sizes) == 1 and data.draw(st.booleans()):
            f = factorize_apex_grid(k, sizes[0], edges)
        else:
            f = factorize_clique_sum([(k, n) for n in sizes], complete_apex_edges(k) - edges)
        # greedy apex classes: the lowest apex left, then each later one
        # adjacent to every apex already taken
        c, left = 0, list(range(1, k + 1))
        while left:
            taken = []
            for a in left:
                if all((b, a) in edges for b in taken):
                    taken.append(a)
            left = [a for a in left if a not in taken]
            c += 1
        big_n = sum(sizes)
        m = (big_n - 1) // 2
        if c <= big_n:
            assert f.lstar == max(m + c // 2, big_n - 1 - m + (c - 1) // 2)


# sha256 of each envelope as `cli._dump` wrote it with every graph as a plain
# edge list, taken before the grid factorizations shared one builder; the
# apex-grid entries with k >= 1 and the clique sums were taken again when
# factor 2's cover became one line with the apex cliques at its middle
GOLDEN = {
    ("apex-grid", "--k", "0", "--n", "2"):
        "eb60cf1a47d1e434b23782ea1aa49b80542704ac3001a84b14aefde9faa5a1fd",
    ("apex-grid", "--k", "1", "--n", "5"):
        "531179b9ab1beacab5f2b4dc3f1bb95518d9226ecda5e016677640a797556003",
    ("apex-grid", "--k", "2", "--n", "6", "--apex-edges", "1-2"):
        "079f653a63bb1259374603331177839af7546cbcb2861fabe9807c8ffd2efbb9",
    ("apex-grid", "--k", "3", "--n", "7", "--apex-edges", "1-3,2-3"):
        "586727e84cf95d37e821faea0e6803bae24086943fcdd0e832ef8d2a7230a04b",
    ("clique-sum", "--parts", "1:4,1:6"):
        "ecbad780083630f91e283e73f76a1025246c77057552affdb8d4fcf453e8ec3b",
    ("clique-sum", "--parts", "2:3,2:4,2:3", "--removed-edges", "1-2"):
        "83e6263f16ef2c2b9a0b39d43467f81299525b2c8c362ef5fb208c8d48a56174",
    ("clique-sum", "--parts", "3:2,3:5", "--removed-edges", "1-3,2-3"):
        "9048855c34db24b2b321d046df50bf16fb106e5379da411c45988042b959f1cd",
    ("example3ii", "--n", "1", "--k", "3"):
        "41c08de06cbf3f930f3faf46b1243c02343d5123c5cf9c9921db5a41d6392eb0",
    ("example3ii", "--n", "3", "--k", "2"):
        "82ff9a144e0d406b6fc2a107e72a6fd8446d4bf54bb4c870c1a09d7ea05f07d6",
    ("example3ii", "--n", "4", "--k", "3"):
        "369092a3fb51b4fde88523284be81c0e4afe684940054b5c776dccc10dc32261",
}

# sha256 of the same envelopes with each factor written as the base plus its
# cliques (`includes_base`; the bags of factor 1, the cover blocks of factor 2
# as they are) and no leftover edge, without the labels it shares with the
# base, and the base's grid and apex labels written as runs (the clique sums'
# later parts pin the runs of labels with part > 0)
CLIQUE_ENCODED = {
    ("apex-grid", "--k", "0", "--n", "2"):
        "e3c65c983d97293a3af6f6164d610e65b7c108032fda36039d1f7d4e634f4720",
    ("apex-grid", "--k", "1", "--n", "5"):
        "8b04cfaa247fec003b86200045be28acd1e6d8fb1b2564ca3aea443cb3337e96",
    ("apex-grid", "--k", "2", "--n", "6", "--apex-edges", "1-2"):
        "e92f13e306381737a0bdc2f1f6019fabbf9af126e8246e6be214505b978c6608",
    ("apex-grid", "--k", "3", "--n", "7", "--apex-edges", "1-3,2-3"):
        "d8000d57437d9f958c60d80730dec95d80758278d1fc99e4a941cf2e9a687b5b",
    ("clique-sum", "--parts", "1:4,1:6"):
        "8e4ea24865fbb5202c53b1719d4016e6529140aa09fa40848fe0eccf75cd4d42",
    ("clique-sum", "--parts", "2:3,2:4,2:3", "--removed-edges", "1-2"):
        "381ce5a9e35730410630433192c00fca0d7cfd1cdc799658868221d9c27dcf98",
    ("clique-sum", "--parts", "3:2,3:5", "--removed-edges", "1-3,2-3"):
        "fbc4f715729b40358e821eed75b3110497d1ebc1e38e048b071c92fa6b2dbac4",
    ("example3ii", "--n", "1", "--k", "3"):
        "5e6ca741334a434135ecb954dd642dbfb5a869f4b635f3a0ecaafedc241ce576",
    ("example3ii", "--n", "3", "--k", "2"):
        "bf2d5896cc0e8db3783d6a2316cd209b49e712ca68d7e970f0bee819af034802",
    ("example3ii", "--n", "4", "--k", "3"):
        "4da6a12612e256faec25b0f425e19d5620a94035de588902423df53d6d568aa9",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def edge_only(path):
    """The envelope at `path` decoded, then written back with every graph
    as a plain edge list with one label dict per label, the form GOLDEN was
    taken in."""
    obj = json.loads(path.read_text())
    f = Factorization.from_json(obj)

    def plain(g):
        return {**g.to_json(), "labels": [label_to_json(lbl) for lbl in g.labels]}

    legacy = {
        "base": plain(f.base),
        "factors": [plain(g) for g in f.factors],
        "chordal_cert": f.chordal_cert.to_json(),
        "covers": [c.to_json() for c in f.covers],
        "widths": list(f.widths),
        "lstar": f.lstar,
    }
    if "meta" in obj:
        legacy["meta"] = obj["meta"]
    out = path.with_name("edge-only.json")
    _dump(legacy, str(out))
    return out


class TestGolden:
    @pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
    def test_factorize_envelope(self, tmp_path, argv):
        out = tmp_path / "f.json"
        assert main(["factorize", *argv, "--out", str(out)]) == 0
        assert sha256_of(out) == CLIQUE_ENCODED[argv]
        assert sha256_of(edge_only(out)) == GOLDEN[argv]

    @pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
    def test_no_clique_written_twice(self, tmp_path, argv):
        out = tmp_path / "f.json"
        assert main(["factorize", *argv, "--out", str(out)]) == 0
        for g in json.loads(out.read_text())["factors"]:
            cliques = [tuple(c) for c in g.get("cliques", [])]
            assert len(set(cliques)) == len(cliques)


def construct_cases(family):
    """`construct` argvs for n = 1-8 (and k = 0-3 for apex-grid, each k
    without apex edges, with all of them and, for k = 3, with two)."""
    if family == "grid":
        return [["grid", "--n", str(n)] for n in range(1, 9)]
    edge_sets = {0: [None], 1: [None], 2: [None, "1-2"], 3: [None, "1-2,1-3,2-3", "2-1,3-1"]}
    return [
        ["apex-grid", "--k", str(k), "--n", str(n), *(["--apex-edges", e] if e else [])]
        for n in range(1, 9) for k, sets in edge_sets.items() for e in sets
    ]


# sha256 of the concatenated `construct` outputs of `construct_cases`, taken
# before `grid` and `apex_grid` became the factorization builder's base
CONSTRUCT_DIGESTS = {
    ("grid", "json"): "e40d2ac186f34745afb58db5b86a31f8fd78894c3bb729ba348dd40c85bb4340",
    ("grid", "dot"): "a190ec7763d8485c76fad196690f67e720eafb888be809742e2dee755f0630f6",
    ("apex-grid", "json"): "fab60ede5e465ba6328b3f13cf7f66c15d9893c71d83306651e5fbf63a9962dd",
    ("apex-grid", "dot"): "1557e560c0715f00ccb0c41ecadd93ceca2bb172a95f8492738db7cfc28d7b9f",
}


@pytest.mark.parametrize("family, form", CONSTRUCT_DIGESTS, ids="-".join)
def test_construct_bytes(tmp_path, family, form):
    digest = hashlib.sha256()
    for i, argv in enumerate(construct_cases(family)):
        out = tmp_path / f"{i}.{form}"
        dot = ["--dot"] if form == "dot" else []
        assert main(["construct", *argv, *dot, "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == CONSTRUCT_DIGESTS[family, form]


def sum_of(*parts, removed=()):
    return lambda: factorize_clique_sum(parts, removed)


BAD_PARAMETERS = {
    # the first failing check wins where several would fail
    "apex-grid n < 2": (lambda: factorize_apex_grid(-1, 1, {(0, 1)}),
                        InvalidSize, "factorize_apex_grid requires n >= 2"),
    "apex-grid k < 0": (lambda: factorize_apex_grid(-1, 3, {(0, 1)}),
                        InvalidSize, "factorize_apex_grid requires k >= 0"),
    "apex-grid apex out of range": (lambda: factorize_apex_grid(1, 3, {(1, 2)}),
                                    InvalidApexEdge, "apex edge (1,2) invalid for k=1"),
    "apex-grid apex loop": (lambda: factorize_apex_grid(2, 3, {(2, 2)}),
                            InvalidApexEdge, "apex edge (2,2) invalid for k=2"),
    "sum no parts": (sum_of(), InvalidSize, "factorize_clique_sum needs at least one part"),
    "sum unequal k": (sum_of((1, 1), (2, 3), removed=((0, 0),)),
                      UnequalApexSizes, "all parts must share one apex size, got [1, 2]"),
    "sum k < 1": (sum_of((0, 1), (0, 3), removed=((0, 0),)),
                  InvalidSize, "factorize_clique_sum requires n >= 2"),
    "sum k < 1, every n >= 2": (sum_of((0, 2), (0, 3), removed=((0, 0),)),
                                InvalidSize, "factorize_clique_sum requires k >= 1"),
    "sum bad removed edge": (sum_of((2, 1), (2, 3), removed=((1, 3),)),
                             InvalidSize, "factorize_clique_sum requires n >= 2"),
    "sum bad removed edge, every n >= 2": (sum_of((2, 2), (2, 3), removed=((1, 3),)),
                                           InvalidApexEdge, "apex edge (1,3) invalid for k=2"),
    "sum n < 2": (sum_of((2, 3), (2, 1)), InvalidSize, "factorize_clique_sum requires n >= 2"),
    "example3_ii n < 1": (lambda: example3_ii(0, 2),
                          InvalidSize, "example3_ii requires n, k >= 1"),
    "example3_ii k < 1": (lambda: example3_ii(2, 0),
                          InvalidSize, "example3_ii requires n, k >= 1"),
    "example3_i n < 1": (lambda: example3_i(0, 2), InvalidSize, "example3_i requires n, k >= 1"),
    "apex_grid n < 1": (lambda: apex_grid(-1, 0, {(0, 1)}),
                        InvalidSize, "apex_grid requires n >= 1"),
    "apex_grid k < 0": (lambda: apex_grid(-1, 2, {(0, 1)}),
                        InvalidSize, "apex_grid requires k >= 0"),
    "apex_grid bad apex edge": (lambda: apex_grid(1, 2, {(1, 2)}),
                                InvalidApexEdge, "apex edge (1,2) invalid for k=1"),
    "grid n < 1": (lambda: grid(0), InvalidSize, "grid requires n >= 1"),
    # ints only: a float fails in `range` or `<<`, and a bool reads as 0 or 1
    "apex_grid float apex": (lambda: apex_grid(2, 3, {(1.0, 2)}),
                             InvalidApexEdge, "apex edge (1.0,2) invalid for k=2"),
    "apex-grid float k": (lambda: factorize_apex_grid(2.0, 3),
                          InvalidSize, "factorize_apex_grid: k must be an integer, not 2.0"),
    "apex-grid bool n": (lambda: factorize_apex_grid(2, True),
                         InvalidSize, "factorize_apex_grid: n must be an integer, not True"),
    "sum bool apex": (sum_of((2, 3), removed=((True, 2),)),
                      InvalidApexEdge, "apex edge (True,2) invalid for k=2"),
    "sum bool k": (sum_of((1, 3), (True, 3)),
                   InvalidSize, "factorize_clique_sum: k must be an integer, not True"),
    "sum string n": (sum_of((1, "3")),
                     InvalidSize, "factorize_clique_sum: n must be an integer, not '3'"),
    "grid float n": (lambda: grid(2.0), InvalidSize, "grid: n must be an integer, not 2.0"),
    # a malformed part or apex pair is named at the step that checks its items
    "apex_grid apex triple": (lambda: apex_grid(2, 3, {(1, 2, 3)}),
                              InvalidApexEdge, "apex edge (1, 2, 3) invalid for k=2"),
    "sum one-item part": (sum_of((1,)),
                          InvalidSize, "factorize_clique_sum: part (1,) is not a (k, n) pair"),
    "apex_grid int apex": (lambda: apex_grid(2, 3, [1]),
                           InvalidApexEdge, "apex edge 1 invalid for k=2"),
    "sum string n before a short part": (sum_of((1, "3"), (1,)),
                                         InvalidSize,
                                         "factorize_clique_sum: n must be an integer, not '3'"),
    "sum n < 2 before an apex triple": (sum_of((2, 1), removed=((1, 2, 3),)),
                                        InvalidSize, "factorize_clique_sum requires n >= 2"),
    "example3_i bool k": (lambda: example3_i(2, True),
                          InvalidSize, "example3_i: k must be an integer, not True"),
    "example3_ii float n": (lambda: example3_ii(2.5, 1),
                            InvalidSize, "example3_ii: n must be an integer, not 2.5"),
}


class TestBadParameters:
    @pytest.mark.parametrize("build, error, message", BAD_PARAMETERS.values(),
                             ids=BAD_PARAMETERS.keys())
    def test_same_error(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "parts, message",
        [("2:3,2:1", "factorize_clique_sum requires n >= 2"),
         ("0:3,0:3", "factorize_clique_sum requires k >= 1")],
        ids=["sum n < 2", "sum k < 1"],
    )
    def test_cli_error_line(self, tmp_path, capsys, parts, message):
        out = tmp_path / "f.json"
        assert main(["factorize", "clique-sum", "--parts", parts, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
