"""Every grid factorization comes from one builder, and `grid` and
`apex_grid` return its base.  These tests hold its outputs to the
independent definitions (the per-pair oracles of both apex-grid factors,
whose edge intersection is the base, `clique_sum` and a per-pair oracle of
the blown-up grid), hold factor 2's cover to the optimum (the exact
search on small apex grids, and the floor of a complete apex set, with its
witness, on clique sums), pin the bytes of a few envelopes per family, of
what `separate` and `audit` print for them, and of `construct grid` and
`construct apex-grid`, and pin every bad-parameter error: type, message and
which check comes first."""

import hashlib
import itertools
import json
import math
import random

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
# factor 2's cover became one line with the apex cliques at its middle, and
# again when factor 1's PEO became the stated order (`_make_factorization`),
# which only permutes `chordal_cert.peo`
GOLDEN = {
    ("apex-grid", "--k", "0", "--n", "2"):
        "eb60cf1a47d1e434b23782ea1aa49b80542704ac3001a84b14aefde9faa5a1fd",
    ("apex-grid", "--k", "1", "--n", "5"):
        "66e67fbb140a8887452b1fe923aaabcb3b2802593a273d9b65fd887ea86d1304",
    ("apex-grid", "--k", "2", "--n", "6", "--apex-edges", "1-2"):
        "807e5fab0eebdfc9282204e7e99adcb462181199ddedf646aa52626dec9d483d",
    ("apex-grid", "--k", "3", "--n", "7", "--apex-edges", "1-3,2-3"):
        "cb457e8a3cbb592bde21e597e819de2b5456cf0630cca6dcf929ac5ad459e29a",
    ("clique-sum", "--parts", "1:4,1:6"):
        "a8d6d334eb1efcd553a77b693a41d3be628bc9623493883441faec72bf9ffcde",
    ("clique-sum", "--parts", "2:3,2:4,2:3", "--removed-edges", "1-2"):
        "e67442ff0e81440630af322013c462ffc6066eb92ffa4b4ec76290f34ab41d1c",
    ("clique-sum", "--parts", "3:2,3:5", "--removed-edges", "1-3,2-3"):
        "71bd3a881759602b53e2501096c6f79aa9063a37207408d2eb569c64131d4170",
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
# later parts pin the runs of labels with part > 0); the apex-grid entries
# with k >= 1 and the clique sums were taken again with the stated PEO, and
# every entry again when the certificate, the cover blocks and the cliques
# came to be written as id runs (`graph.ids_to_json`) and factor 1, whose
# bags cover every edge it has, lost `includes_base`, and again when factor
# 2 came to be written as `includes_cover` in place of its blocks' cliques,
# which `covers` already holds; GOLDEN, the decoded re-dump, did not move
CLIQUE_ENCODED = {
    ("apex-grid", "--k", "0", "--n", "2"):
        "91c4d3e58f7275bd15ed53d810ea11a40a5c69eacf28f999131f03aa1ae56e2f",
    ("apex-grid", "--k", "1", "--n", "5"):
        "18bfc83f4e04c947c617da106f821ebe4b6362a6728dfacb2df9b9fd1e3c69bc",
    ("apex-grid", "--k", "2", "--n", "6", "--apex-edges", "1-2"):
        "7004cf2c5ab770c6ba9f697ec20158ddbc73c966dc41a79469fa6ecb5ac1c5e4",
    ("apex-grid", "--k", "3", "--n", "7", "--apex-edges", "1-3,2-3"):
        "36041d46b73a77f8633547b41c819882c52f0daf78d63db8436a37383409c369",
    ("clique-sum", "--parts", "1:4,1:6"):
        "a2e1a67f208a1ca76319c7f242f2ca738103a3e9fc729cdc5a669e7b9e0fb87b",
    ("clique-sum", "--parts", "2:3,2:4,2:3", "--removed-edges", "1-2"):
        "f6cd2afbcb750460600e50b7fedf69305563a3ae2a48f83c45472627b6a060ae",
    ("clique-sum", "--parts", "3:2,3:5", "--removed-edges", "1-3,2-3"):
        "9f42b3e73bcb2edd0848cfe4fdcb60535dd36242f86fd3dfc7d6396e3cc3d410",
    ("example3ii", "--n", "1", "--k", "3"):
        "00af3edc105d34d19155de2daea5bd269af46824d82c14673f6be2248da5e27d",
    ("example3ii", "--n", "3", "--k", "2"):
        "1519f8f8d0b319c8825d3e260ce2edc01595221ed6a2a1d64bb0f099c1915718",
    ("example3ii", "--n", "4", "--k", "3"):
        "a9ec9da10f20bb6579787b3ec2d74682b183b38ec1b2701af73171c3e8d14636",
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
        obj = json.loads(out.read_text())
        for g in obj["factors"]:
            # an id list is written one way only (`graph.ids_to_json`), so
            # one clique written twice is one JSON text written twice
            cliques = [json.dumps(c) for c in g.get("cliques", [])]
            assert len(set(cliques)) == len(cliques)
        # factor 2's cliques are its cover's blocks, which only `covers` lists
        assert obj["factors"][1]["includes_cover"] is True
        assert "cliques" not in obj["factors"][1]


def weights_for(n):
    """Seeded vertex weights in 1..9 for n vertices."""
    rng = random.Random(1)
    return [rng.randint(1, 9) for _ in range(n)]


# sha256 of what `separate` (uniform weights, then `weights_for`) and `audit
# --apex 1` print for each GOLDEN envelope: the exit code and a newline, then
# stdout, then stderr (`audit` exits 2 with `error: no apex with index 1` where
# the base has no apex); taken while factor 1's PEO was its reversed Lex-BFS
# order, so they pin that the stated order moved no separator or grid clique
COMMAND_DIGESTS = {
    ("apex-grid", "--k", "0", "--n", "2"): (
        "363322e2e7161b65742a9a9545a11aad31d32b34bc89da73ef8e2d6c2ab78da2",
        "89c121f96ce749c7f96e4255049894299dc8a2b384b7c36370c9c7aa34d2bd3c",
        "4e960bb471ae014ecc6803e475dc5139eb64051c6d3bfeae151f1e406111e3fa",
    ),
    ("apex-grid", "--k", "1", "--n", "5"): (
        "078ee370fb80e54eeeb7e818eef544d2001f9e3303eda9440d57f1e221c1e049",
        "a974d2f39ce45e1eaa5277c4d8ce182133da51bebdd42714e1226423382c61cd",
        "e0a2049134857b676852713583c22cb631666c66800b3b0b9bdea06543ae440f",
    ),
    ("apex-grid", "--k", "2", "--n", "6", "--apex-edges", "1-2"): (
        "5afcd1feb2fea1e70e571cb02e5fce179953f67a90293dfdd3f36c1714856156",
        "6f37830481ac8b472dba4da192f298775ec82a346e9610b59f95430d16d593f8",
        "145c17db2cc07e715e3a16fd014bb2a8077c8d62a77f5eeef2a32199039b70fc",
    ),
    ("apex-grid", "--k", "3", "--n", "7", "--apex-edges", "1-3,2-3"): (
        "88410db7a2be52f8b268add81bee704167aa84abf50cd21ba479deaff046cb60",
        "53aca3b4c10b243caa10bf8b420aefe8ec8b45428e9eb683d035767698fceadf",
        "06d5a03d2568dc635cebbc1e3eae3ad22ebc0b0e660136d7fce5377334d2068b",
    ),
    ("clique-sum", "--parts", "1:4,1:6"): (
        "2ba4698d52ca84fef002face8e3ef735c8eb197f4f774bdadae5142405ad13f4",
        "f38808c6a53b8a3c440be84ed469150a877fd55649ffedb14603dd499384dfce",
        "145c17db2cc07e715e3a16fd014bb2a8077c8d62a77f5eeef2a32199039b70fc",
    ),
    ("clique-sum", "--parts", "2:3,2:4,2:3", "--removed-edges", "1-2"): (
        "f350cc3253bde720f21c7322939c3c11db521d0ee94017c543c91ccfea2b6a0b",
        "4be0c38aad68aaed69567666f5736b0241a5f5438fb7ce58c97c6fdf8ab9eeed",
        "0ab52e1e37fdb0338303ce74096a2c94103642dae3670966c69637d049585ebb",
    ),
    ("clique-sum", "--parts", "3:2,3:5", "--removed-edges", "1-3,2-3"): (
        "237777f6ecf8398df713a13d75641ea0a556068ab05a5ae625f463ab6db0793f",
        "67d69e121fc2abd36915d9a4560ae8afc023ac61dce343e69365ee3507e773b5",
        "e0a2049134857b676852713583c22cb631666c66800b3b0b9bdea06543ae440f",
    ),
    ("example3ii", "--n", "1", "--k", "3"): (
        "dcea772ff56694cb8ea77b5544671d68dc8608eb245e82ad087c270a846e3979",
        "6680bf4e09dc7995703459cac5f0f8765aceb4b7e3b46b83f5c5d0099863f4cd",
        "4e960bb471ae014ecc6803e475dc5139eb64051c6d3bfeae151f1e406111e3fa",
    ),
    ("example3ii", "--n", "3", "--k", "2"): (
        "64cf62abd8e893bb9b40b55d83d9a8a4465b3f7bd90c9dad867806e09f465bdb",
        "ffc5223baf0938ad4715f1c769301e5c8800b2553b714df6d0690e0ff7d71c3f",
        "4e960bb471ae014ecc6803e475dc5139eb64051c6d3bfeae151f1e406111e3fa",
    ),
    ("example3ii", "--n", "4", "--k", "3"): (
        "eafde5f403ac3027c0cb3d0f96d4b2a1ebc9f3acaa33f9d27bbd5290912de0df",
        "bc64260fbe8c8f6d1b815eb0191e5c4cfa58d9074ea10a55066bf5296f95e06f",
        "4e960bb471ae014ecc6803e475dc5139eb64051c6d3bfeae151f1e406111e3fa",
    ),
}


def command_digest(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest()


@pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
def test_separate_and_audit_bytes(tmp_path, capsys, argv):
    envelope, weights = tmp_path / "f.json", tmp_path / "w.json"
    assert main(["factorize", *argv, "--out", str(envelope)]) == 0
    n = json.loads(envelope.read_text())["base"]["n"]
    weights.write_text(json.dumps(weights_for(n)))
    digests = tuple(
        command_digest(capsys, [cmd, str(envelope), *args])
        for cmd, args in [("separate", []), ("separate", ["--weights", str(weights)]),
                          ("audit", ["--apex", "1"])]
    )
    assert digests == COMMAND_DIGESTS[argv]


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
