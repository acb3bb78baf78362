"""Vertex-id lists written as arithmetic runs: `graph.ids_to_json` writes
each progression of at least 3 ids as `[start, stop, step]`, and every
vertex-id list of an envelope (the certificate, each cover block, each
factor clique) goes through it.  The writer is canonical, agrees with the
independent `oracles.reference_id_runs`, keeps to the room of 2n ids a
list or a cover's blocks share, and `id_lists_from_json` inverts it.  One
reader, `graph._ids_from_json`, reads every list, the certificate, a cover
block or a clique, to its ids and their mask, and names the first fault in
reading order.  A malformed or huge run, or runs that would stand for more
than 2n ids, exit 2 from every command that reads an envelope, with their
own message and no output, before any run is expanded."""

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccwkit import Factorization, Graph, factorize_apex_grid
from ccwkit.cli import main
from ccwkit.errors import InvalidGraph
from ccwkit.graph import (
    _bit_table,
    _ids_from_json,
    id_lists_from_json,
    id_lists_to_json,
    ids_to_json,
)

from oracles import reference_id_lists, reference_id_runs

N = 64


def ids_from_json(entries, n):
    """The ids of one list, read in a room of its own."""
    lists = id_lists_from_json([entries], n, "entry", "its list")
    return None if lists is None else lists[0][0]


@st.composite
def progressions(draw):
    """An arithmetic progression inside [0, N), of any length from 1 and any
    step, ascending or descending."""
    step = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
    start = draw(st.integers(0, N - 1))
    room = (N - 1 - start) // step if step > 0 else start // -step
    return list(range(start, start + step * (draw(st.integers(0, room)) + 1), step))


# ascending and descending sets, progressions, lists of several of them
# (mixed, as row bands plus apexes are), short lists, and any lists, which
# may repeat ids
ID_LISTS = st.one_of(
    st.sets(st.integers(0, N - 1)).map(sorted),
    st.sets(st.integers(0, N - 1)).map(lambda s: sorted(s, reverse=True)),
    progressions(),
    st.lists(progressions(), max_size=4).map(lambda runs: sum(runs, [])),
    st.lists(st.integers(0, N - 1), max_size=3),
    st.lists(st.integers(0, 5), max_size=12),
    st.lists(st.integers(0, N - 1), max_size=30),
)


def is_canonical(entries, ids):
    """Each run of the entries written for `ids` holds at least 3 ids with a
    step other than 0; no run could take the next id, and no id written
    alone starts a progression of 3."""
    i = 0
    for x in entries:
        if type(x) is list:
            start, stop, step = x
            if step == 0 or len(range(start, stop, step)) < 3:
                return False
            i += len(range(start, stop, step))
            if i < len(ids) and ids[i] == stop:
                return False
        else:
            if i + 2 < len(ids) and ids[i + 1] != x and ids[i + 2] - ids[i + 1] == ids[i + 1] - x:
                return False
            i += 1
    return True


class TestRoundTrip:
    @settings(deadline=None)
    @given(ID_LISTS)
    # written with no room, three copies of a progression of 43 ids are
    # three runs standing for 129 ids, one more than the reader's 2N
    @example(list(range(43)) * 3)
    def test_reader_inverts_the_canonical_writer(self, ids):
        entries = ids_to_json(ids)
        assert entries == reference_id_runs(ids)
        assert is_canonical(entries, ids)
        written = json.loads(json.dumps(entries))
        held = 0
        for x in entries:
            held += len(range(*x)) if type(x) is list else 0
            if held > 2 * N:
                # the first run past the room is refused, before it is expanded
                with pytest.raises(InvalidGraph) as err:
                    ids_from_json(written, N)
                why = f"is a run that takes its list past {2 * N} ids"
                assert str(err.value) == f"entry {x!r} {why}"
                return
        decoded = ids_from_json(written, N)
        assert decoded == ids
        assert ids_to_json(decoded) == entries

    @pytest.mark.parametrize(
        "ids, entries",
        [
            ([], []),
            ([3], [3]),
            ([3, 4], [3, 4]),
            ([3, 4, 5], [[3, 6, 1]]),
            ([5, 5, 5], [5, 5, 5]),
            ([2, 1, 0], [[2, -1, -1]]),
            ([0, 40, 80, 120], [[0, 160, 40]]),
            ([0, 1, 2, 3, 7, 9, 11], [[0, 4, 1], [7, 13, 2]]),
            ([0, 1, 3, 5], [0, [1, 7, 2]]),
            ([0, 2, 4, 5, 6], [[0, 6, 2], 5, 6]),
            ([*range(1599, -1, -1), 1601, 1600], [[1599, -1, -1], 1601, 1600]),
        ],
    )
    def test_greedy_from_the_left(self, ids, entries):
        assert ids_to_json(ids) == entries
        assert ids_from_json(entries, 1602) == ids

    @settings(deadline=None)
    @given(st.lists(st.sets(st.integers(0, N - 1), min_size=1), max_size=6), st.randoms())
    def test_cliques_with_runs_in_any_order(self, cliques, rng):
        """A clique decodes to the same graph whatever the order of its ids,
        written as runs or not: ascending, as the writer lists them, or
        descending or shuffled, as another writer may."""
        plain = {"n": N, "edges": [], "labels": [{"kind": "plain", "id": v} for v in range(N)]}
        lists = []
        for c in cliques:
            ids = sorted(c, reverse=rng.random() < 0.5)
            if rng.random() < 0.3:
                rng.shuffle(ids)
            lists.append(ids)
        expected = Graph.from_json({**plain, "cliques": lists})
        assert Graph.from_json({**plain, "cliques": [*map(ids_to_json, lists)]}) == expected

    @settings(deadline=None)
    @given(st.lists(ID_LISTS, max_size=6), st.integers(0, 3 * N))
    def test_runs_fill_a_shared_room_and_no_more(self, lists, room):
        """Lists whose runs share one room, as the blocks of a cover, are
        written as the reference writes them, their runs within the room,
        and read back whatever they repeat, where the room is 2n."""
        out, left = [], room
        for ids in lists:
            entries = ids_to_json(ids, left)
            assert entries == reference_id_runs(ids, left)
            left -= sum(len(range(*x)) for x in entries if type(x) is list)
            assert left >= 0
            out.append(entries)
        assert id_lists_to_json(lists, N) == reference_id_lists(lists, N)
        written = json.loads(json.dumps(id_lists_to_json(lists, N)))
        assert [ids for ids, _ in id_lists_from_json(written, N, "entry", "its cover")] == lists

    @pytest.mark.parametrize(
        "lists, entries",
        [
            # the third list finds the room of 2n = 20 full
            ([[*range(10)]] * 3, [[[0, 10, 1]], [[0, 10, 1]], [*range(10)]]),
            # 4 ids of room left: the last 4 of the descent are a run
            (
                [[*range(6)], [*range(10), *range(9, -1, -1)]],
                [[[0, 6, 1]], [[0, 10, 1], 9, 8, 7, 6, 5, 4, [3, -1, -1]]],
            ),
        ],
    )
    def test_lists_share_one_room(self, lists, entries):
        assert id_lists_to_json(lists, 10) == entries == reference_id_lists(lists, 10)
        assert [ids for ids, _ in id_lists_from_json(entries, 10, "entry", "its cover")] == lists

    def test_a_list_without_runs_is_returned_as_it_is(self):
        """Ids written one by one, as earlier releases wrote every list,
        read back to the same ids and the OR of their bits; a boolean or an
        id outside [0, N) among them is refused."""
        ids = [4, 1, 3]
        assert id_lists_from_json([ids], N, "entry", "its list") == [([4, 1, 3], 0b11010)]
        for bad in ([4, True, 3], [4, 1, N], [-1, 1, 3]):
            assert ids_from_json(bad, N) is None

    def test_an_envelope_writes_its_lists_as_runs(self):
        obj = factorize_apex_grid(2, 40).to_json()
        assert obj["chordal_cert"] == {"peo": [[1599, -1, -1], 1601, 1600]}
        assert obj["covers"][0][0] == [[0, 1600, 40]]
        assert obj["factors"][0]["cliques"][0] == [[0, 80, 1], 1600, 1601]
        assert Factorization.from_json(json.loads(json.dumps(obj))) == factorize_apex_grid(2, 40)


# n = 10 in the envelope below: apex grid k = 1, n = 3
SHAPE = "is not an integer vertex id or a run [start, stop, step] of three integers"
MALFORMED = {
    "boolean": ([True, 5, 1], SHAPE),
    "step 0": ([0, 5, 0], "is a run of step 0"),
    "2 ids": ([0, 2, 1], "is a run of fewer than 3 ids"),
    "4 fields": ([0, 5, 1, 1], SHAPE),
    "end out of range": ([5, 11, 1], "is a run that leaves [0, 10)"),
    "huge": ([0, 10**12, 1], "is a run that leaves [0, 10)"),
}
PREFIX = {
    "peo": "certificate and cover entries must be vertex ids in [0, 10):",
    "cover": "certificate and cover entries must be vertex ids in [0, 10):",
    "clique": "clique member",
}


def with_run(envelope, where, run):
    obj = json.loads(json.dumps(envelope))
    if where == "peo":
        obj["chordal_cert"]["peo"] = [run, *obj["chordal_cert"]["peo"]]
    elif where == "cover":
        obj["covers"][0][0] = [run]
    else:
        obj["factors"][0]["cliques"][0] = [run, 9]
    return obj


class TestMalformedRuns:
    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("env") / "f.json"
        assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
        return json.loads(f.read_text())

    @pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
    @pytest.mark.parametrize("where", PREFIX)
    @pytest.mark.parametrize("run, why", MALFORMED.values(), ids=MALFORMED.keys())
    def test_exits_2(self, tmp_path, capsys, envelope, cmd, where, run, why):
        f = tmp_path / "f.json"
        f.write_text(json.dumps(with_run(envelope, where, run)))
        out, rows = tmp_path / "out.json", tmp_path / "rows.csv"
        argv = {
            "verify": ["verify", str(f)],
            "separate": ["separate", str(f), "--out", str(out), "--csv", str(rows)],
            "audit": ["audit", str(f), "--out", str(out)],
        }[cmd]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == f"error: {PREFIX[where]} {run!r} {why}\n"
        assert not out.exists() and not rows.exists()

    @pytest.mark.parametrize(
        "run", [[0, 2**62, 1], [0, 10**30, 1], [10**30, 0, -1], [0, 10**30, 7]]
    )
    @pytest.mark.parametrize("where", PREFIX)
    def test_a_huge_run_allocates_nothing(self, envelope, where, run):
        obj = with_run(envelope, where, run)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidGraph, match="is a run that leaves"):
                Factorization.from_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


# K copies of the full run at n = 10: each stands for 10 ids, and the runs of
# one list, of one cover's blocks together or of one clique may stand for
# at most 2n = 20, so the third copy is refused
FULL, K = [9, -1, -1], 20_000
PAST = {
    "peo": f"{PREFIX['peo']} {FULL!r} is a run that takes its list past 20 ids",
    "cover block": f"{PREFIX['cover']} {FULL!r} is a run that takes its cover past 20 ids",
    "cover": f"{PREFIX['cover']} {FULL!r} is a run that takes its cover past 20 ids",
    "clique": f"clique member {FULL!r} is a run that takes its clique past 20 ids",
}


def with_runs(envelope, where):
    obj = json.loads(json.dumps(envelope))
    if where == "peo":
        obj["chordal_cert"]["peo"] = [FULL] * K
    elif where == "cover block":
        obj["covers"][0] = [[FULL] * K]
    elif where == "cover":
        obj["covers"][0] = [[FULL]] * K
    else:
        obj["factors"][0]["cliques"][0] = [FULL] * K
    return obj


class TestTooManyIds:
    """Each run is in range and well formed, but together they would hold
    K * 10 ids: the one that passes 2n is refused before it is expanded, so
    a few bytes per run cannot make the reader hold K * n ids."""

    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("env") / "f.json"
        assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
        return json.loads(f.read_text())

    @pytest.mark.parametrize("where", PAST)
    def test_allocates_nothing(self, envelope, where):
        obj = with_runs(envelope, where)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidGraph) as err:
                Factorization.from_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == PAST[where]
        assert peak < 100_000

    @pytest.mark.parametrize("cmd", ["verify", "separate", "audit"])
    @pytest.mark.parametrize("where", PAST)
    def test_exits_2(self, tmp_path, capsys, envelope, cmd, where):
        f = tmp_path / "f.json"
        f.write_text(json.dumps(with_runs(envelope, where)))
        out = tmp_path / "out.json"
        argv = {
            "verify": ["verify", str(f)],
            "separate": ["separate", str(f), "--out", str(out)],
            "audit": ["audit", str(f), "--out", str(out)],
        }[cmd]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == f"error: {PAST[where]}\n"
        assert not out.exists()

    def test_a_whole_cover_of_runs_still_loads(self, envelope):
        """A cover whose blocks are runs that hold the n ids exactly is not
        refused: the count is of ids, not of runs."""
        obj = json.loads(json.dumps(envelope))
        obj["covers"][0] = [[[0, 3, 1]], [[3, 6, 1]], [[6, 9, 1]], [9]]
        obj["chordal_cert"]["peo"] = [[9, -1, -1]]
        f = Factorization.from_json(obj)
        assert sorted(map(sorted, f.covers[0].cliques)) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]


# The one reader of every id list (`graph._ids_from_json`), in each place an
# envelope holds one: its message prefix and the lists that share its room
PLACES = {
    "certificate": ("certificate and cover entries must be vertex ids in [0, 64):", "its list"),
    "cover block": ("certificate and cover entries must be vertex ids in [0, 64):", "its cover"),
    "clique": ("clique member", "its clique"),
}


def plain_graph(n, **keys):
    return {"n": n, "edges": [], "labels": [{"kind": "plain", "id": v} for v in range(n)], **keys}


def envelope_of(n, cert, cover):
    """An envelope on n isolated vertices whose factor 2 includes `cover`;
    decoded, not verified."""
    return {
        "base": plain_graph(n),
        "factors": [{"n": n, "edges": []}, {"n": n, "edges": [], "includes_cover": True}],
        "chordal_cert": {"peo": cert},
        "covers": [cover],
        "widths": [0],
        "lstar": 0,
    }


class TestOneReader:
    @settings(deadline=None)
    @given(ID_LISTS, st.booleans())
    def test_ids_mask_and_repeats_in_every_place(self, ids, runs):
        """Written with runs or without, repeats or not, a list reads back
        to its ids and the OR of their bits, and repeats exactly when its
        mask holds fewer bits than it holds ids, in each of the three
        places; the public readers agree."""
        entries = json.loads(json.dumps(ids_to_json(ids, 2 * N) if runs else ids))
        mask = 0
        for v in ids:
            mask |= 1 << v
        repeats = len(set(ids)) != len(ids)
        for what, whose in PLACES.values():
            got, m, room = _ids_from_json(entries, N, _bit_table(N), 2 * N, what, whose)
            assert (got, m) == (ids, mask)
            assert (m.bit_count() != len(got)) is repeats
            assert room == 2 * N - sum(len(range(*x)) for x in entries if type(x) is list)
        assert id_lists_from_json([entries], N, *PLACES["certificate"]) == [(ids, mask)]

        # a certificate may repeat ids, for `verify` to refuse
        f = Factorization.from_json(envelope_of(N, entries, []))
        assert f.chordal_cert.peo == tuple(ids)
        clique = Graph.from_edges(N, [(u, v) for u in set(ids) for v in set(ids) if u < v])
        obj = envelope_of(N, [[N - 1, -1, -1]], [entries])
        if repeats:
            with pytest.raises(InvalidGraph, match=r"^block 0 of cover 1 repeats a member$"):
                Factorization.from_json(obj)
            with pytest.raises(InvalidGraph, match=r"repeats a member$"):
                Graph.from_json(plain_graph(N, cliques=[entries]))
        else:
            f = Factorization.from_json(obj)
            assert f.covers[0].cliques == (frozenset(ids),)
            assert f.factors[1] == clique
            assert Graph.from_json(plain_graph(N, cliques=[entries])) == clique


# n = 10, the apex grid k = 1, n = 3: each list holds two faults, and the
# first in reading order is named, in the certificate, a cover block and a
# clique alike
REFUSAL = "certificate and cover entries must be vertex ids in [0, 10)"
TWO_FAULTS = {
    "a bad id, then a malformed run": (
        [25, [0, 0, 1]],
        {"peo": REFUSAL, "cover": REFUSAL, "clique": "clique member 25 out of range for n=10"},
    ),
    "a boolean, then a malformed run": (
        [True, [0, 0, 1]],
        {
            "peo": REFUSAL,
            "cover": REFUSAL,
            "clique": "clique members must be integer vertex ids, not booleans",
        },
    ),
    "a malformed run, then a bad id": (
        [[0, 0, 1], 25],
        dict.fromkeys(PREFIX, "{prefix} [0, 0, 1] is a run of fewer than 3 ids"),
    ),
    "a malformed run, then a boolean": (
        [[0, 0, 1], True],
        dict.fromkeys(PREFIX, "{prefix} [0, 0, 1] is a run of fewer than 3 ids"),
    ),
}


class TestTwoFaultsInOneList:
    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        f = tmp_path_factory.mktemp("env") / "f.json"
        assert main(["factorize", "apex-grid", "--k", "1", "--n", "3", "--out", str(f)]) == 0
        return json.loads(f.read_text())

    @pytest.mark.parametrize("where", PREFIX)
    @pytest.mark.parametrize("entries, messages", TWO_FAULTS.values(), ids=TWO_FAULTS.keys())
    def test_the_first_fault_is_named(self, tmp_path, capsys, envelope, where, entries, messages):
        obj = json.loads(json.dumps(envelope))
        if where == "peo":
            obj["chordal_cert"]["peo"] = entries
        elif where == "cover":
            obj["covers"][0][0] = entries
        else:
            obj["factors"][0]["cliques"][0] = entries
        f = tmp_path / "f.json"
        f.write_text(json.dumps(obj))
        assert main(["verify", str(f)]) == 2
        message = messages[where].format(prefix=PREFIX[where])
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_faulty_clique_is_named_before_a_later_one_with_a_boolean(self, envelope):
        obj = json.loads(json.dumps(envelope))
        obj["factors"][0]["cliques"][:2] = [[25], [True]]
        with pytest.raises(InvalidGraph, match=r"^clique member 25 out of range for n=10$"):
            Factorization.from_json(obj)
