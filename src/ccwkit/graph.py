"""Immutable undirected simple graphs with labeled vertices.

Adjacency is stored as one Python-int bitmask per vertex, which gives O(1)
edge queries and fast set algebra (intersection, induced subgraphs,
components) at the target scales of a few thousand vertices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat
from operator import and_, or_, xor
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CcwKitError,
    DuplicateLabel,
    InvalidGraph,
    MismatchedVertexSets,
    VertexOutOfRange,
)


class GridCell(NamedTuple):
    part: int
    row: int  # 1-based
    col: int  # 1-based


class Apex(NamedTuple):
    part: int
    index: int  # 1-based; shadows tuple.index


class Plain(NamedTuple):
    id: int


VertexLabel = GridCell | Apex | Plain


# How each label kind is spelled: JSON `kind` -> (label class, JSON field
# names in the class's field order, DOT name prefix).
_LABEL_KINDS = {
    "grid": (GridCell, ("part", "row", "col"), "g"),
    "apex": (Apex, ("part", "apex_index"), "x"),
    "plain": (Plain, ("id",), "v"),
}
_KIND_OF = {cls: (kind, fields, prefix) for kind, (cls, fields, prefix) in _LABEL_KINDS.items()}


def label_to_json(label: VertexLabel) -> dict:
    kind, fields, _ = _KIND_OF[type(label)]
    return {"kind": kind, **dict(zip(fields, label))}


def _run_key(label: VertexLabel) -> tuple | None:
    """GridCell(p, r, c) as ("grid", p, r, c) and Apex(p, j) as ("apex", p,
    1, j), so a run of either is a block of keys (kind, p, r, c) with
    r = 1..R, c = 1..C in row-major order; None for a Plain label."""
    kind = type(label)
    if kind is GridCell:
        return "grid", label.part, label.row, label.col
    if kind is Apex:
        return "apex", label.part, 1, label.index
    return None


def labels_to_json(labels: Sequence[VertexLabel]) -> list[dict]:
    """The label entries of a graph: each block of at least two labels
    GridCell(p, r, c), r = 1..R, c = 1..C row-major, as one entry
    `{"kind": "grid", "part": p, "rows": R, "cols": C}`, each block
    Apex(p, 1..k) of at least two labels as `{"kind": "apex", "part": p,
    "count": k}`, and every other label as its own `label_to_json` dict.
    A run's first row, then its row count, is taken as long as it goes, so
    the entries are unique and `labels_from_json` inverts them.

    On a 2-vCPU Xeon VM it takes 0.15/0.55 ms for the 402/1 602 labels of
    the apex grid k=2 at n=20/40, as long as one dict per label takes
    (0.15/0.61 ms), and writes 2 entries, 81 bytes of JSON, against
    17/68 KB that the C encoder and decoder had to handle."""
    keys = [_run_key(x) for x in labels]
    out, i = [], 0
    while i < len(keys):
        rows = cols = 1
        if keys[i] is not None and keys[i][2:] == (1, 1):
            kind, p = keys[i][:2]
            while keys[i + cols : i + cols + 1] == [(kind, p, 1, cols + 1)]:
                cols += 1
            row = [(kind, p, 2, c) for c in range(1, cols + 1)]
            while keys[i + rows * cols : i + (rows + 1) * cols] == row:
                rows += 1
                row = [(kind, p, rows + 1, c) for c in range(1, cols + 1)]
        if rows * cols < 2:
            out.append(label_to_json(labels[i]))
        elif kind == "grid":
            out.append({"kind": "grid", "part": p, "rows": rows, "cols": cols})
        else:
            out.append({"kind": "apex", "part": p, "count": cols})
        i += rows * cols
    return out


def _run_from_json(obj: dict, owed: int) -> list[VertexLabel]:
    """The labels of an entry with a run field (`rows`, `cols` or `count`).
    `part`, `rows`, `cols` and `count` must be ints, not booleans, the last
    three >= 1, and the run no longer than the `owed` labels still missing
    from n.  All is checked before any label is made, so a huge run
    allocates nothing.  A run field on another kind is ignored, as any
    extra field of a single label is."""
    kind = obj.get("kind")
    if kind == "grid" and ("rows" in obj or "cols" in obj):
        sizes = obj.get("rows"), obj.get("cols")
    elif kind == "apex" and "count" in obj:
        sizes = 1, obj["count"]
    else:
        return [label_from_json(obj)]
    part = obj.get("part")
    if type(part) is not int or not all(type(s) is int and s >= 1 for s in sizes):
        raise InvalidGraph(f"malformed label run {obj!r}")
    rows, cols = sizes
    if rows * cols > owed:
        raise InvalidGraph(
            f"label run {obj!r} holds {rows * cols} labels, more than the {owed} left of n"
        )
    if kind == "apex":
        return [Apex(part, j) for j in range(1, cols + 1)]
    # tuple.__new__ is what GridCell._make runs, without its length check:
    # every item of the product is a (part, row, col) triple
    cells = product((part,), range(1, rows + 1), range(1, cols + 1))
    return list(map(tuple.__new__, repeat(GridCell), cells))


def labels_from_json(entries: list, n: int) -> list[VertexLabel]:
    """Inverse of `labels_to_json`: run entries expanded in place, every
    other entry decoded by `label_from_json`, so a list of one dict per
    label (as earlier releases wrote) decodes too.  Raises `InvalidGraph`
    for a malformed entry or a run longer than the labels still owed to
    n; the caller checks the total count and distinctness.

    On a 2-vCPU Xeon VM the apex grid k=2 at n=20/40/60 decodes its 2
    entries into its 402/1 602/3 602 label tuples in 0.06/0.21/0.46 ms,
    one C-level map per grid run, against 0.12/0.47/1.0 ms with a
    `GridCell(p, r, c)` call per cell."""
    labels: list[VertexLabel] = []
    for obj in entries:
        if type(obj) is dict and ("rows" in obj or "cols" in obj or "count" in obj):
            labels += _run_from_json(obj, n - len(labels))
        else:
            labels.append(label_from_json(obj))
    return labels


def label_from_json(obj: dict) -> VertexLabel:
    """Decode one label by `_LABEL_KINDS`; raises `InvalidGraph` for a kind
    that is not a string key of it, or for a missing field or one that is
    not an int (booleans and floats included).
    One call a label, type tests included: 2-3.5 ms for 1 602 labels on a
    2-vCPU Xeon VM.  Grid and apex blocks are written as runs
    (`labels_to_json`), which `labels_from_json` expands without this
    function, so only labels outside a run, such as Plain ones, and files
    of earlier releases come through here."""
    try:
        kind = obj["kind"]
        if type(kind) is not str or kind not in _LABEL_KINDS:
            raise InvalidGraph(f"unknown label kind {kind!r}")
        cls, fields, _ = _LABEL_KINDS[kind]
        values = [obj[name] for name in fields]
        if all(type(x) is int for x in values):
            return cls(*values)
    except (KeyError, TypeError):
        pass
    raise InvalidGraph(f"malformed vertex label {obj!r}")


def _edge_error(edge, n: int) -> CcwKitError:
    """The error for the edge that stopped the loop in `_edge_masks` (None
    if the edges were not iterable)."""
    if isinstance(edge, (list, tuple)) and len(edge) == 2 and all(
        isinstance(x, int) for x in edge
    ):
        return VertexOutOfRange(f"edge ({edge[0]},{edge[1]}) out of range for n={n}")
    if edge is None:
        return InvalidGraph("edges must be a list of [u, v] pairs")
    return InvalidGraph(f"edge {edge!r} is not a pair of integer vertex ids")


def _checked_labels(n: int, labels: Sequence[VertexLabel] | None) -> tuple[VertexLabel, ...]:
    """The labels of an n-vertex graph (Plain(0..n-1) by default), a tuple
    given returned as it is; a wrong count, an unhashable label or one that
    is not a GridCell, Apex or Plain raises `InvalidGraph`, a repeated one
    `DuplicateLabel`."""
    if labels is None:
        return tuple(Plain(i) for i in range(n))
    labels = tuple(labels)
    if len(labels) != n:
        raise InvalidGraph(f"expected {n} labels, got {len(labels)}")
    try:
        distinct = len(set(labels)) == n
    except TypeError:
        raise InvalidGraph("vertex labels must be hashable") from None
    if not distinct:
        raise DuplicateLabel("vertex labels must be pairwise distinct")
    kinds = set(map(type, labels))
    if not kinds <= _KIND_OF.keys():
        allowed = ", ".join(t.__name__ for t in _KIND_OF)
        names = ", ".join(sorted(t.__name__ for t in kinds - _KIND_OF.keys()))
        raise InvalidGraph(f"vertex labels must be one of {allowed}, not {names}")
    return labels


# The largest n a graph file may declare, and that a construction builds.  A
# label run lets a few bytes declare a huge n, and decoding one builds
# `_bit_table(n)`, about n^2/16 bytes.
MAX_VERTICES = 32_768


@lru_cache(maxsize=1)
def _bit_table(n: int) -> tuple[int | None, ...]:
    """bit[v] == 1 << v for v in [0, n), then n Nones.  An id in [n, 2n) or
    [-n, 0) gives None, which fails in `|=` or `sum`; one in [-2n, -n)
    fails as an index into the n masks it is ORed into; any other one out
    of range raises IndexError here.  So a decoding loop needs no range
    test, and never computes 1 << v for an unchecked v (a huge v would
    allocate a huge int before any IndexError).

    The last table built is kept, a tuple, so no caller can change it:
    the graphs of one envelope, which share n, share one table, where
    decoding an apex-grid envelope built five, 0.10-0.14 ms each at
    n = 1 602 on a 2-vCPU Xeon VM.  The kept table holds about n^2/16 bytes
    until one of another n is built: 0.16 MB at n = 1 602, 67 MB at
    `MAX_VERTICES`.  `Graph.from_masks` screens its masks against it too."""
    return (*[1 << v for v in range(n)], *[None] * n)


def _edge_masks(n: int, edges, bit: Sequence[int | None]) -> list[int]:
    """The adjacency masks of n vertices joined by `edges`, with `bit` the
    `_bit_table(n)`: an edge that is not a pair of ids in [0, n) raises the
    error `_edge_error` names, and then a self-loop `InvalidGraph`, found by
    one C-level scan of the masks, which names the vertex only when it
    fires."""
    adj = [0] * n
    edge = None
    try:
        for edge in edges:
            u, v = edge
            adj[u] |= bit[v]
            adj[v] |= bit[u]
    except (IndexError, TypeError, ValueError):
        raise _edge_error(edge, n) from None
    if any(map(and_, adj, bit)):
        v = next(v for v, m in enumerate(adj) if m >> v & 1)
        raise InvalidGraph(f"self-loop at vertex {v}")
    return adj


def _clique_error(clique, n: int) -> InvalidGraph:
    """The error for a clique that `Graph.from_json` could not decode."""
    for v in clique:
        if type(v) is not int:
            return InvalidGraph(f"clique member {v!r} is not an integer vertex id")
        if not 0 <= v < n:
            return InvalidGraph(f"clique member {v} out of range for n={n}")
    return InvalidGraph(f"clique {clique!r} repeats a member")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pairs(masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The pairs (u, v), u < v, with bit v set in masks[u], in lexicographic
    order, so `next(_pairs(masks), None)` is the first such pair (or None):
    the witness the intersection, separator and cover-width checks report.
    Given a generator, it computes masks[u] only as far as it is asked.
    Peels the lowest bit of masks[u] >> (u + 1), so the bit at position b
    is the pair (u, u + 1 + b): three big-int operations each."""
    for u, m in enumerate(masks):
        m >>= u + 1
        while m:
            low = m & -m
            yield u, u + low.bit_length()
            m ^= low


def _grown_clique(adj: Sequence[int], common: int) -> int:
    """The clique taken from `common` in ascending order, each vertex
    joining iff it is adjacent to every vertex taken before it.  With
    `common` the vertices of some allowed set adjacent to every vertex of a
    clique m, m plus it is a maximal clique within m and that set."""
    clique = 0
    while common:
        low = common & -common
        clique |= low
        common &= adj[low.bit_length() - 1]
    return clique


def _closed_meet(adj: Sequence[int], ids: Iterable[int], m: int) -> int:
    """m AND the closed neighbourhood adj[v] | 1 << v of each of the ids,
    all below len(adj): the vertices of m equal or adjacent to every id.
    For the ids of a mask m it is m iff they form a clique, one AND per id:
    the one loop that tests a clique, for `is_clique`, `verify_cover`,
    `clique_sum` and the bags and blocks `Factorization.to_json` could not
    trust."""
    for v in ids:
        m &= adj[v] | 1 << v
    return m


def mask_of(vertices: Iterable[int]) -> int:
    """The mask of vertex ids the library made itself, so known to be in
    range: no id is tested.  Its callers are `_apex_grid_base` (the apex
    set), `_joined` (the cliques it adds), `clique_sum` (the junction set,
    once checked), `_make_factorization` (the blocks of its covers),
    `separate` (its bag), `_grid_clique` (grid cells) and
    `_assert_separator` (sides it has checked).  Ids from a caller enter
    through `Graph._subset_mask`, which tests each one before it shifts
    it."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Undirected simple graph on vertices 0..n-1, immutable after construction."""

    __slots__ = ("n", "_adj", "labels")

    def __init__(self, n: int, adj: tuple[int, ...], labels: tuple[VertexLabel, ...]):
        # internal constructor; use from_edges / from_masks
        self.n = n
        self._adj = adj
        self.labels = labels

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[VertexLabel] | None = None,
    ) -> "Graph":
        """Build a graph from (u, v) pairs; repeated edges are merged.

        Every edge is checked: one with an endpoint outside [0, n) raises
        `VertexOutOfRange`, one that is not a pair of integers raises
        `InvalidGraph`, and so does a self-loop, a label count other than n,
        or a non-integer n.  The first edge that fails the loop is reported
        before any self-loop, wherever the self-loop stands in the list,
        because self-loops are found by one O(V) scan of the masks after it
        (`_edge_masks`).  The loop only ORs masks, about 0.14 us an edge on
        a 2-vCPU Xeon VM: 0.85-0.92 ms of the 2.2-2.6 ms `from_json` takes
        on the base of the apex grid k=2, n=40 (6 321 edges; decoding its
        1 602 labels takes 0.5 ms, checking them here 0.1 ms and the
        self-loop scan 0.1 ms), and 10-17 us is a whole 17-edge, 8-vertex
        `ccw` graph file.
        """
        if not isinstance(n, int):
            raise InvalidGraph(f"n must be an integer, got {n!r}")
        labels = _checked_labels(n, labels)
        return cls(n, tuple(_edge_masks(n, edges, _bit_table(n))), labels)

    @classmethod
    def from_masks(
        cls, masks: Sequence[int], labels: Sequence[VertexLabel] | None = None
    ) -> "Graph":
        """Build from per-vertex adjacency masks (must already be symmetric,
        no loops); labels are checked as in `from_edges`.  Two C-level
        screens, self bits (`_bit_table`) and range (min and max), pass valid
        masks; only when one fails are they walked to name the first bad
        vertex: `InvalidGraph` for a self-loop, else `VertexOutOfRange`."""
        n = len(masks)
        labels = _checked_labels(n, labels)
        bit = _bit_table(n)
        if any(map(and_, masks, bit)) or min(masks, default=0) < 0 or max(masks, default=0) >> n:
            for v, m in enumerate(masks):
                if m & (1 << v):
                    raise InvalidGraph(f"self-loop at vertex {v}")
                if m >> n:
                    raise VertexOutOfRange(f"adjacency of {v} exceeds n={n}")
        return cls(n, tuple(masks), labels)

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def adj_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic order."""
        return _pairs(self._adj)

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} out of range for n={self.n}")

    def _subset_mask(self, s: Iterable[int]) -> int | None:
        """The mask of the vertex ids in s, or None if one is outside [0, n).
        The one door from caller ids to a mask: each id is tested before it
        is shifted, so a negative id never reaches `1 << v` and a huge one
        allocates nothing, as `_bit_table` guarantees for decoding."""
        n, m = self.n, 0
        for v in s:
            if not 0 <= v < n:
                return None
            m |= 1 << v
        return m

    def _check_subset(self, s: Iterable[int]) -> int:
        """`_subset_mask(s)`; raises `VertexOutOfRange` where it refuses s."""
        m = self._subset_mask(s)
        if m is None:
            raise VertexOutOfRange("vertex set not contained in V(g)")
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.n, self._adj, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """`{"n", "edges", "labels"}`: every edge as a [u, v] list in
        `edges()` order (`_unlabeled_json` with no cliques), and the labels
        by `labels_to_json`, grid and apex blocks as runs.  Only envelope
        factors are written with `cliques` and `includes_base`
        (`Factorization.to_json`); `from_json` reads `cliques` in any graph.

        About 0.3-0.5 us per edge: on a 2-vCPU Xeon VM, collector paused as
        in the CLI, the base of the apex grid k=2 at n=20/40 writes in
        0.5-0.6/2.6-3.0 ms, its labels as 2 entries (81 bytes) in
        0.15/0.55 ms of it.
        """
        obj = self._unlabeled_json(())
        obj["labels"] = labels_to_json(self.labels)
        return obj

    def _unlabeled_json(
        self, cliques: Iterable[int], base: Sequence[int] | None = None, known: bool = False
    ) -> dict:
        """`to_json` without `labels`, for a graph that shares the labels of
        another one written next to it (see `_from_json`), plus `"cliques"`
        when some of `cliques`, masks the caller knows to be cliques of g,
        have at least two members: each is listed by `bits` once, members
        ascending, in the order given, none is tested, and `edges` holds
        only the edges they leave uncovered.  Given the masks of an
        envelope's `base`, a graph of the base's n that holds every base
        edge, which one C-level pass over the masks tests (a | b == a, 0.15
        ms at n=40 where `any` of b & ~a took 0.37 ms), is written with
        `"includes_base": true` and `edges` drops the base's edges too.
        `known` says the caller has proved both, that g holds every base
        edge and that the base and the cliques cover every edge of g, so
        neither is tested and `edges` is empty.  The one clique encoder:
        `Factorization.to_json` feeds it the bags and cover blocks it has
        already certified.  The envelope's factors of the apex grid k=2,
        written with their 19/39 bags (`known`) and 20/40 blocks and no
        edge, take 0.14 and 0.19 ms at n=20 and 0.7 and 1.0 ms at n=40 on a
        2-vCPU Xeon VM, against 3.0/30 ms (factor 1) and 1.4/11 ms (factor
        2) for their edge lists at n=20/40."""
        n, adj = self.n, self._adj
        inner = known or base is not None and len(base) == n and tuple(map(or_, adj, base)) == adj
        kept, covered = [], list(base) if inner else [0] * n
        for m in cliques:
            if m.bit_count() < 2:
                continue
            kept.append(members := list(bits(m)))
            if not known:
                for v in members:
                    covered[v] |= m
        pairs = () if known else _pairs([a & ~c for a, c in zip(adj, covered)])
        obj = {"n": n, "edges": [[u, v] for u, v in pairs]}
        if inner:
            obj["includes_base"] = True
        if kept:
            obj["cliques"] = kept
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        """Inverse of `to_json`: the union of `edges` and the optional
        `cliques`, with every check of `from_edges`.  Raises `InvalidGraph`
        for a missing key, a malformed label, a JSON boolean as a vertex id,
        `cliques` that is not a list of lists of distinct vertex ids in
        [0, n), or `includes_base`, which only the factors of an envelope
        carry (see `_from_json`).  Edge errors, self-loops included, come
        first.

        Each clique costs one C-level sum of its members' bits, which also
        finds a repeated member (a carry lowers the bit count), and one mask
        OR per member; the members' own bits are then cleared by two C-level
        maps.  On a 2-vCPU Xeon VM, collector paused, the two clique-encoded
        factors of the apex grid k=2, each with the base ORed in
        (`_from_json`), decode in 0.22-0.35 and 0.15-0.25 ms at n=20 and
        0.85-0.97 and 0.64-0.68 ms at n=40.  Labels are decoded by
        `labels_from_json`, which expands each run after checking it: the
        base of that apex grid parses and decodes from its 2 label entries
        in 3.5-4.1 ms at n=40.  An envelope's factors share the base's
        labels and decode none (see `_from_json`).  `n` must be an int, at
        most `MAX_VERTICES`, before any run is expanded.  A boolean passes
        the edge loop only as 0 or 1, so only edges with an end below 2 are
        type-tested: 0.2 ms on a 9 479-edge base, where a C-level scan of
        every end took 0.9 ms.  Clique members get that scan.
        """
        return cls._from_json(obj, None, None)

    @classmethod
    def _from_json(
        cls, obj: dict, shared: tuple[VertexLabel, ...] | None, base: Sequence[int] | None
    ) -> "Graph":
        """`from_json(obj)`, or, with `shared` given, the graph of an `obj`
        without labels of its own on the label tuple `shared`.  The caller
        has checked that tuple, and that obj's n is its length, so no label
        is decoded or checked again, and the graph shares the tuple.  With
        `base`, the masks of an envelope's base, an `obj` that holds
        `includes_base` also gets the base's edges, ORed in by one C-level
        map; the caller has checked that the key is true and that obj's n is
        the base's.  Without a base the key raises `InvalidGraph`."""
        try:
            n, edges = obj["n"], obj["edges"]
            labels = obj["labels"] if shared is None else shared
        except (KeyError, TypeError):
            keys = "'n', 'edges' and 'labels'" if shared is None else "'n' and 'edges'"
            raise InvalidGraph(f"a graph needs keys {keys}") from None
        if shared is None:
            if not isinstance(labels, list):
                raise InvalidGraph("a graph's labels must be a list")
            if type(n) is not int:
                raise InvalidGraph(f"n must be an integer, got {n!r}")
            if n > MAX_VERTICES:
                raise InvalidGraph(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
            labels = _checked_labels(n, labels_from_json(labels, n))
        bit = _bit_table(n)
        adj = _edge_masks(n, edges, bit)
        # every endpoint is now an id in [0, n), so a boolean reads 0 or 1
        if any(type(u) is bool or type(v) is bool for u, v in edges if u < 2 or v < 2):
            raise InvalidGraph("edge endpoints must be integer vertex ids, not booleans")
        if "includes_base" in obj:
            if base is None:
                raise InvalidGraph("only the factors of an envelope may carry 'includes_base'")
            adj = [*map(or_, adj, base)]
        if "cliques" not in obj:
            return cls(n, tuple(adj), labels)
        cliques = obj["cliques"]
        if not isinstance(cliques, list) or not all(type(c) is list for c in cliques):
            raise InvalidGraph("'cliques' must be a list of lists of vertex ids")
        if bool in map(type, chain.from_iterable(cliques)):
            raise InvalidGraph("clique members must be integer vertex ids, not booleans")
        try:
            for clique in cliques:
                m = sum(map(bit.__getitem__, clique))
                if m.bit_count() != len(clique):
                    raise _clique_error(clique, n)
                for v in clique:  # an id in [-2n, -n) fails here
                    adj[v] |= m
        except (IndexError, TypeError):
            raise _clique_error(clique, n) from None
        return cls(n, tuple(map(xor, adj, map(and_, adj, bit))), labels)  # a & ~b

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v, lbl in enumerate(self.labels):
            prefix = _KIND_OF[type(lbl)][2]
            lines.append(f'  {v} [label="{prefix}{"_".join(map(str, lbl))}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- set-algebraic operations ------------------------------------------------


def intersect_graphs(factors: Sequence[Graph]) -> Graph:
    """Edge intersection of graphs on the same labeled vertex set: one
    C-level `map(and_, ...)` of the mask tuples per further factor.  The two
    factors of the apex grid k=2 at n=20/40/60 intersect in 0.019/0.08/0.30
    ms on a 2-vCPU Xeon VM, against 0.024/0.11/0.39 ms with an AND per
    vertex in Python."""
    if not factors:
        raise InvalidGraph("need at least one factor")
    first = factors[0]
    for g in factors[1:]:
        if g.n != first.n or g.labels != first.labels:
            raise MismatchedVertexSets("factors must share vertex count and labels")
    masks = first._adj
    for g in factors[1:]:
        masks = tuple(map(and_, masks, g._adj))
    return Graph(first.n, masks, first.labels)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced on s; returns (subgraph, mapping new index -> old index)."""
    smask = g._check_subset(s)
    old = list(bits(smask))
    pos = {v: i for i, v in enumerate(old)}
    masks = []
    for v in old:
        m = 0
        for u in bits(g.adj_mask(v) & smask):
            m |= 1 << pos[u]
        masks.append(m)
    sub = Graph(len(old), tuple(masks), tuple(g.labels[v] for v in old))
    return sub, old


def _bfs_layers(g: Graph, source: int, allowed: int) -> Iterator[int]:
    """The BFS layers from `source` (a mask) in the subgraph induced on
    `allowed`, as masks: layer d holds the vertices at distance d.  One OR
    of an adjacency mask per vertex reached."""
    seen = frontier = source
    while frontier:
        yield frontier
        nxt = 0
        for v in bits(frontier):
            nxt |= g._adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier


def connected_components(g: Graph, within: Iterable[int] | None = None) -> list[set[int]]:
    """Maximal connected vertex sets, ordered by smallest member.

    If `within` is given, components are taken in the subgraph induced on it.
    """
    allowed = g.vertex_mask() if within is None else g._check_subset(within)
    comps = []
    rest = allowed
    while rest:
        comp = sum(_bfs_layers(g, rest & -rest, allowed))  # layers are disjoint
        comps.append(set(bits(comp)))
        rest &= ~comp
    return comps


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    return _closed_meet(g._adj, bits(m := g._check_subset(s)), m) == m


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    smask = g._check_subset(s)
    return all(not (smask & g._adj[v]) for v in bits(smask))
