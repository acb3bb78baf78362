"""Immutable undirected simple graphs with labeled vertices.

Adjacency is stored as one Python-int bitmask per vertex, which gives O(1)
edge queries and fast set algebra (intersection, induced subgraphs,
components) at the target scales of a few thousand vertices.
"""

from __future__ import annotations

from itertools import chain
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
    return [GridCell(part, r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def labels_from_json(entries: list, n: int) -> list[VertexLabel]:
    """Inverse of `labels_to_json`: run entries expanded in place, every
    other entry decoded by `label_from_json`, so a list of one dict per
    label (as earlier releases wrote) decodes too.  Raises `InvalidGraph`
    for a malformed entry or a run longer than the labels still owed to
    n; the caller checks the total count and distinctness.

    On a 2-vCPU Xeon VM the apex grid k=2 at n=20/40 decodes its 2
    entries into its 402/1 602 label tuples in 0.16-0.19/0.6-0.8 ms."""
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
    """The error for the edge that stopped the loop in `from_edges` (None if
    the edges were not iterable)."""
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


# The largest n a graph file may declare.  A label run lets a few bytes
# declare a huge n, and decoding one builds `_bit_table(n)`, about n^2/16 bytes.
MAX_VERTICES = 32_768


def _bit_table(n: int) -> list[int | None]:
    """bit[v] == 1 << v for v in [0, n), then n Nones.  An id in [n, 2n) or
    [-n, 0) gives None, which fails in `|=` or `sum`; one in [-2n, -n)
    fails as an index into the n masks it is ORed into; any other one out
    of range raises IndexError here.  So a decoding loop needs no range
    test, and never computes 1 << v for an unchecked v (a huge v would
    allocate a huge int before any IndexError)."""
    return [1 << v for v in range(n)] + [None] * n


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


def _is_clique_mask(adj: Sequence[int], m: int) -> bool:
    """Whether the vertices of mask m, all below len(adj), are pairwise
    adjacent in the graph with adjacency masks adj."""
    return all(m & ~adj[v] == 1 << v for v in bits(m))


def _grown_clique(adj: Sequence[int], start: int, allowed: int) -> int:
    """`start` plus, in ascending order, each vertex of `allowed` adjacent
    to every vertex of `start` and to every vertex added before it: a
    maximal clique within `start | allowed` if `start` is a clique."""
    common = allowed
    for v in bits(start):
        common &= adj[v]
    while common:
        low = common & -common
        start |= low
        common &= adj[low.bit_length() - 1]
    return start


def mask_of(vertices: Iterable[int]) -> int:
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
        because self-loops are found by one O(V) scan of the masks after it.
        The loop only ORs masks, about 0.2 us an edge on a 2-vCPU Xeon VM:
        1.3 ms of the 2.6-3.2 ms `from_json` takes on the base of the apex
        grid k=2, n=40 (6 321 edges; decoding its 1 602 labels takes
        0.6-0.8 ms, and checking them here 0.07 ms), and 10-17 us is a whole
        17-edge, 8-vertex `ccw` graph file.
        """
        if not isinstance(n, int):
            raise InvalidGraph(f"n must be an integer, got {n!r}")
        labels = _checked_labels(n, labels)
        bit = _bit_table(n)
        adj = [0] * n
        edge = None
        try:
            for edge in edges:
                u, v = edge
                adj[u] |= bit[v]
                adj[v] |= bit[u]
        except (IndexError, TypeError, ValueError):
            raise _edge_error(edge, n) from None
        for v in range(n):
            if adj[v] >> v & 1:
                raise InvalidGraph(f"self-loop at vertex {v}")
        return cls(n, tuple(adj), labels)

    @classmethod
    def from_masks(
        cls, masks: Sequence[int], labels: Sequence[VertexLabel] | None = None
    ) -> "Graph":
        """Build from per-vertex adjacency masks (must already be symmetric,
        no loops); labels are checked as in `from_edges`."""
        n = len(masks)
        labels = _checked_labels(n, labels)
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

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj_mask(v))

    def degree(self, v: int) -> int:
        return self.adj_mask(v).bit_count()

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

    def _check_subset(self, s: Iterable[int]) -> int:
        m = mask_of(s)
        if m >> self.n:
            raise VertexOutOfRange("vertex set not contained in V(g)")
        return m

    def edge_equal(self, other: "Graph") -> bool:
        return self.n == other.n and self._adj == other._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.n, self._adj, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    # -- serialization ---------------------------------------------------

    def to_json(self, cliques: Iterable[Iterable[int]] = ()) -> dict:
        """`{"n", "edges", "labels"}`, plus `"cliques"` when some of the
        candidate `cliques` (collections of vertex ids) are cliques of g with
        at least two members: those are written, members ascending, in the
        order given, and `edges` holds only the edges they leave uncovered,
        as [u, v] lists in `edges()` order.  Other candidates are dropped,
        so `from_json` gives back g whatever the candidates are.

        Costs 0.3-0.5 us per written edge plus one or two big-int
        operations per candidate member.  On a 2-vCPU Xeon VM, collector
        paused as in the CLI, the apex grid k=2 at n=20/40 writes factor 1
        (12 201/96 801 edges) as its 19/39 clique-forest bags in 0.5/2.5 ms,
        against 3.0/30 ms for its edge list, and factor 2 (4 981/35 961
        edges) as its cover blocks in 0.6/3.5 ms, against 1.4/11 ms.
        Labels are written by `labels_to_json`, grid and apex blocks as
        runs: the base of that apex grid writes in 0.8-0.9/3.6-4.0 ms, its
        labels as 2 entries (81 bytes) in 0.15/0.55 ms of it.
        """
        obj = self._unlabeled_json(cliques)
        obj["labels"] = labels_to_json(self.labels)
        return obj

    def _unlabeled_json(self, cliques: Iterable[Iterable[int]]) -> dict:
        """`to_json(cliques)` without `labels`, for a graph that shares the
        labels of another one written next to it (see `_from_json`)."""
        n, adj = self.n, self._adj
        kept, covered = [], [0] * n
        for clique in cliques:
            m = mask_of(clique)
            if m >> n or m.bit_count() < 2 or not _is_clique_mask(adj, m):
                continue
            members = list(bits(m))
            kept.append(members)
            for v in members:
                covered[v] |= m
        obj = {
            "n": n,
            "edges": [[u, v] for u, v in _pairs([a & ~c for a, c in zip(adj, covered)])],
        }
        if kept:
            obj["cliques"] = kept
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        """Inverse of `to_json`: the union of `edges` and the optional
        `cliques`, with every check of `from_edges`.  Raises `InvalidGraph`
        for a missing key, a malformed label, a JSON boolean as a vertex id,
        or `cliques` that is not a list of lists of distinct vertex ids in
        [0, n).  Edge errors, self-loops included, come first.

        Each clique costs one C-level sum of its members' bits, which also
        finds a repeated member (a carry lowers the bit count), and one mask
        OR per member.  On a 2-vCPU Xeon VM, collector paused, the two
        clique-encoded factors of the apex grid k=2 decode in 0.25-0.4 and
        0.36 ms at n=20 and 1.1-1.2 and 1.3-1.7 ms at n=40.  Labels are
        decoded by `labels_from_json`, which expands each run after checking
        it: the base of that apex grid parses and decodes from its 2 label
        entries in 1.2-1.4/3.6-4.4 ms.  An envelope's factors share the
        base's labels and decode none (see `_from_json`).  `n` must be an
        int, at most `MAX_VERTICES`, before any run is expanded.  Booleans are found by one C-level
        scan of all ids for `bool`, about 50 ns an id: 2-4 us of the 14-23
        us a 25-edge graph file takes.
        """
        return cls._from_json(obj, None)

    @classmethod
    def _from_json(cls, obj: dict, shared: tuple[VertexLabel, ...] | None) -> "Graph":
        """`from_json(obj)`, or, with `shared` given, the graph of an `obj`
        without labels of its own on the label tuple `shared`: no label is
        decoded, and `from_edges` keeps the tuple, so the graph shares it.
        It does hash them once more to check them, 0.07 ms for the 1 602
        labels of the apex grid k=2, n=40.  The caller has checked that
        obj's n is len(shared)."""
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
            labels = labels_from_json(labels, n)
        g = cls.from_edges(n, edges, labels)
        if bool in map(type, chain.from_iterable(edges)):
            raise InvalidGraph("edge endpoints must be integer vertex ids, not booleans")
        if "cliques" not in obj:
            return g
        cliques = obj["cliques"]
        if not isinstance(cliques, list) or not all(type(c) is list for c in cliques):
            raise InvalidGraph("'cliques' must be a list of lists of vertex ids")
        if bool in map(type, chain.from_iterable(cliques)):
            raise InvalidGraph("clique members must be integer vertex ids, not booleans")
        bit, adj = _bit_table(n), list(g._adj)
        try:
            for clique in cliques:
                m = sum(map(bit.__getitem__, clique))
                if m.bit_count() != len(clique):
                    raise _clique_error(clique, n)
                for v in clique:  # an id in [-2n, -n) fails here
                    adj[v] |= m
        except (IndexError, TypeError):
            raise _clique_error(clique, n) from None
        return cls(n, tuple(a & ~b for a, b in zip(adj, bit)), g.labels)

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
    """Edge intersection of graphs on the same labeled vertex set."""
    if not factors:
        raise ValueError("need at least one factor")
    first = factors[0]
    for g in factors[1:]:
        if g.n != first.n or g.labels != first.labels:
            raise MismatchedVertexSets("factors must share vertex count and labels")
    masks = list(first._adj)
    for g in factors[1:]:
        for v in range(first.n):
            masks[v] &= g._adj[v]
    return Graph(first.n, tuple(masks), first.labels)


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


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distance from source to every vertex; -1 for unreachable."""
    g._check_vertex(source)
    dist = [-1] * g.n
    for d, layer in enumerate(_bfs_layers(g, 1 << source, g.vertex_mask())):
        for v in bits(layer):
            dist[v] = d
    return dist


def diameter(g: Graph) -> int:
    """Largest finite BFS distance; requires a connected nonempty graph."""
    best = 0
    for v in range(g.n):
        dv = bfs_distances(g, v)
        if min(dv) < 0:
            raise ValueError("diameter undefined for disconnected graph")
        best = max(best, max(dv))
    return best


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    return _is_clique_mask(g._adj, g._check_subset(s))


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    smask = g._check_subset(s)
    return all(not (smask & g._adj[v]) for v in bits(smask))
