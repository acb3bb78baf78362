"""Graph families and factorizations: planar grids, apex grids, the
chordal + low-width two-factor decompositions of an apex grid and of a
clique sum of apex grids, both with one line cover of factor 2, and the two
unit-width example families."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import xor
from typing import Iterable, Sequence

from . import graph
from .chordal import ChordalCertificate, _clique_forest, _Elimination, _peo_failure
from .cliquecover import OrderedCliqueCover, _width, cover_width
from .errors import (
    BadRemovedEdge,
    InvalidApexEdge,
    InvalidCover,
    InvalidFactorization,
    InvalidGraph,
    InvalidSize,
    JunctionNotClique,
    UnequalApexSizes,
)
from .graph import (
    Apex,
    Graph,
    GridCell,
    VertexLabel,
    id_lists_from_json,
    id_lists_to_json,
    intersect_graphs,
)
from .graph import is_clique, labels_to_json
from .graph import _bit_table, _closed_meet, _grown_clique, _ids_mask, _pairs, bits, mask_of


@dataclass(frozen=True)
class Factorization:
    """Edge-intersection factorization with a chordal first factor and ordered
    clique covers for the rest. lstar is the max verified cover width."""

    base: Graph
    factors: tuple[Graph, ...]
    chordal_cert: ChordalCertificate
    covers: tuple[OrderedCliqueCover, ...]  # one per factor index >= 1
    widths: tuple[int, ...]
    lstar: int

    # factor 1's verified `_elimination` and each cover's block masks, as
    # `_make_factorization` certified them; None on any other instance, one
    # made by `dataclasses.replace` included
    _checked: tuple[_Elimination, list[list[int]]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def to_json(self) -> dict:
        """The envelope.  The base is its full edge list with the vertex
        labels, grid and apex blocks as runs (`labels_to_json`).  Each
        factor is written as cliques plus the edges they leave uncovered
        (`Graph._unlabeled_json`): factor 1's cliques are the bags of its
        clique forest from the certificate's PEO, and factor i >= 2's the
        blocks of its cover that are cliques of it, as they are.  Where
        every block of cover i - 1 is a clique of factor i with ids in
        range, and the factor has the base's n, the factor is written with
        `"includes_cover": true` and no `cliques`, since `covers` lists the
        blocks already; else with the blocks that are cliques as its
        `cliques`, so an unchecked factorization round-trips too.  A factor
        that holds every base edge lists no base edge, and is written with
        `"includes_base": true` if its cliques leave one uncovered, so a
        constructed factor, its base plus cliques, lists no edge at all, and
        factor 1, whose bags cover every edge it has, needs no key.  A
        factor whose labels equal the base's, as `verify_factorization`
        requires, is written without them; one whose labels differ keeps its
        own, so an unchecked factorization round-trips too.  Every vertex-id
        list, the certificate's, each cover block and each clique, is
        written as id runs (`graph.ids_to_json`): the PEO of the apex grid
        k = 2, n = 40 as `[[1599, -1, -1], 1601, 1600]`, a row band as
        `[[0, 80, 1], 1600, 1601]`, a column as `[[0, 1600, 40]]`.  The runs
        of the certificate's list, and those of each cover's blocks
        together, stand for at most 2n ids (`graph.id_lists_to_json`), the
        room `from_json` allows, so whatever they repeat, they load back.

        A factorization that `_make_factorization` certified is written
        from that check (`_checked`): the bags are built on its elimination,
        the blocks are its masks, and factor 1 is its bags with no edge
        tested, since a verified PEO's bags hold every edge of factor 1
        (Blair & Peyton 1993), and every factor i >= 2 includes its cover.
        Any other one is checked here: one `_elimination` serves the PEO
        test and the forest, and when the test fails a bag that is no
        clique is dropped, as is a block that is none or holds an id
        outside the factor.

        At n = 40 (k = 2) that writes 71 206 bytes with apexes 1 and 2
        adjacent and 71 194 without, where factor 2's blocks written again
        as its cliques took 71 796 and 71 784, and one id per entry 104 441
        and 104 429; a 62-part clique sum (N = 2 034) takes 109 510 bytes,
        where it took 114 574.  On a 2-vCPU Xeon VM, collector paused as in
        the CLI, a certified dict takes 5.3 ms at n = 40 and 7.6 ms on that
        sum, where factor 2's blocks written as id runs a second time took
        5.4 and 7.9 ms (interleaved medians of 120, lower in 77 and 94 of
        120).  Finding the runs (`graph.ids_to_json`) costs 0.3 and 0.6 ms
        of that, which their C encoding and each command that reads the
        envelope back (`from_json`) repay.  At n = 40 `_unlabeled_json`
        took 0.73-0.79 ms on factor 1, 1.00-1.09 ms on factor 2 and
        2.6-3.0 ms on the base, with factor 2's blocks written as cliques."""
        base, g1, peo = self.base, self.factors[0], self.chordal_cert.peo
        certified = self._checked is not None

        def blocks_of(g: Graph, cover: OrderedCliqueCover) -> tuple[list[int], bool]:
            # the masks of the blocks that are cliques of g, and whether all are
            masks = [
                m
                for b in cover.cliques
                if (m := g._subset_mask(b)) is not None and _closed_meet(g._adj, b, m) == m
            ]
            return masks, len(masks) == len(cover.cliques) and g.n == base.n

        if certified:
            (elimination, masks), failure = self._checked, None
            blocks = zip(masks, repeat(True))
        else:
            failure, elimination = _peo_failure(g1, self.chordal_cert)
            blocks = map(blocks_of, self.factors[1:], self.covers)
        bags = _clique_forest(g1, peo, elimination)[0] if elimination else []
        if failure:
            bags = [m for m in bags if _closed_meet(g1._adj, bits(m), m) == m]
        factors = []
        rest = chain([(bags, False)], blocks, repeat(((), False)))
        for i, (g, (cliques, whole)) in enumerate(zip(self.factors, rest)):
            factors.append(g._unlabeled_json(cliques, base._adj, certified and i == 0, whole))
            if g.labels != base.labels:
                factors[-1]["labels"] = labels_to_json(g.labels)
        return {
            "base": base.to_json(),
            "factors": factors,
            "chordal_cert": {
                k: id_lists_to_json([ids], base.n)[0]
                for k, ids in self.chordal_cert.to_json().items()
            },
            "covers": [id_lists_to_json(c.to_json(), base.n) for c in self.covers],
            "widths": list(self.widths),
            "lstar": self.lstar,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Factorization":
        """Decode an envelope; raises `InvalidGraph` for a missing key, a
        malformed graph, no factors, a certificate without exactly one of a
        `peo` and a `hole` list, a cover or certificate entry that is not a
        vertex id or a well-formed run (`graph.id_lists_from_json`, which
        names a malformed run, and one that would take the runs of the
        certificate's list, or of a cover's blocks together, past 2n ids),
        a cover block that repeats one (named by its index and its
        cover's), or non-integer widths or lstar.  Whether they are right
        is left to `verify_factorization`.  Each run is checked in O(1)
        before it is expanded, the other entries of an id list by one
        C-level scan of their types, then their `min` and `max`, and each
        block by a set.

        A factor without `labels` takes the base's checked label tuple, so
        its labels are not decoded or checked again; its n must then be the
        base's.  A factor with `labels` (as in envelopes of earlier
        releases) is decoded in full.  Either way `vertex_sets` compares the
        labels with the base's.  A factor with `includes_base`, which must
        be `true`, must have the base's n too, and gets the base's edges
        (`Graph._from_json`); one without it (factor 1, and factors of
        envelopes of earlier releases) is its own edges and cliques.  So
        does a factor i >= 2 with `includes_cover`, which must be `true`
        and which factor 1 may not carry: it gets each block of cover
        i - 1 as a clique, its mask computed once from the cover's id runs
        (`graph._ids_mask`), and none if that cover is missing, for
        `verify` to report `cover_count`.  Lists of ids one by one, and
        factors that list their cover's blocks as `cliques`, as earlier
        releases wrote them, decode too.  The graphs share one
        `_bit_table`.  On a 2-vCPU Xeon VM, collector paused, the decoded
        JSON of the apex grid k = 2, n = 40 becomes the factorization in
        3.0 ms and that of a 62-part clique sum in 4.7 ms, where factor
        2's blocks listed as its cliques took 3.0 and 4.8 ms (and
        `json.loads` 1.24 and 2.20 ms, now 1.22 and 2.12 ms; interleaved
        medians of 120, lower in 84 and 94 of 120): on the sum factor 2
        decodes in 0.74 ms, where its 339 cliques took 0.97 ms."""
        try:
            base, factors = obj["base"], obj["factors"]
            cert, covers = obj["chordal_cert"], obj["covers"]
            widths, lstar = obj["widths"], obj["lstar"]
        except (KeyError, TypeError):
            raise InvalidGraph(
                "an envelope needs keys 'base', 'factors', 'chordal_cert', "
                "'covers', 'widths' and 'lstar'"
            ) from None
        base = Graph.from_json(base)
        if not isinstance(factors, list) or not factors:
            raise InvalidGraph("'factors' must be a non-empty list of graphs")
        if not isinstance(cert, dict) or len(cert.keys() & {"peo", "hole"}) != 1:
            raise InvalidGraph("'chordal_cert' needs exactly one of a 'peo' and a 'hole' list")
        if not isinstance(covers, list) or not all(isinstance(c, list) for c in covers):
            raise InvalidGraph("'covers' must be a list of covers, each a list of blocks")
        # booleans are not ids, and no later 1 << v may see an unchecked v
        n, (key,) = base.n, cert.keys() & {"peo", "hole"}
        refusal = f"certificate and cover entries must be vertex ids in [0, {n})"

        def ids(lists, whose):
            decoded = id_lists_from_json(lists, n, refusal + ":", whose)
            if decoded is None:
                raise InvalidGraph(refusal)
            return decoded

        (peo_or_hole,) = ids([cert[key]], "its list")
        cert = ChordalCertificate.from_json({key: peo_or_hole})
        entries, covers = covers, [ids(cover, "its cover") for cover in covers]
        for i, cover in enumerate(covers, 1):
            for j, blk in enumerate(cover):
                if len(set(blk)) != len(blk):
                    raise InvalidGraph(f"block {j} of cover {i} repeats a member")
        if not isinstance(widths, list) or not all(type(w) is int for w in (*widths, lstar)):
            raise InvalidGraph("'widths' must be a list of integers and 'lstar' an integer")
        graphs, bit = [], _bit_table(n)
        for i, g in enumerate(factors, 1):
            own = not isinstance(g, dict) or "labels" in g
            inner = isinstance(g, dict) and "includes_base" in g
            with_cover = isinstance(g, dict) and "includes_cover" in g
            for key, given in ("includes_base", inner), ("includes_cover", with_cover):
                if given and (flag := g[key]) is not True:
                    raise InvalidGraph(f"factor {i}: '{key}' must be true, not {flag!r}")
            if with_cover and i == 1:
                raise InvalidGraph("factor 1 may not carry 'includes_cover': it has no cover")
            if (inner or with_cover or not own) and not (type(m := g.get("n")) is int and m == n):
                why = "includes the base" if inner else f"includes cover {i - 1}"
                why = why if own else "has no labels"
                raise InvalidGraph(f"factor {i} {why}, so its n must be the base's {n}, not {m!r}")
            # the blocks of cover i - 1 as (ids, mask), none if it is missing
            cover = None
            if with_cover:
                blocks = zip(covers[i - 2], entries[i - 2]) if i - 2 < len(covers) else ()
                cover = [(ids, _ids_mask(raw, bit)) for ids, raw in blocks]
            graphs.append(Graph._from_json(g, None if own else base.labels, base._adj, cover))
        return cls(
            base=base,
            factors=tuple(graphs),
            chordal_cert=cert,
            covers=tuple(OrderedCliqueCover.from_json(c) for c in covers),
            widths=tuple(widths),
            lstar=lstar,
        )


def _vertex_set_failure(f: Factorization) -> str | None:
    """The first factor whose n or labels differ from the base's, and where,
    or None if every factor shares the base's vertex set."""
    base = f.base
    for i, g in enumerate(f.factors, 1):
        if g.n != base.n:
            return f"factor {i} has n={g.n}, the base n={base.n}"
        if g.labels != base.labels:
            v = next(v for v, (a, b) in enumerate(zip(g.labels, base.labels)) if a != b)
            return f"factor {i} labels vertex {v} {g.labels[v]!r}, the base {base.labels[v]!r}"
    return None


def verify_factorization(f: Factorization) -> list[tuple[str, bool, str]]:
    """Independent re-derivation of every factorization invariant.

    Returns (check name, passed, detail) triples; trusts nothing stored
    beyond the raw graphs, the certificate and the covers.  The
    intersection and PEO checks pass by C-level work on the masks; a Python
    loop runs only to name the witness of one that fails.
    """
    return _verification(f)[0]


def _verification(f: Factorization) -> tuple[list[tuple[str, bool, str]], _Elimination | None]:
    """`verify_factorization(f)`, and the `_elimination` of factor 1 that
    its PEO check ran (None if it ran none)."""
    checks: list[tuple[str, bool, str]] = []

    failure = _vertex_set_failure(f)
    checks.append(("vertex_sets", failure is None, failure or "factors share the base vertex set"))
    if failure:
        return checks, None

    meet, base = intersect_graphs(list(f.factors))._adj, f.base._adj
    edge = None if meet == base else next(_pairs(map(xor, meet, base)))
    if edge is None:
        detail = "intersection of factors edge-equals base"
    else:
        lacking = next((i for i, g in enumerate(f.factors, 1) if not g.has_edge(*edge)), None)
        where = "base" if lacking is None else f"factor {lacking}"
        detail = f"first differing edge ({edge[0]},{edge[1]}) is not in {where}"
    checks.append(("intersection", edge is None, detail))

    failure, elimination = _peo_failure(f.factors[0], f.chordal_cert)
    checks.append(("chordal_certificate", failure is None, failure or "factor 1 PEO verifies"))

    if len(f.covers) != len(f.factors) - 1 or len(f.widths) != len(f.covers):
        detail = (
            f"{len(f.factors)} factors, {len(f.covers)} covers and {len(f.widths)} "
            "widths: need one cover/width per factor >= 2"
        )
        checks.append(("cover_count", False, detail))
        return checks, elimination
    for i, cover in enumerate(f.covers):
        # cover_width runs the cover check first (`_block_masks`, the body
        # of verify_cover) and raises its reason
        try:
            report = cover_width(f.factors[i + 1], cover)
        except InvalidCover as exc:
            checks.append((f"cover_validity[{i + 1}]", False, str(exc)))
            continue
        checks.append((f"cover_validity[{i + 1}]", True, "cover verifies"))
        ok = report.width == f.widths[i]
        detail = f"recomputed width {report.width}, declared {f.widths[i]}"
        if not ok and report.witness:
            x, y, bx, by = report.witness
            detail += f": edge ({x},{y}) spans blocks {bx} and {by}"
        checks.append((f"cover_width[{i + 1}]", ok, detail))
    # no covers, no widths: lstar is then 0, as `_make_factorization` writes it
    top = max(f.widths, default=0)
    detail = "lstar must equal max width"
    if f.lstar != top:
        detail = f"declared lstar {f.lstar}, max width {top}"
    checks.append(("lstar", f.lstar == top, detail))
    return checks, elimination


def check_factorization(f: Factorization) -> _Elimination:
    """Raise `InvalidFactorization` naming the first failing check of
    `verify_factorization`; else return factor 1's `_elimination` by the
    certificate's PEO, just verified, for the caller to build on."""
    checks, elimination = _verification(f)
    for name, ok, detail in checks:
        if not ok:
            raise InvalidFactorization(f"{name}: {detail}")
    return elimination


def _make_factorization(
    base: Graph, factors: Sequence[Graph], covers: Sequence[OrderedCliqueCover], bound: int
) -> Factorization:
    """Assemble, then certify once through `check_factorization`, the checker
    `verify` uses, and hold the certified cover width to the construction's
    bound: the one last step of every factorizing constructor.

    Factor 1's PEO is stated, not searched for: the vertices that are not
    apexes in descending id order, then the apexes in descending id order.
    It fits every family.  A grid cell of row r has as later neighbours in
    factor 1 the lower-id cells of rows r - 1 and r of its part, plus the
    apexes, and they all lie in one band clique; the apex set, eliminated
    last, is a clique of factor 1.  A vertex of `example3_i`'s block i has
    its later neighbours in blocks i - 1 and i, one clique of factor 1, and
    a vertex of `example3_ii` the blown-up band of its row and the row
    above.  Ascending ids would fit too, but for odd n they move
    `separate`'s centroid bag to the other pair of middle rows.  The order
    is not checked here: the checker's `chordal_certificate` test verifies
    it, so a construction it does not fit raises `InvalidFactorization` from
    there.  So does an lstar above `bound`.

    The factorization keeps that check's elimination of factor 1 and its
    cover's block masks (`_checked`), and `to_json` writes from them, so
    `factorize` eliminates factor 1 once and tests each block once: about
    9 % less `factorize`-to-`audit` time on perfbench's sum-separate."""
    is_apex = [isinstance(label, Apex) for label in base.labels]
    cert = ChordalCertificate(peo=tuple(sorted(reversed(range(base.n)), key=is_apex.__getitem__)))
    # declared unchecked; check_factorization below certifies each cover and width
    masks = [[*map(mask_of, c.cliques)] for c in covers]
    widths = tuple(_width(g, c, m).width for g, c, m in zip(factors[1:], covers, masks))
    f = Factorization(
        base=base,
        factors=tuple(factors),
        chordal_cert=cert,
        covers=tuple(covers),
        widths=widths,
        lstar=max(widths, default=0),
    )
    elimination = check_factorization(f)
    if f.lstar > bound:
        raise InvalidFactorization(f"cover width {f.lstar} exceeds bound {bound}")
    object.__setattr__(f, "_checked", (elimination, masks))
    return f


# -- grid and apex grid ------------------------------------------------------


def _check_vertex_count(what: str, n: int) -> None:
    """Refuse a construction of n > `graph.MAX_VERTICES` vertices, the most a
    graph file may declare, before anything is allocated."""
    if n > graph.MAX_VERTICES:
        raise InvalidSize(f"{what}: n={n} exceeds the limit of {graph.MAX_VERTICES} vertices")


def _check_integers(what: str, **values: object) -> None:
    """Refuse a construction parameter that is not an int, such as a float
    or a bool, which `range` and `<<` would refuse or read as 0 or 1."""
    for name, x in values.items():
        if type(x) is not int:
            raise InvalidSize(f"{what}: {name} must be an integer, not {x!r}")


# pairs of 1-based apex indices
_ApexPairs = Iterable[tuple[int, int]]


def _grid_args(
    what: str, parts: Sequence[tuple[int, int]], apex_edges: _ApexPairs, min_n: int, min_k: int
) -> tuple[int, list[int], list[tuple[int, int]]]:
    """The one door of the apex-grid entries (`grid`, `apex_grid`,
    `factorize_apex_grid`, `factorize_clique_sum`, each named by `what`):
    the shared k, the sizes n and the apex pairs, checked in this order, so
    the first failing check wins: at least one (k, n) part, each k and n an
    int, one k, every n >= min_n, k >= min_k, at most `graph.MAX_VERTICES`
    vertices (sum of n^2, plus k), then each apex pair two distinct ints in
    1..k.  A part that is not a (k, n) pair raises `InvalidSize`, an apex
    pair that is not a pair `InvalidApexEdge`, each naming the entry, at the
    step that checks it.  Nothing beyond the input is allocated before the
    refusal."""
    if not parts:
        raise InvalidSize(f"{what} needs at least one part")
    for part in parts:
        try:
            k, n = part
        except (TypeError, ValueError):
            raise InvalidSize(f"{what}: part {part!r} is not a (k, n) pair") from None
        _check_integers(what, k=k, n=n)
    ks = {k for k, _ in parts}
    if len(ks) != 1:
        raise UnequalApexSizes(f"all parts must share one apex size, got {sorted(ks)}")
    k = ks.pop()
    sizes = [n for _, n in parts]
    if min(sizes) < min_n:
        raise InvalidSize(f"{what} requires n >= {min_n}")
    if k < min_k:
        raise InvalidSize(f"{what} requires k >= {min_k}")
    _check_vertex_count(what, sum(n * n for n in sizes) + k)
    pairs = list(apex_edges)
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise InvalidApexEdge(f"apex edge {pair!r} invalid for k={k}") from None
        if type(a) is not int or type(b) is not int or a == b or not (1 <= a <= k and 1 <= b <= k):
            raise InvalidApexEdge(f"apex edge ({a},{b}) invalid for k={k}")
    return k, sizes, pairs


def grid(n: int) -> Graph:
    """n x n planar grid; cells row-major, edges between orthogonal
    neighbors: the base `_apex_grid_base` builds with no apexes."""
    return _apex_grid_base(*_grid_args("grid", [(0, n)], (), 1, 0))[0]


def apex_grid(k: int, n: int, apex_edges: set[tuple[int, int]] | None = None) -> Graph:
    """n x n grid plus k apex vertices joined to every grid cell, with the
    given edge set among the apexes: the base `_apex_grid_base` builds for
    one size, labeled GridCell(0, r, c) and Apex(0, j)."""
    return _apex_grid_base(*_grid_args("apex_grid", [(k, n)], apex_edges or (), 1, 0))[0]


def _apex_grid_base(
    k: int, sizes: Sequence[int], apex_cliques: Iterable[Sequence[int]], cut: _ApexPairs = ()
) -> tuple[Graph, list[int]]:
    """One n x n grid per entry n of `sizes`, all joined to one set of k
    apexes, and each grid's first vertex: the one code that numbers and
    joins apex-grid vertices.  Its arguments come through `_grid_args`.  The
    apex-apex edges are each clique of `apex_cliques`, given by its 1-based
    apex indices (an apex edge is a 2-clique), joined on the masks
    (`_joined`), then each pair of `cut` cleared, so a pair listed twice or
    in either order is cut once.  No list of apex pairs is built: a clique
    sum passes its apex set as one clique and its removed edges as `cut`.
    For one size it is `apex_grid(k, n, apex_edges)` (`grid(n)` for
    k = 0); for more, their clique sum at the apex set.

    Vertices are part 0's cells row-major, then the apexes, then each later
    part's cells; labels are GridCell(i, r, c) for part i and Apex(0, j)."""
    first = sizes[0] ** 2  # the first apex
    starts, total = [0], first + k
    for n in sizes[1:]:
        starts.append(total)
        total += n * n
    apexes = mask_of(range(first, first + k))
    masks = [0] * total
    labels: list[VertexLabel | None] = [None] * total
    for i, (n, s) in enumerate(zip(sizes, starts)):
        for r in range(n):
            for c in range(n):
                v = s + r * n + c
                bit = 1 << v
                near = (bit >> 1 if c > 0 else 0) | (bit << 1 if c + 1 < n else 0) | apexes
                masks[v] = near | (bit >> n if r > 0 else 0) | (bit << n if r + 1 < n else 0)
                labels[v] = GridCell(i, r + 1, c + 1)
    masks[first : first + k] = [((1 << total) - 1) ^ apexes] * k
    labels[first : first + k] = [Apex(0, j) for j in range(1, k + 1)]
    masks = _joined(masks, ([first + a - 1 for a in clique] for clique in apex_cliques))
    for a, b in cut:
        masks[first + a - 1] &= ~(1 << first + b - 1)
        masks[first + b - 1] &= ~(1 << first + a - 1)
    return Graph.from_masks(masks, labels), starts


# -- the two-factor apex-grid factorization ----------------------------------


def _joined(masks: Sequence[int], cliques: Iterable[Sequence[int]]) -> list[int]:
    """A copy of `masks` with each clique, given by its vertex ids (a range
    or a list: it is walked twice), made complete; no vertex gains its own
    bit.  Every constructed factor is its base joined with cliques here, so
    a construction's peak is the masks its graphs keep, not a list of edge
    tuples (about n^2 k / 2 of them, 20.9 MB, for `example3_i` at n = 800,
    k = 1)."""
    joined = list(masks)
    for clique in cliques:
        m = mask_of(clique)
        for v in clique:
            joined[v] |= m ^ (1 << v)
    return joined


def _apex_grid_factors(
    k: int, sizes: Sequence[int], apex_cliques: Iterable[Sequence[int]], cut: _ApexPairs = ()
) -> tuple[Graph, list[Graph], list[OrderedCliqueCover]]:
    """The base `_apex_grid_base(k, sizes, apex_cliques, cut)`, its two
    factor graphs and the ordered cover of factor 2: the one builder of
    every grid factorization.  Its arguments come through `_grid_args`.

    Each factor is the base plus cliques (`_joined`).  Factor 1: rows r and
    r + 1 of one part plus the apex set, for each r (a one-row part: its row
    plus the apexes), so cells of one part are adjacent iff their rows differ
    by at most one and the apex set is complete.  Factor 2: the columns of
    every part, so its apex-apex edges are exactly the base's.  Its cover is
    one line: the N columns of all parts, in part order, then column order.
    The apexes split into cliques of factor 2, grown lowest first as
    `ccw_upper_greedy` grows its blocks (a complete apex set is one), and
    the j-th joins the column at offset 0, +1, -1, +2, ... from the middle
    column (N - 1) // 2; any left once every column holds one follow the
    middle column as blocks of their own.  Every apex is adjacent to every
    cell, so for k >= 1 the width is the largest distance from an apex's
    block to an end of the line: with c <= N classes and m = (N - 1) // 2,
    max(m + c // 2, N - 1 - m + (c - 1) // 2), which is ceil((N - 1) / 2)
    for a complete apex set (c = 1).  That is optimal: the N diagonal cells
    are independent in factor 2 and all adjacent to apex 1, so every
    ordered clique cover puts them in N blocks within its width of apex 1's.
    """
    g, starts = _apex_grid_base(k, sizes, apex_cliques, cut)
    first = sizes[0] ** 2
    apex_ids = range(first, first + k)
    bands: list[list[int]] = []
    columns: list[range] = []
    for n, s in zip(sizes, starts):
        rows = range(max(n - 1, 1))
        bands += [[*range(s + r * n, s + min(r + 2, n) * n), *apex_ids] for r in rows]
        columns += [range(s + c, s + n * n, n) for c in range(n)]
    classes, rest = [], mask_of(apex_ids)
    while rest:
        classes.append(clique := _grown_clique(g._adj, rest))
        rest ^= clique
    mid = (len(columns) - 1) // 2
    cover = [frozenset(col) for col in columns]
    for j, clique in enumerate(classes[: len(cover)]):
        cover[mid + (j + 1) // 2 if j % 2 else mid - j // 2] |= frozenset(bits(clique))
    cover[mid + 1 : mid + 1] = [frozenset(bits(clique)) for clique in classes[len(cover) :]]
    # from_masks keeps a tuple as it is, so the factors share the base's labels
    factors = [Graph.from_masks(_joined(g._adj, cliques), g.labels) for cliques in (bands, columns)]
    return g, factors, [OrderedCliqueCover(tuple(cover))]


def factorize_apex_grid(
    k: int, n: int, apex_edges: set[tuple[int, int]] | None = None
) -> Factorization:
    """Two-factor decomposition of an apex grid: chordal factor 1 plus a
    column-clique factor whose one-line cover (`_apex_grid_factors`) has
    width at most ceil(n/2) + k, the paper's bound, and ceil((n - 1)/2), the
    optimum, when k >= 1 and the apex set is complete."""
    args = _grid_args("factorize_apex_grid", [(k, n)], apex_edges or (), 2, 0)
    return _make_factorization(*_apex_grid_factors(*args), (n + 1) // 2 + k)


# -- clique sums -------------------------------------------------------------


def clique_sum(
    parts: Sequence[Graph],
    junctions: Sequence[Sequence[tuple[int, int]]],
    removed_edges: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> Graph:
    """Iterated clique sum. junctions[i] identifies vertices of parts[i+1]
    (second coordinate) with already-placed vertices given by their global index
    in the running sum (first coordinate). Identified vertices must induce a
    clique on both sides. removed_edges[i], in global indices, is deleted from
    the junction clique after that sum."""
    if not parts:
        raise InvalidSize("need at least one part")
    if len(junctions) != len(parts) - 1:
        raise InvalidSize("need one junction per consecutive pair")
    if removed_edges is None:
        removed_edges = [[] for _ in junctions]

    masks = list(parts[0]._adj)
    labels = list(parts[0].labels)

    for step, part in enumerate(parts[1:]):
        ident = dict()  # part-local vertex -> global index
        for g_idx, p_idx in junctions[step]:
            if not 0 <= g_idx < len(masks):
                raise JunctionNotClique(f"global vertex {g_idx} does not exist")
            part._check_vertex(p_idx)
            ident[p_idx] = g_idx
        glob_set = set(ident.values())
        if len(glob_set) != len(ident):
            raise JunctionNotClique("identification is not injective")
        if _closed_meet(masks, glob_set, m := mask_of(glob_set)) != m:
            raise JunctionNotClique("identified set is not a clique in the sum")
        if not is_clique(part, ident.keys()):
            raise JunctionNotClique("identified set is not a clique in the new part")
        # place the non-identified vertices of the part
        for v in range(part.n):
            if v not in ident:
                ident[v] = len(masks)
                masks.append(0)
                labels.append(part.labels[v])
        for u, v in part.edges():
            gu, gv = ident[u], ident[v]
            masks[gu] |= 1 << gv
            masks[gv] |= 1 << gu
        for u, v in removed_edges[step]:
            if u not in glob_set or v not in glob_set or not masks[u] >> v & 1:
                raise BadRemovedEdge(f"({u},{v}) is not an edge of the junction clique")
            masks[u] &= ~(1 << v)
            masks[v] &= ~(1 << u)
    return Graph.from_masks(masks, labels)


def factorize_clique_sum(
    parts: Sequence[tuple[int, int]], removed_edges: Iterable[tuple[int, int]] = ()
) -> Factorization:
    """Chordal + low-width factorization of the clique sum of apex grids at
    their apex sets: parts holds (k_i, n_i) per summand, all k_i equal, and
    removed_edges the apex-index pairs deleted from the shared apex clique of
    the base.  The cover lays the N = sum(n_i) columns of all parts in one
    line with the apex cliques at its middle (`_apex_grid_factors`); its
    width is at most sum(n_i + k_i), the paper's bound, and ceil((N - 1)/2),
    the optimum, when no apex edge is removed."""
    k, sizes, removed = _grid_args("factorize_clique_sum", parts, removed_edges, 2, 1)
    # the apex set joined as one clique, then the removed edges cut: factor 1
    # keeps the apex set complete; they leave the base and factor 2, whose
    # apex-apex edges are the base's
    factors = _apex_grid_factors(k, sizes, [range(1, k + 1)], removed)
    return _make_factorization(*factors, sum(n + k for n in sizes))


# -- the two unit-width example families -------------------------------------


def example3_i(n: int, k: int) -> Factorization:
    """Chain of k n-cliques with consecutive blocks joined on a fixed
    ceil(n/2)-subset, their heads: the base is the k block cliques plus
    head_i + head_{i+1} as one clique for each i.  Factor 2 is the base
    itself with the width-1 block cover; factor 1 is the base plus
    block_i + block_{i+1} as one clique for each i (for k = 1, the one
    block), an interval-like graph."""
    _check_integers("example3_i", n=n, k=k)
    if n < 1 or k < 1:
        raise InvalidSize("example3_i requires n, k >= 1")
    total = n * k
    _check_vertex_count("example3_i", total)
    blocks = [range(i * n, (i + 1) * n) for i in range(k)]
    heads = [block[: (n + 1) // 2] for block in blocks]
    base = _joined([0] * total, blocks + [[*heads[i], *heads[i + 1]] for i in range(k - 1)])
    g = Graph.from_masks(base)
    pairs = [range(i * n, min(i + 2, k) * n) for i in range(max(k - 1, 1))]
    g1 = Graph.from_masks(_joined(base, pairs), g.labels)
    cover = OrderedCliqueCover(tuple(frozenset(block) for block in blocks))
    return _make_factorization(g, [g1, g], [cover], 1)


def _blow_up(g: Graph, b: int) -> Graph:
    """g with each vertex v replaced by the clique B_v = v*b .. v*b + b - 1
    and each edge uv by the clique B_u + B_v; labels are Plain."""
    blocks = [range(v * b, v * b + b) for v in range(g.n)]
    joins = ([*blocks[u], *blocks[v]] for u, v in g.edges())
    return Graph.from_masks(_joined([0] * (g.n * b), chain(blocks, joins)))


def example3_ii(n: int, k: int) -> Factorization:
    """Grid blow-up: the base and each factor of the apex-free grid
    factorization (`_apex_grid_factors` with no apexes) through `_blow_up`,
    so every cell becomes a k-clique and every edge a complete join: the
    consecutive-row-band graph and the column-clique graph over the
    blown-up vertices, the latter with a width-1 column cover."""
    _check_integers("example3_ii", n=n, k=k)
    if n < 1 or k < 1:
        raise InvalidSize("example3_ii requires n, k >= 1")
    _check_vertex_count("example3_ii", n * n * k)
    base, factors, covers = _apex_grid_factors(0, [n], ())
    columns = tuple(
        frozenset(v * k + x for v in blk for x in range(k)) for blk in covers[0].cliques
    )
    return _make_factorization(
        _blow_up(base, k), [_blow_up(g, k) for g in factors], [OrderedCliqueCover(columns)], 1
    )
