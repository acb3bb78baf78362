"""Ordered clique covers, their width, and exact small-instance solvers for
clique cover width and bandwidth."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidCover
from .graph import Graph, _closed_meet, _grown_clique, _pairs, bits


@dataclass(frozen=True)
class OrderedCliqueCover:
    """Sequence of disjoint cliques covering all vertices; order-significant."""

    cliques: tuple[frozenset[int], ...]

    def block_of(self) -> dict[int, int]:
        return {v: i for i, blk in enumerate(self.cliques) for v in blk}

    def to_json(self) -> list[list[int]]:
        return [sorted(blk) for blk in self.cliques]

    @classmethod
    def from_json(cls, obj: Sequence[Sequence[int]]) -> "OrderedCliqueCover":
        return cls(tuple(frozenset(blk) for blk in obj))


@dataclass(frozen=True)
class WidthReport:
    width: int
    witness: tuple[int, int, int, int] | None  # (x, y, block_x, block_y)


@dataclass(frozen=True)
class SearchResult:
    """Result of an exact search; `exact` is False when the node budget ran out
    and `value` is only the best-known upper bound."""

    value: int
    exact: bool


def verify_cover(g: Graph, c: OrderedCliqueCover) -> tuple[bool, str]:
    """Check that every block is within V(g), disjointness, coverage, and
    that every block is a clique.  Each block becomes a mask once, through
    `Graph._subset_mask`, so an id outside [0, n), negative or huge, is
    refused before it is shifted; each clique test then runs on the ids
    the block holds (`_closed_meet`), not on the bits of its mask.  On a
    2-vCPU Xeon VM the cover of the apex-grid factor 2 (k=2, n=20/40)
    checks in 0.09/0.6 ms, against 0.2-0.3/0.9-1.6 ms when each block's
    mask was walked bit by bit, one test of adj[v] per member."""
    masks, why = _block_masks(g, c)
    return masks is not None, why


def _block_masks(g: Graph, c: OrderedCliqueCover) -> tuple[list[int] | None, str]:
    """The body of `verify_cover`: the mask of each block of c if c passes,
    else None and the reason it fails."""
    masks, seen = [], 0
    for blk in c.cliques:
        m = g._subset_mask(blk)
        if m is None:
            return None, "block contains a vertex outside V(g)"
        if m & seen:
            return None, "blocks are not pairwise disjoint"
        seen |= m
        masks.append(m)
    if seen != g.vertex_mask():
        return None, "blocks do not cover V(g)"
    for i, (blk, m) in enumerate(zip(c.cliques, masks)):
        if _closed_meet(g._adj, blk, m) != m:
            return None, f"block {i} is not a clique"
    return masks, ""


def cover_width(g: Graph, c: OrderedCliqueCover) -> WidthReport:
    """Max block-index gap over edges; witness is the lexicographically first
    attaining edge.

    Works on masks, not edges: block i reaches block i + w iff the union of
    block i's neighbourhoods meets the union of the blocks from i + w on, so
    the running width only ever grows.  The witness is the first u with a
    higher-index neighbour in block b(u) +- width, and its lowest such v.
    O(V + B) big-int operations on the block masks the cover check built
    (`_block_masks`, the body of `verify_cover`), so each block becomes a
    mask once.  Measured on a 2-vCPU Xeon VM: 0.4/1.9/6.6 ms on the
    apex-grid factor 2 and its cover (k=2, n=20/40/60), where the per-edge
    scan took 4.2/25/126 ms; 1.6 to 20 ms on G(n, 4/n) with greedy covers,
    n=500 to 4000 (~V^1.2).
    """
    masks, why = _block_masks(g, c)
    if masks is None:
        raise InvalidCover(why)
    return _width(g, c, masks)


def _width(g: Graph, c: OrderedCliqueCover, masks: list[int]) -> WidthReport:
    """`cover_width` of a cover that `verify_cover` accepts, without that
    check, given the masks of its blocks."""
    m = len(masks)
    suffix = masks + [0]
    for i in range(m - 1, -1, -1):
        suffix[i] |= suffix[i + 1]
    adj, block = g._adj, [0] * g.n  # the cover is valid, so every vertex is in range
    width = 0
    for i, blk in enumerate(c.cliques):
        reach = 0
        for v in blk:
            block[v] = i
            reach |= adj[v]
        while i + width + 1 < m and reach & suffix[i + width + 1]:
            width += 1
    if width == 0:
        return WidthReport(0, None)
    # padded[b] | padded[b + 2 * width] is the union of blocks b +- width
    padded = [0] * width + masks + [0] * width
    far = (adj[u] & (padded[b] | padded[b + 2 * width]) for u, b in enumerate(block))
    u, v = next(_pairs(far))  # some edge attains width > 0
    return WidthReport(width, (u, v, block[u], block[v]))


# -- greedy upper bound ------------------------------------------------------


def ccw_upper_greedy(g: Graph) -> tuple[int, OrderedCliqueCover]:
    """Valid cover built from greedy maximal cliques over remaining vertices,
    blocks in discovery order; its width upper-bounds ccw(g)."""
    rest = g.vertex_mask()
    blocks = []
    while rest:
        blk = _grown_clique(g._adj, rest)
        blocks.append(frozenset(bits(blk)))
        rest &= ~blk
    cover = OrderedCliqueCover(tuple(blocks))
    return cover_width(g, cover).width, cover


# -- exact layout search -----------------------------------------------------


def _layout(
    adj: Sequence[int], cutoff: int, budget: float = math.inf
) -> tuple[int, list[int] | None, bool]:
    """The lexicographically first minimum-width ordering of the graph with
    adjacency masks `adj`, among orderings of width < `cutoff`.

    Returns (width, ordering, exact).  With no ordering of width < `cutoff`
    found, ordering is None and width is `cutoff`; past `budget` nodes,
    exact is False and the ordering is the best one found.

    Depth-first over positions, trying vertices in ascending order.  With
    `best` the smallest width found so far (at first `cutoff`), prefix[j]
    holds the vertices at positions < j and nbr[j] their neighbourhoods:
    - a vertex at a position <= i + 1 - best with an unplaced neighbour
      forces that neighbour to position i, so two such neighbours prune;
    - deadlines: an unplaced vertex in nbr[j] has a neighbour at a position
      < j, so it must go at a position <= j + best - 2, and only
      j + best - 1 - i of those are free; more unplaced vertices in nbr[j]
      than that, for any j in [i + 2 - best, i], prune.  This is Hall's
      condition on position windows (Caprara & Salazar-Gonzalez, INFORMS J.
      Computing 17, 2005) with neighbours only, no distance table; j =
      i + 2 - best is the rule above.  It costs at most best - 1 popcounts
      each time `best` changes;
    - a leaf lowers `best` to its width and the search unwinds to the first
      position attaining it, so every later leaf is strictly narrower; it
      stops at best <= ceil(maxdeg / 2) (Del Corso & Manzini, Computing 62, 1999).
    Each rule cuts only orderings of width >= best, so the first ordering of
    the minimum width in lexicographic order is the last one accepted.

    No vertex is ever placed best or more positions after a neighbour, so
    the search needs no placement test.  nbr[j] only grows with j, so each
    unplaced neighbour of a vertex at position p lies in nbr[p + 1], and at
    position p + best - 1 the first rule forced the one such vertex there
    was; none is left after it.  After a leaf the search resumes only at
    positions up to the first one attaining the new `best`, and every gap
    of the leaf's prefix before it is below that width, so the same holds
    under the new `best`.  `leaf` asserts it: its width is below the `best`
    it was searched under.
    """
    n = len(adj)
    floor = (max((m.bit_count() for m in adj), default=0) + 1) // 2
    if cutoff <= floor:
        return cutoff, None, True
    full = (1 << n) - 1
    order, pos = [0] * n, [0] * n
    prefix, nbr = [0] * (n + 1), [0] * (n + 1)
    # fit < n: levels past position `fit` unwind, their prefix too wide now
    best, found, nodes, fit = cutoff, None, 0, n
    done = exhausted = False

    def leaf() -> None:
        nonlocal best, found, fit, done
        width = 0
        for j in range(1, n):
            earlier = adj[order[j]] & prefix[j]
            if earlier:
                gap = j - min(pos[u] for u in bits(earlier))
                if gap > width:  # fit: the first position attaining the width
                    width, fit = gap, j
        assert width < best, "a vertex was placed best positions after a neighbour"
        best, found = width, order[:]
        done = best <= floor

    def rec(i: int) -> None:
        nonlocal nodes, exhausted, done, fit
        nodes += 1
        if nodes > budget:
            exhausted = done = True
            return
        if i == n:
            leaf()
            return
        placed = prefix[i]
        cand = full & ~placed
        b = 0  # the best that the deadlines and `need` were computed for
        while cand:
            if b != best:
                b = best
                # b >= 2 unless there are no edges, so nbr[lo] is set
                lo = max(i + 2 - b, 0)
                for j in range(lo, i + 1):
                    if (nbr[j] & ~placed).bit_count() > j + b - 1 - i:
                        return
                need = nbr[lo] & ~placed
                if need:
                    cand &= need
                    continue
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            order[i], pos[v] = v, i
            prefix[i + 1] = placed | low
            nbr[i + 1] = nbr[i] | adj[v]
            rec(i + 1)
            if done or fit < i:
                return
            fit = n

    rec(0)
    return best, found, not exhausted


def bandwidth_exact(g: Graph, budget: int = 2_000_000) -> tuple[SearchResult, list[int]]:
    """Minimum width over vertex orderings, with the lexicographically first
    ordering of that width: (result, ordering).

    `budget` counts layout search nodes (see `_layout`); when it runs out the
    result is the narrowest ordering found, flagged inexact.  Measured on a
    2-vCPU Xeon VM (best of 3 per graph): median 0.11 / 0.21 / 0.51 ms (max
    0.16 / 0.5 / 1.0 ms) on 30 G(n, 1/2) graphs each at n = 8 / 10 / 12; 1 ms
    and 538 nodes to prove that grid(4) has bandwidth 4, 16 ms and 9 327
    nodes for bandwidth 5 on grid(5).
    """
    n = g.n
    if g.num_edges() == 0:
        return SearchResult(0, True), list(range(n))
    width, order, exact = _layout(g._adj, n + 1, budget)
    if order is None:  # out of budget before the first leaf
        return SearchResult(n - 1, False), list(range(n))
    return SearchResult(width, exact), order


# -- exact clique cover width ------------------------------------------------


def ccw_exact(g: Graph, budget: int = 500_000) -> tuple[SearchResult, OrderedCliqueCover]:
    """Minimum width over all ordered clique covers, with an optimal cover.

    Enumerates unordered clique partitions (each vertex joins an earlier
    block it is adjacent to, or opens a new one, in one child loop whose
    last child is the new block; blocks in order of their smallest member),
    keeping the block quotient graph as it grows.  At each leaf it lays out
    that quotient with `_layout`, below the incumbent width: the best block
    ordering for a fixed partition is a minimum-width layout of that
    quotient.  The incumbent starts at the greedy cover's width.  So the
    cover returned is the greedy one if no partition beats it, else the
    first partition of minimum width with its blocks in the lexicographically
    first optimal order.

    A child is skipped when the block v lands in, or a block that gains a
    neighbour, would have more than 2 (inc_w - 1) quotient neighbours.  Down
    a branch blocks and quotient edges only grow, and a block of degree D
    forces width >= ceil(D / 2) (Del Corso & Manzini, Computing 62, 1999), so
    no skipped leaf could beat the incumbent and the cover returned is the
    one the full enumeration returns.

    `budget` counts the partition nodes visited; skipped children and the
    quotient layouts are not charged.  The search stops at width 1: a greedy
    width above 0 means g is not a disjoint union of cliques, so every cover
    has width >= 1.  Measured on a 2-vCPU Xeon VM (best of 3 per graph):
    median 0.24 / 0.38 / 6.5 ms (max 0.5 / 10 / 33 ms) on 30 G(n, 1/2)
    graphs each at n = 8 / 10 / 12; 0.26 ms to prove ccw(grid(4)) = 2; on
    grid(5), 0.03 s at budget 1 000 (inexact) and 3.9 s to prove ccw = 3 at
    the default budget.
    """
    n = g.n
    inc_w, inc_cover = ccw_upper_greedy(g)
    adj = g._adj
    nodes = 0
    exhausted = False
    blocks: list[int] = []
    quot: list[int] = []  # quot[i]: mask of the blocks adjacent to block i

    def leaf() -> None:
        nonlocal inc_w, inc_cover
        width, order, _ = _layout(quot, inc_w)
        if order is not None:  # order[i]: the block placed at position i
            inc_w = width
            inc_cover = OrderedCliqueCover(
                tuple(frozenset(bits(blocks[i])) for i in order)
            )

    def rec(v: int) -> None:
        nonlocal nodes, exhausted
        if exhausted or inc_w <= 1:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if v == n:
            leaf()
            return
        nv = adj[v]
        hit = 0  # the blocks that meet adj[v]
        for i, b in enumerate(blocks):
            if b & nv:
                hit |= 1 << i
        t = len(blocks)
        for i in range(t + 1):
            if i == t:  # v opens a new block
                blocks.append(0)
                quot.append(0)
            b, q, me = blocks[i], quot[i], 1 << i
            if b & ~nv:  # v not adjacent to the whole block
                continue
            gain = hit & ~q & ~me
            cap = 2 * (inc_w - 1)
            if (q | gain).bit_count() > cap or any(quot[j].bit_count() >= cap for j in bits(gain)):
                continue
            blocks[i], quot[i] = b | 1 << v, q | gain
            for j in bits(gain):
                quot[j] |= me
            rec(v + 1)
            blocks[i], quot[i] = b, q
            for j in bits(gain):
                quot[j] ^= me
        blocks.pop()
        quot.pop()

    rec(0)
    return SearchResult(inc_w, not exhausted), inc_cover
