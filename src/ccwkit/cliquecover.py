"""Ordered clique covers, their width, and exact small-instance solvers for
clique cover width and bandwidth."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidCover
from .graph import Graph, _grown_clique, _pairs, bits, is_clique, mask_of


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
    """Check disjointness, coverage, and that every block is a clique."""
    seen = 0
    for blk in c.cliques:
        m = mask_of(blk)
        if m >> g.n:
            return False, "block contains a vertex outside V(g)"
        if m & seen:
            return False, "blocks are not pairwise disjoint"
        seen |= m
    if seen != g.vertex_mask():
        return False, "blocks do not cover V(g)"
    for i, blk in enumerate(c.cliques):
        if not is_clique(g, blk):
            return False, f"block {i} is not a clique"
    return True, ""


def cover_width(g: Graph, c: OrderedCliqueCover) -> WidthReport:
    """Max block-index gap over edges; witness is the lexicographically first
    attaining edge.

    Works on masks, not edges: block i reaches block i + w iff the union of
    block i's neighbourhoods meets the union of the blocks from i + w on, so
    the running width only ever grows.  The witness is the first u with a
    higher-index neighbour in block b(u) +- width, and its lowest such v.
    O(V + B) big-int operations after `verify_cover`.  Measured on a 2-vCPU
    Xeon VM: 0.4/1.9/6.6 ms on the apex-grid factor 2 and its cover (k=2,
    n=20/40/60), where the per-edge scan took 4.2/25/126 ms; 1.6 to 20 ms on
    G(n, 4/n) with greedy covers, n=500 to 4000 (~V^1.2).
    """
    ok, why = verify_cover(g, c)
    if not ok:
        raise InvalidCover(why)
    masks = [mask_of(blk) for blk in c.cliques]
    m = len(masks)
    suffix = masks + [0]
    for i in range(m - 1, -1, -1):
        suffix[i] |= suffix[i + 1]
    adj, block = g._adj, [0] * g.n  # verify_cover has range-checked every vertex
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
        blk = _grown_clique(g._adj, rest & -rest, rest)
        blocks.append(frozenset(bits(blk)))
        rest &= ~blk
    cover = OrderedCliqueCover(tuple(blocks))
    return cover_width(g, cover).width, cover


# -- exact layout search -----------------------------------------------------


def _layout(
    adj: list[int], cutoff: int, budget: float = math.inf
) -> tuple[int, list[int] | None, bool]:
    """The lexicographically first minimum-width ordering of the graph with
    adjacency masks `adj`, among orderings of width < `cutoff`.

    Returns (width, ordering, exact).  With no ordering of width < `cutoff`
    found, ordering is None and width is `cutoff`; past `budget` nodes,
    exact is False and the ordering is the best one found.

    Depth-first over positions, trying vertices in ascending order.  With
    `best` the smallest width found so far (at first `cutoff`), prefix[j]
    holds the vertices at positions < j and nbr[j] their neighbourhoods:
    - v may go at position i iff no neighbour sits at a position <= i - best;
    - a vertex at a position <= i + 1 - best with an unplaced neighbour
      forces that neighbour to position i, so two such neighbours prune;
    - a leaf lowers `best` to its width and the search unwinds to the first
      position attaining it, so every later leaf is strictly narrower; it
      stops at best <= ceil(maxdeg / 2) (Del Corso & Manzini, Computing 62, 1999).
    Each rule cuts only orderings of width >= best, so the first ordering of
    the minimum width in lexicographic order is the last one accepted.
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
        b = 0  # the best that `far` and `need` were computed for
        while cand:
            if b != best:
                b = best
                far = prefix[max(i + 1 - b, 0)]
                # b >= 2 unless there are no edges, so nbr[i + 2 - b] is set
                need = nbr[max(i + 2 - b, 0)] & ~placed
                if need & (need - 1):
                    return
                if need:
                    cand &= need
                    continue
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if adj[v] & far:
                continue
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
    2-vCPU Xeon VM: median 0.85 / 10 / 620 ms on G(n, 1/2) at n = 8 / 10 / 12;
    7 ms to prove that grid(4) has bandwidth 4.
    """
    n = g.n
    if g.num_edges() == 0:
        return SearchResult(0, True), list(range(n))
    width, order, exact = _layout([g.adj_mask(v) for v in range(n)], n + 1, budget)
    if order is None:  # out of budget before the first leaf
        return SearchResult(n - 1, False), list(range(n))
    return SearchResult(width, exact), order


# -- exact clique cover width ------------------------------------------------


def ccw_exact(g: Graph, budget: int = 500_000) -> tuple[SearchResult, OrderedCliqueCover]:
    """Minimum width over all ordered clique covers, with an optimal cover.

    Enumerates unordered clique partitions (each vertex joins an earlier
    block it is adjacent to, or opens a new one; blocks in order of their
    smallest member), keeping the block quotient graph as it grows.  At each
    leaf it lays out that quotient with `_layout`, below the incumbent width:
    the best block ordering for a fixed partition is a minimum-width layout
    of that quotient.  The incumbent starts at the greedy cover's width.  So
    the cover returned is the greedy one if no partition beats it, else the
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
    has width >= 1.  Measured on a 2-vCPU Xeon VM: median 0.2 / 0.7 / 8 ms
    (max 1 / 13 / 91 ms) on G(n, 1/2) at n = 8 / 10 / 12; 0.2 ms to prove
    ccw(grid(4)) = 2; on grid(5), 0.06 to 0.1 s at budget 1 000 (inexact) and
    15 s to prove ccw = 3 at the default budget.
    """
    n = g.n
    if n == 0:
        return SearchResult(0, True), OrderedCliqueCover(())
    inc_w, inc_cover = ccw_upper_greedy(g)
    adj = [g.adj_mask(v) for v in range(n)]
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

    def too_wide(own: int, gain: int) -> bool:
        """Whether a block with quotient neighbours `own`, or a block in
        `gain` given one more neighbour, exceeds 2 (inc_w - 1) of them."""
        cap = 2 * (inc_w - 1)
        return own.bit_count() > cap or any(quot[j].bit_count() >= cap for j in bits(gain))

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
        for i, b in enumerate(blocks):
            if b & ~nv == 0:  # v adjacent to the whole block
                q, me = quot[i], 1 << i
                gain = hit & ~q & ~me
                if too_wide(q | gain, gain):
                    continue
                blocks[i], quot[i] = b | 1 << v, q | gain
                for j in bits(gain):
                    quot[j] |= me
                rec(v + 1)
                blocks[i], quot[i] = b, q
                for j in bits(gain):
                    quot[j] ^= me
        if too_wide(hit, hit):
            return
        me = 1 << len(blocks)
        blocks.append(1 << v)
        quot.append(hit)
        for j in bits(hit):
            quot[j] |= me
        rec(v + 1)
        blocks.pop()
        quot.pop()
        for j in bits(hit):
            quot[j] ^= me

    rec(0)
    return SearchResult(inc_w, not exhausted), inc_cover
