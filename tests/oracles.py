"""Brute-force oracles, independent of the library's algorithms.

These are written against the definitions only (enumerate everything) and are
deliberately kept free of any code path they are used to check.
"""

import math
from itertools import combinations, permutations

from ccwkit.chordal import _clique_forest, _elimination
from ccwkit.errors import InvalidGraph, InvalidMeasure, VertexOutOfRange
from ccwkit.cliquecover import OrderedCliqueCover, SearchResult, _layout, ccw_upper_greedy
from ccwkit.graph import Apex, Graph, GridCell, bits, labels_to_json


def all_clique_partitions(g: Graph):
    """Every unordered partition of V(g) into cliques."""

    def rec(v, blocks):
        if v == g.n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            if all(g.has_edge(u, v) for u in b):
                b.append(v)
                yield from rec(v + 1, blocks)
                b.pop()
        blocks.append([v])
        yield from rec(v + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def ordered_cover_width(g: Graph, blocks) -> int:
    pos = {}
    for i, b in enumerate(blocks):
        for v in b:
            pos[v] = i
    return max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)


def brute_ccw(g: Graph) -> int:
    """Minimum width over every ordered clique cover, by full enumeration."""
    best = None
    for partition in all_clique_partitions(g):
        for order in permutations(range(len(partition))):
            blocks = [partition[i] for i in order]
            w = ordered_cover_width(g, blocks)
            if best is None or w < best:
                best = w
            if best == 0:
                return 0
    return best


def brute_bandwidth(g: Graph) -> int:
    best = None
    for order in permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(order)}
        w = max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)
        if best is None or w < best:
            best = w
    return best if best is not None else 0


def brute_first_min_layout(g: Graph) -> list[int]:
    """The lexicographically first ordering of minimum width: the smallest
    (width, ordering) pair over every permutation of V(g)."""
    return list(min(
        permutations(range(g.n)),
        key=lambda order: (ordered_cover_width(g, [[v] for v in order]), order),
    ))


def brute_has_hole(g: Graph) -> bool:
    """True iff some vertex subset induces a cycle of length >= 4."""
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            degs = [sum(g.has_edge(u, v) for v in sub if v != u) for u in sub]
            if any(d != 2 for d in degs):
                continue
            # degree-2 everywhere: an induced cycle iff connected
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                u = stack.pop()
                for v in sub:
                    if v not in seen and g.has_edge(u, v):
                        seen.add(v)
                        stack.append(v)
            if len(seen) == size:
                return True
    return False


def brute_maximal_cliques(g: Graph):
    """Every maximal clique, ordered by size, then lexicographically.

    Cliques grow by extension: a clique (as an ascending tuple) gains only
    larger-index vertices adjacent to all its members, so each clique is
    grown once.  One that no vertex extends is maximal."""
    def extends(c, v):
        return v not in c and all(g.has_edge(u, v) for u in c)

    maximal = []

    def grow(c):
        grown = False
        for v in range(c[-1] + 1, g.n):
            if extends(c, v):
                grown = True
                grow(c + (v,))
        if not grown and not any(extends(c, v) for v in range(c[-1])):
            maximal.append(c)

    for v in range(g.n):
        grow((v,))
    return [set(c) for c in sorted(maximal, key=lambda c: (len(c), c))]


def subset_maximal_cliques(g: Graph):
    """brute_maximal_cliques by enumerating every vertex subset: the
    reference for the extension version, usable only on small graphs."""
    cliques = []
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                cliques.append(set(sub))
    return [c for c in cliques if not any(c < d for d in cliques)]


def brute_components(g: Graph):
    seen = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in range(g.n):
                if v not in comp and g.has_edge(u, v):
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
        seen |= comp
    return comps


def brute_lex_bfs(g: Graph):
    """Lex-BFS by its definition: every vertex keeps a label, the list of the
    (descending) numbers of its already visited neighbours; visit the vertex
    with the lexicographically largest label, the smallest index on ties."""
    labels = {v: [] for v in range(g.n)}
    order = []
    for step in range(g.n):
        v = max(labels, key=lambda u: (labels[u], -u))
        del labels[v]
        order.append(v)
        for u in labels:
            if g.has_edge(u, v):
                labels[u].append(g.n - step)
    return order


def brute_ordered_maximal_cliques(g: Graph, peo):
    """C(v) = {v} plus the neighbours of v after it in `peo`, in PEO order,
    keeping those that no other C(u) strictly contains."""
    pos = {v: i for i, v in enumerate(peo)}
    cand = [
        {v} | {u for u in range(g.n) if g.has_edge(u, v) and pos[u] > pos[v]}
        for v in peo
    ]
    return [c for c in cand if not any(c < d for d in cand)]


def fill_in(g: Graph, order):
    """The elimination game: eliminate vertices in `order`, joining the later
    neighbours of each; the result is chordal with `order` as a PEO."""
    edges = {(u, v) for u, v in g.edges()}
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in range(g.n)
                 if pos[u] > pos[v] and ((u, v) in edges or (v, u) in edges)]
        for a, b in combinations(later, 2):
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(g.n, sorted(edges))


def brute_cover_width(g: Graph, blocks):
    """(width, witness) of an ordered cover by scanning every vertex pair:
    the largest block-index gap over edges, and (u, v, b(u), b(v)) for the
    lexicographically first edge u < v attaining it (None at width 0)."""
    pos = {v: i for i, b in enumerate(blocks) for v in b}
    width, witness = 0, None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) and abs(pos[u] - pos[v]) > width:
                width = abs(pos[u] - pos[v])
                witness = (u, v, pos[u], pos[v])
    return width, witness


def brute_peo_witness(g: Graph, order):
    """None if `order` is a perfect elimination ordering, else (v, p, w): the
    first v in order whose earliest later neighbour p is not adjacent to some
    later neighbour w of v, with w the smallest such vertex."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in order if pos[u] > pos[v] and g.has_edge(u, v)]
        if not later:
            continue
        p = later[0]
        missing = [w for w in sorted(later) if w != p and not g.has_edge(p, w)]
        if missing:
            return v, p, missing[0]
    return None


def blown_up_grid(n: int, b: int):
    """Example 3(ii) by its definition, one vertex pair at a time: vertex x
    is copy x % b of cell x // b of the n x n grid, cells row-major.  Returns
    the base (same or orthogonally adjacent cells), factor 1 (rows at most
    one apart) and factor 2 (same column, or same row and adjacent columns),
    all with the default labels."""
    def cell(x):
        return divmod(x // b, n)

    base, g1, g2 = [], [], []
    for x, y in combinations(range(n * n * b), 2):
        (r, c), (s, d) = cell(x), cell(y)
        if abs(r - s) + abs(c - d) <= 1:
            base.append((x, y))
        if abs(r - s) <= 1:
            g1.append((x, y))
        if c == d or (r == s and abs(c - d) == 1):
            g2.append((x, y))
    return tuple(Graph.from_edges(n * n * b, edges) for edges in (base, g1, g2))


def apex_grid_factors(k: int, sizes, apex_edges):
    """The two factors of `_apex_grid_factors` with these apex edges and
    factor 2's cover, by its docstring, one vertex pair at a time.

    Vertices are part 0's cells row-major, then apexes 1..k, then each later
    part's cells.  Factor 1: two cells of one part adjacent iff their rows
    differ by at most one, every apex adjacent to every other vertex.
    Factor 2: two cells of one part adjacent iff they share a column or are
    neighbours in a row, every apex adjacent to every cell, two apexes iff
    they form one of `apex_edges`.  The cover (as vertex lists) is every
    part's columns in one line, part by part.  The apexes 1..k are split into
    classes: each class takes, in ascending order, every apex left that is
    joined to all it has taken.  Class j joins the column at the j-th of the
    positions ordered by distance from the middle column (N - 1) // 2, the
    one after it before the one before it; classes beyond the N columns are
    blocks of their own right after the middle column."""
    cells = [(i, r, c) for i, n in enumerate(sizes)
             for r in range(1, n + 1) for c in range(1, n + 1)]
    head = sizes[0] ** 2
    where = cells[:head] + [("apex", j) for j in range(1, k + 1)] + cells[head:]
    labels = [Apex(0, x[1]) if x[0] == "apex" else GridCell(*x) for x in where]
    joined = {frozenset(e) for e in apex_edges}
    g1, g2 = [], []
    for x, y in combinations(range(len(where)), 2):
        a, b = where[x], where[y]
        if a[0] == "apex" or b[0] == "apex":
            g1.append((x, y))
            if a[0] != b[0] or frozenset((a[1], b[1])) in joined:
                g2.append((x, y))
        elif a[0] == b[0]:
            (_, r, c), (_, s, d) = a, b
            if abs(r - s) <= 1:
                g1.append((x, y))
            if c == d or (r == s and abs(c - d) == 1):
                g2.append((x, y))
    cover = [[x for x, w in enumerate(where) if w[0] == i and w[2] == c]
             for i, n in enumerate(sizes) for c in range(1, n + 1)]
    classes, left = [], list(range(1, k + 1))
    while left:
        taken = []
        for a in left:
            if all(frozenset((a, b)) in joined for b in taken):
                taken.append(a)
        classes.append([where.index(("apex", a)) for a in taken])
        left = [a for a in left if a not in taken]
    mid = (len(cover) - 1) // 2
    positions = sorted(range(len(cover)), key=lambda p: (abs(p - mid), p < mid))
    for p, members in zip(positions, classes):
        cover[p] = sorted(cover[p] + members)
    cover[mid + 1 : mid + 1] = classes[len(cover):]
    n = len(where)
    return Graph.from_edges(n, g1, labels), Graph.from_edges(n, g2, labels), cover


def complete_apex_edges(k: int) -> set[tuple[int, int]]:
    """Every pair (a, b), a < b, of apexes 1..k."""
    return {(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)}


def relabeled(g: Graph, part: int) -> Graph:
    """g with every label moved to `part`, as a clique sum's later parts
    need distinct labels."""
    return Graph.from_edges(g.n, g.edges(), [lbl._replace(part=part) for lbl in g.labels])


def verify_clique_tree(g: Graph, tree) -> bool:
    """The clique-tree invariants of `tree` (its `bags` and `tree_edges`),
    re-derived from g one vertex pair at a time: the bags cover V(g), each
    is a maximal clique, each edge lies in a bag, and the bags holding any
    one vertex induce a subtree (running intersection)."""
    bags = [set(b) for b in tree.bags]
    if set().union(*bags) != set(range(g.n)):
        return False
    for b in bags:
        if not all(g.has_edge(u, v) for u, v in combinations(b, 2)):
            return False
        if any(all(g.has_edge(u, v) for u in b) for v in range(g.n) if v not in b):
            return False
    if not all(any(u in b and v in b for b in bags) for u, v in g.edges()):
        return False
    near = {i: set() for i in range(len(bags))}
    for i, j in tree.tree_edges:
        near[i].add(j)
        near[j].add(i)
    for v in range(g.n):
        holding = {i for i, b in enumerate(bags) if v in b}
        start = min(holding)
        seen, stack = {start}, [start]
        while stack:
            for j in near[stack.pop()] & holding - seen:
                seen.add(j)
                stack.append(j)
        if seen != holding:
            return False
    return True


def brute_intersection_witness(factors, base: Graph):
    """None if the factors' edge intersection is the base, else (u, v, where)
    for the first pair u < v on which they differ: `where` is the 1-based
    index of the first factor without the edge, or "base"."""
    for u, v in combinations(range(base.n), 2):
        lacking = [i for i, g in enumerate(factors, 1) if not g.has_edge(u, v)]
        if bool(lacking) == base.has_edge(u, v):
            return u, v, lacking[0] if lacking else "base"
    return None


def pairwise_verify_hole(g: Graph, hole) -> bool:
    """The hole test by its definition, one vertex pair at a time: at least
    four distinct vertices, and two of them adjacent iff they are consecutive
    on the cycle."""
    k = len(hole)
    if k < 4 or len(set(hole)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(hole[i], hole[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


def unpruned_ccw_exact(g: Graph, budget: int = 500_000):
    """The clique-partition search of `ccw_exact` without its quotient-degree
    pruning: every clique partition is a leaf, and each leaf rebuilds its
    block quotient from scratch.  It shares the greedy incumbent and the
    library `_layout` (deadline rule included), so it pins only the partition
    pruning; `unpruned_layout` pins the layout search."""
    n = g.n
    if n == 0:
        return SearchResult(0, True), OrderedCliqueCover(())
    inc_w, inc_cover = ccw_upper_greedy(g)
    adj = [g.adj_mask(v) for v in range(n)]
    nodes = 0
    exhausted = False
    blocks = []
    reach = []  # reach[i]: union of block i's neighbourhoods

    def leaf():
        nonlocal inc_w, inc_cover
        quotient = [
            sum(1 << j for j, b in enumerate(blocks) if j != i and r & b)
            for i, r in enumerate(reach)
        ]
        width, order, _ = _layout(quotient, inc_w)
        if order is not None:
            inc_w = width
            inc_cover = OrderedCliqueCover(tuple(
                frozenset(u for u in range(n) if blocks[i] >> u & 1) for i in order
            ))

    def rec(v):
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
        for i, b in enumerate(blocks):
            if b & ~adj[v] == 0:
                r = reach[i]
                blocks[i], reach[i] = b | 1 << v, r | adj[v]
                rec(v + 1)
                blocks[i], reach[i] = b, r
        blocks.append(1 << v)
        reach.append(adj[v])
        rec(v + 1)
        blocks.pop()
        reach.pop()

    rec(0)
    return SearchResult(inc_w, not exhausted), inc_cover


def unpruned_layout(
    adj: list[int], cutoff: int, budget: float = math.inf
) -> tuple[int, list[int] | None, bool]:
    """`ccwkit.cliquecover._layout` as it was before the deadline rule: the
    same depth-first layout search with only its placement test, its
    open-neighbour rule, its unwinding and its degree floor.  The library's
    search must return what this one returns, and at any budget get at least
    as far, so this pins the deadline rule and nothing else."""
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


def reference_layout(
    adj: list[int], cutoff: int, budget: float = math.inf
) -> tuple[int, list[int] | None, bool]:
    """`ccwkit.cliquecover._layout` as it was with its placement test
    (`far`), frozen as the node-for-node reference of the library search.

    The lexicographically first minimum-width ordering of the graph with
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
        b = 0  # the best that `far`, the deadlines and `need` were computed for
        while cand:
            if b != best:
                b = best
                far = prefix[max(i + 1 - b, 0)]
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


def reference_ccw_exact(g: Graph, budget: int = 500_000) -> tuple[SearchResult, OrderedCliqueCover]:
    """`ccwkit.cliquecover.ccw_exact` as it was with two child paths and
    `too_wide`, on `reference_layout`: the node-for-node reference of the
    library search.

    Minimum width over all ordered clique covers, with an optimal cover.

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
    has width >= 1.  Measured on a 2-vCPU Xeon VM: median 0.2 / 0.3 / 4 ms
    (max 1 / 8 / 61 ms) on 30 G(n, 1/2) graphs each at n = 8 / 10 / 12;
    0.2 ms to prove ccw(grid(4)) = 2; on grid(5), 0.03 to 0.04 s at budget
    1 000 (inexact) and 4.7 s to prove ccw = 3 at the default budget.
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
        width, order, _ = reference_layout(quot, inc_w)
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


def reference_id_runs(ids, room=math.inf) -> list:
    """An id list as envelopes write it, one id at a time: at each id, the
    step is the next id minus it; while the id after the last one taken is
    the last one plus that step, it is taken too.  At least 3 ids taken, a
    step other than 0, and no more ids than the `room` left make one run
    [first, last + step, step], and the room shrinks by the ids taken;
    otherwise the id is written alone and the walk goes on from the next
    one."""
    return _reference_runs(ids, [room])


def reference_id_lists(lists, n) -> list:
    """Id lists whose runs share one room of 2n ids, each written as
    `reference_id_runs` in the room the lists before it leave."""
    room = [2 * n]
    return [_reference_runs(ids, room) for ids in lists]


def _reference_runs(ids, room) -> list:
    """`reference_id_runs` with the room in the one-element list `room`,
    which it shrinks."""
    ids, out, i = list(ids), [], 0
    while i < len(ids):
        j = i + 1
        if j < len(ids) and ids[j] != ids[i]:
            step = ids[j] - ids[i]
            while j + 1 < len(ids) and ids[j + 1] - ids[j] == step:
                j += 1
            if 3 <= j - i + 1 <= room[0]:
                out.append([ids[i], ids[j] + step, step])
                room[0] -= j - i + 1
                i = j + 1
                continue
        out.append(ids[i])
        i += 1
    return out


def reference_is_clique(g: Graph, c) -> bool:
    """Whether the ids of c are all in [0, n) and pairwise adjacent in g,
    pair by pair."""
    members = sorted(set(c))
    in_range = all(0 <= v < g.n for v in members)
    return in_range and all(g.has_edge(*e) for e in combinations(members, 2))


def reference_graph_json(g: Graph, candidates, base: Graph | None = None, cover=False) -> dict:
    """g written as candidate cliques plus leftover edges, the form of an
    envelope's factors, each candidate checked pair by pair: written,
    members ascending and as `reference_id_runs`, iff it has at least two
    members, all in [0, n) and pairwise adjacent.  With a `base` of g's n
    whose every edge, checked one by one, is an edge of g, the base's edges
    count as covered, and `includes_base` is true if the cliques leave one
    of them uncovered; `edges` holds the edges nothing covers, and `labels`
    follows as `Graph.to_json` writes it.  With `cover`, the candidates are
    the blocks of g's cover, and `includes_cover` is true in place of the
    `cliques` list."""
    kept, covered = [], set()
    for c in candidates:
        members = sorted(set(c))
        if len(members) >= 2 and reference_is_clique(g, members):
            kept.append(reference_id_runs(members))
            covered.update(combinations(members, 2))
    inner = base is not None and base.n == g.n and all(g.has_edge(*e) for e in base.edges())
    inner = inner and not covered.issuperset(base.edges())
    if inner:
        covered.update(base.edges())
    obj = {"n": g.n, "edges": [[u, v] for u, v in g.edges() if (u, v) not in covered]}
    if inner:
        obj["includes_base"] = True
    if kept and cover:
        obj["includes_cover"] = True
    elif kept:
        obj["cliques"] = kept
    obj["labels"] = labels_to_json(g.labels)
    return obj


def reference_verifies(f) -> bool:
    """Whether f passes every check of `verify_factorization`, each taken
    from its definition, pair by pair: every factor has the base's n and
    labels, the factors' edges meet in exactly the base's, the certificate
    is a permutation of factor 1's vertices with no `brute_peo_witness`,
    there is one cover and one width per factor >= 2, the blocks of each
    cover hold every vertex of its factor once and are cliques of it, with
    the width `brute_cover_width` finds, and lstar is the largest width (0
    with none)."""
    base, factors, peo = f.base, f.factors, f.chordal_cert.peo
    if any(g.n != base.n or g.labels != base.labels for g in factors):
        return False
    if brute_intersection_witness(factors, base) is not None:
        return False
    if peo is None or sorted(peo) != list(range(base.n)) or brute_peo_witness(factors[0], peo):
        return False
    if not len(f.covers) == len(f.widths) == len(factors) - 1:
        return False
    for g, cover, width in zip(factors[1:], f.covers, f.widths):
        if sorted(v for b in cover.cliques for v in b) != list(range(g.n)):
            return False
        if not all(reference_is_clique(g, b) for b in cover.cliques):
            return False
        if brute_cover_width(g, cover.cliques)[0] != width:
            return False
    return f.lstar == max(f.widths, default=0)


def reference_envelope(f) -> dict:
    """`Factorization.to_json` with every candidate clique and the base's
    every edge checked (`reference_graph_json`) and none trusted.  When f
    verifies (`reference_verifies`), factor 1's candidates are the bags of
    its clique forest from the certificate's PEO, and factor i >= 2's are
    its cover's blocks as they are, written as `includes_cover`; when it
    does not, every factor is written with no candidate, as its edges over
    the base.  A factor whose labels equal the base's is written without
    them.  The certificate's list, in a room of its own, and the blocks of
    each cover, members ascending, in one room, are written as
    `reference_id_lists`."""
    base, g1 = f.base, f.factors[0]
    candidates = [[]] * len(f.factors)
    if reference_verifies(f):
        bags = [list(bits(m)) for m in _clique_forest(g1, f.chordal_cert.peo)[0]]
        candidates = [bags] + [c.cliques for c in f.covers]
    factors = []
    for i, (g, blocks) in enumerate(zip(f.factors, candidates)):
        obj = reference_graph_json(g, blocks, base, i > 0)
        if g.labels == base.labels:
            del obj["labels"]
        factors.append(obj)
    return {
        "base": reference_graph_json(base, []),
        "factors": factors,
        "chordal_cert": {
            k: reference_id_lists([ids], base.n)[0] for k, ids in f.chordal_cert.to_json().items()
        },
        "covers": [reference_id_lists(map(sorted, c.cliques), base.n) for c in f.covers],
        "widths": list(f.widths),
        "lstar": f.lstar,
    }


def reference_grid_clique(f) -> int:
    """The grid clique `audit_lower_bound` audits, derived as it first was:
    the certificate's PEO restricted to the grid cells, eliminated on its
    own in factor 1, then the first largest C(v), v and its later
    neighbours, in that order."""
    grid_peo = [v for v in f.chordal_cert.peo if isinstance(f.base.labels[v], GridCell)]
    succ = _elimination(f.factors[0], grid_peo)[0]
    return max((succ[v] | 1 << v for v in grid_peo), key=int.bit_count)


def reference_from_masks_error(masks):
    """The error `Graph.from_masks(masks)` raises, as (type, message), or
    None: the first vertex whose mask holds its own bit or a bit at or above
    n, a self-loop named before an overrun at one vertex."""
    n = len(masks)
    for v, m in enumerate(masks):
        if m & (1 << v):
            return InvalidGraph, f"self-loop at vertex {v}"
        if m >> n:
            return VertexOutOfRange, f"adjacency of {v} exceeds n={n}"
    return None


def reference_measure_error(weights):
    """The error `Measure.from_list(weights)` raises for its first entry
    that is not an int or a float, booleans included, or None."""
    for i, w in enumerate(weights):
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            return InvalidMeasure, f"measure weights must be numbers: entry {i} is {w!r}"
    return None
