"""Brute-force oracles, independent of the library's algorithms.

These are written against the definitions only (enumerate everything) and are
deliberately kept free of any code path they are used to check.
"""

import math
from itertools import combinations, permutations

from ccwkit.cliquecover import OrderedCliqueCover, SearchResult, _layout, ccw_upper_greedy
from ccwkit.graph import Graph, bits


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
