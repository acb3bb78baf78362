"""Chordality testing with certificates, maximal cliques, clique trees and
balanced clique separators for chordal graphs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidPEO, NotChordal
from .graph import Graph, bits, connected_components, is_clique, mask_of
from .measure import Measure


@dataclass(frozen=True)
class ChordalCertificate:
    """Either a perfect elimination ordering or a chordless cycle of length >= 4."""

    peo: tuple[int, ...] | None = None
    hole: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        if self.peo is not None:
            return {"peo": list(self.peo)}
        return {"hole": list(self.hole)}

    @classmethod
    def from_json(cls, obj: dict) -> "ChordalCertificate":
        if "peo" in obj:
            return cls(peo=tuple(obj["peo"]))
        return cls(hole=tuple(obj["hole"]))


@dataclass(frozen=True)
class CliqueTree:
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]


def lex_bfs(g: Graph) -> list[int]:
    """Lexicographic BFS order; ties broken by smallest vertex index.

    Partition refinement with each cell a bitmask: take the lowest bit of the
    first cell, then split every cell into its neighbours of that vertex
    (first) and the rest.  Each step visits every cell, so it is quadratic
    when cells multiply: (V+E)^2.2 measured on sparse G(n, 4/n).  On the
    dense apex-grid factor 1 (k=2, n=20..60) cells stay few: (V+E)^0.8.
    """
    cells = [g.vertex_mask()] if g.n else []
    order: list[int] = []
    while cells:
        low = cells[0] & -cells[0]
        v = low.bit_length() - 1
        order.append(v)
        cells[0] ^= low
        nb = g.adj_mask(v)
        refined: list[int] = []
        for cell in cells:
            hit = cell & nb
            if hit:
                refined.append(hit)
            if hit != cell:
                refined.append(cell ^ hit)
        cells = refined
    return order


def _elimination(g: Graph, order: Sequence[int]) -> tuple[list[int], list[int]]:
    """For each vertex v of `order`: the mask of its neighbours after it in
    `order`, and its parent, the earliest of them (-1 when there is none).

    `order` may list only some of the vertices; the result is then that of
    the subgraph they induce, in g's indices.  Parents come from one forward
    sweep: `pending` holds the vertices still without a parent, and each w
    adopts those of them it is adjacent to.  That is O(V) big-int operations
    plus one step per assigned parent, whatever E is.  On the apex-grid
    factor 1 (k=2, n=20/40/60, V=402/1602/3602) it measured 0.3/1.3/4.0 ms
    on a 2-vCPU Xeon VM, ~V^1.2 as the masks widen; the per-edge `min` it
    replaced took 4.8/48/152 ms.
    """
    succ = [0] * g.n
    parent = [-1] * g.n
    later = 0
    for v in reversed(order):
        succ[v] = g.adj_mask(v) & later
        later |= 1 << v
    pending = 0
    for w in order:
        hit = pending & g.adj_mask(w)
        for u in bits(hit):
            parent[u] = w
        pending = pending ^ hit | 1 << w
    return succ, parent


def verify_peo(g: Graph, order: Sequence[int]) -> tuple[int, int, int] | None:
    """Check that `order` is a perfect elimination ordering.

    Returns None on success, else a witness (v, p, w): the first v in
    `order` whose earliest later neighbour p misses a later neighbour, and w
    the smallest such.  Cost: a sort for the permutation check,
    `_elimination`, then one test on V-bit masks per vertex, so O(V^2/64)
    machine words.  On the apex-grid factor 1 (k=2, n=20/40/60) it measured
    0.4/2.0/9.7 ms on a 2-vCPU Xeon VM, against 5.1/51/217 ms with the
    per-edge parent search.
    """
    if sorted(order) != list(range(g.n)):
        raise InvalidPEO("ordering is not a permutation of V(g)")
    succ, parent = _elimination(g, order)
    for v in order:
        p = parent[v]
        if p >= 0 and (missing := succ[v] & ~g.adj_mask(p) & ~(1 << p)):
            return v, p, next(bits(missing))
    return None


def _find_hole(g: Graph) -> tuple[int, ...]:
    """Extract some chordless cycle of length >= 4 from a non-chordal graph.

    For each vertex v with non-adjacent neighbors p, w, a shortest p-w path
    avoiding N[v] \\ {p, w} closes into a chordless cycle through v.
    """
    for v in range(g.n):
        nbrs = list(g.neighbors(v))
        for i, p in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if g.has_edge(p, w):
                    continue
                forbidden = (g.adj_mask(v) | 1 << v) & ~(1 << p) & ~(1 << w)
                path = _shortest_path(g, p, w, avoid=forbidden)
                if path is not None:
                    return (v, *path)
    raise NotChordal("no hole found; graph is chordal")


def _shortest_path(g: Graph, s: int, t: int, avoid: int) -> list[int] | None:
    if (avoid >> s & 1) or (avoid >> t & 1):
        return None
    prev: dict[int, int] = {s: -1}
    seen = (1 << s) | avoid
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for x in bits(g.adj_mask(u) & ~seen):
                prev[x] = u
                if x == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(prev[path[-1]])
                    return path[::-1]
                seen |= 1 << x
                nxt.append(x)
        frontier = nxt
    return None


def verify_hole(g: Graph, hole: Sequence[int]) -> bool:
    """A hole is a chordless cycle of length >= 4."""
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


def verify_certificate(g: Graph, cert: ChordalCertificate) -> bool:
    """Re-check a certificate from the graph alone: PEO => chordal, hole => not."""
    if cert.peo is not None:
        try:
            return verify_peo(g, cert.peo) is None
        except InvalidPEO:
            return False
    if cert.hole is not None:
        return verify_hole(g, cert.hole)
    return False


def is_chordal(g: Graph) -> tuple[bool, ChordalCertificate]:
    """Certifying recognition: a verified PEO, or a verified chordless cycle."""
    peo = lex_bfs(g)[::-1]
    if verify_peo(g, peo) is None:
        return True, ChordalCertificate(peo=tuple(peo))
    hole = _find_hole(g)
    assert verify_hole(g, hole)
    return False, ChordalCertificate(hole=hole)


def maximal_cliques_chordal(g: Graph, peo: Sequence[int]) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph from a PEO (at most |V| of them)."""
    if verify_peo(g, peo) is not None:
        raise InvalidPEO("not a perfect elimination ordering")
    return _peo_cliques(g, peo)


def _peo_cliques(g: Graph, peo: Sequence[int]) -> list[frozenset[int]]:
    """Maximal cliques from an already verified PEO, in PEO order.

    C(v) = {v} + later neighbours of v is not maximal iff some u with
    parent(u) = v has one more later neighbour than v (Blair & Peyton 1993).
    `peo` may also be a PEO of an induced subgraph, listing only its
    vertices: the cliques are then that subgraph's, in g's indices.
    Measured (V+E)^1.0 on the apex-grid factor 1 (k=2, n=20..60).
    """
    succ, parent = _elimination(g, peo)
    size = [m.bit_count() for m in succ]
    dropped = {parent[u] for u in peo if parent[u] >= 0 and size[u] == size[parent[u]] + 1}
    return [frozenset(bits(succ[v] | 1 << v)) for v in peo if v not in dropped]


def clique_tree(g: Graph, peo: Sequence[int]) -> CliqueTree:
    """Clique tree (forest for disconnected graphs) via maximum-weight spanning
    tree of the clique intersection graph."""
    return _spanning_tree(maximal_cliques_chordal(g, peo))


def _spanning_tree(bags: list[frozenset[int]]) -> CliqueTree:
    masks = [mask_of(b) for b in bags]
    pairs = []
    for i in range(len(bags)):
        for j in range(i + 1, len(bags)):
            w = (masks[i] & masks[j]).bit_count()
            if w:
                pairs.append((w, i, j))
    pairs.sort(key=lambda t: -t[0])
    parent = list(range(len(bags)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for _, i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    return CliqueTree(tuple(bags), tuple(edges))


def verify_clique_tree(g: Graph, tree: CliqueTree) -> bool:
    """All three clique-tree invariants, re-derived from the graph."""
    masks = [mask_of(b) for b in tree.bags]
    all_mask = 0
    for m in masks:
        all_mask |= m
    if all_mask != g.vertex_mask():
        return False
    for b in tree.bags:
        if not is_clique(g, b):
            return False
        # maximality: no vertex adjacent to the whole bag
        bm = mask_of(b)
        common = g.vertex_mask() & ~bm
        for v in b:
            common &= g.adj_mask(v)
        if common:
            return False
    for u, v in g.edges():
        if not any((m >> u & 1) and (m >> v & 1) for m in masks):
            return False
    # running intersection: bags containing any vertex induce a subtree
    adj: dict[int, set[int]] = {i: set() for i in range(len(tree.bags))}
    for i, j in tree.tree_edges:
        adj[i].add(j)
        adj[j].add(i)
    for v in range(g.n):
        holding = [i for i, m in enumerate(masks) if m >> v & 1]
        if not holding:
            return False
        seen = {holding[0]}
        stack = [holding[0]]
        hold_set = set(holding)
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j in hold_set and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != hold_set:
            return False
    return True


def balanced_clique_separator(g: Graph, mu: Measure, balance: float = 2 / 3) -> set[int]:
    """A clique-tree bag whose removal leaves components of measure <= balance * mu(g)."""
    if balance < 2 / 3:
        raise ValueError("balance must be >= 2/3")
    chordal, cert = is_chordal(g)
    if not chordal:
        raise NotChordal("balanced_clique_separator requires a chordal graph")
    return _balanced_bag(g, cert.peo, mu, balance)


def _balanced_bag(g: Graph, peo: Sequence[int], mu: Measure, balance: float) -> set[int]:
    """The separator bag from an already verified PEO of g: walk the clique
    tree toward the heaviest component while that strictly improves, then
    assert the balance bound."""
    tree = _spanning_tree(_peo_cliques(g, peo))
    bags = tree.bags
    adj: dict[int, set[int]] = {i: set() for i in range(len(bags))}
    for i, j in tree.tree_edges:
        adj[i].add(j)
        adj[j].add(i)
    total = mu.total(g.n)

    def heaviest(i: int) -> tuple[float, set[int] | None]:
        rest = set(range(g.n)) - bags[i]
        worst, worst_comp = 0.0, None
        for comp in connected_components(g, within=rest):
            w = mu.of(comp)
            if w > worst:
                worst, worst_comp = w, comp
        return worst, worst_comp

    cur = 0
    cur_w, cur_comp = heaviest(cur)
    visited = {cur}
    while cur_comp is not None:
        # neighbor bag reaching into the heaviest component
        step = None
        for j in adj[cur]:
            if j in visited:
                continue
            if bags[j] & cur_comp:
                step = j
                break
        if step is None:
            break
        w, comp = heaviest(step)
        if w >= cur_w:
            break
        cur, cur_w, cur_comp = step, w, comp
        visited.add(cur)

    # walk may stall on ties; fall back to scanning all bags
    if cur_w > balance * total:
        best = min(range(len(bags)), key=lambda i: heaviest(i)[0])
        cur, cur_w = best, heaviest(best)[0]
    if cur_w > balance * total:
        raise AssertionError("no clique-tree bag achieves the balance bound")
    return set(bags[cur])
