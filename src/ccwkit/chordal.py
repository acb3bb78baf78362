"""Chordality testing with certificates, maximal cliques, clique trees and
balanced clique separators for chordal graphs."""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, xor
from typing import Sequence

from .errors import InvalidPEO, NotChordal
from .graph import Graph, _bfs_layers, bits
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
    adj = g._adj  # every v taken from a cell is a vertex, so no range check
    while cells:
        low = cells[0] & -cells[0]
        v = low.bit_length() - 1
        order.append(v)
        cells[0] ^= low
        nb = adj[v]
        refined: list[int] = []
        for cell in cells:
            hit = cell & nb
            if hit:
                refined.append(hit)
            if hit != cell:
                refined.append(cell ^ hit)
        cells = refined
    return order


# per vertex: the mask of its later neighbours, and its parent (`_elimination`)
_Elimination = tuple[list[int], list[int]]


def _elimination(g: Graph, order: Sequence[int]) -> _Elimination:
    """For each vertex v of `order`: the mask of its neighbours after it in
    `order`, and its parent, the earliest of them (-1 when there is none).

    `order` may list only some of the vertices; the result is then that of
    the subgraph they induce, in g's indices.  They are not range-checked:
    every caller passes a checked permutation of V(g), or part of one.
    Parents come from one forward sweep: `pending` holds the vertices still
    without a parent, and each w adopts those of them it is adjacent to,
    peeled bit by bit inline rather than by a `bits` generator per vertex.
    That is O(V) big-int operations plus one step per assigned parent,
    whatever E is.  On the apex-grid factor 1 (k=2, n=20/40/60,
    V=402/1602/3602) it measured 0.14/0.68/2.3 ms on a 2-vCPU Xeon VM,
    ~V^1.1-1.5 as the masks widen, and 0.90 ms on a 62-part clique sum of
    apex grids (V=2 037), against 0.18/0.85/2.7 and 1.12 ms with the
    generator (interleaved medians of 300); the per-edge `min` it replaced
    took 4.8/48/152 ms.
    """
    adj, succ, parent = g._adj, [0] * g.n, [-1] * g.n
    later = 0
    for v in reversed(order):
        succ[v] = adj[v] & later
        later |= 1 << v
    pending = 0
    for w in order:
        hit = pending & adj[w]
        pending = pending ^ hit | 1 << w
        while hit:  # `bits(hit)` inline: no generator per vertex
            low = hit & -hit
            parent[low.bit_length() - 1] = w
            hit ^= low
    return succ, parent


def verify_peo(g: Graph, order: Sequence[int]) -> tuple[int, int, int] | None:
    """Check that `order` is a perfect elimination ordering.

    Returns None on success, else a witness (v, p, w): the first v in
    `order` whose earliest later neighbour p misses a later neighbour, and w
    the smallest such.  Cost: a sort for the permutation check,
    `_elimination`, then one C-level pass that tests every vertex's later
    neighbours against its parent's, so O(V^2/64) machine words; `order` is
    walked in Python only to name the witness of a failure.  On the
    apex-grid factor 1 (k=2, n=20/40/60) it measured 0.26/1.25/3.6 ms on a
    2-vCPU Xeon VM, against 0.27/1.39/4.4 ms with a Python test per vertex
    and 5.1/51/217 ms with the per-edge parent search.
    """
    return _peo_check(g, order)[0]


def _peo_check(g: Graph, order: Sequence[int]) -> tuple[tuple[int, int, int] | None, _Elimination]:
    """`verify_peo(g, order)` and the `_elimination` it ran, so a caller
    that builds on a passing PEO (a clique forest, the audit's grid clique)
    eliminates once."""
    if sorted(order) != list(range(g.n)):
        raise InvalidPEO("ordering is not a permutation of V(g)")
    succ, parent = elimination = _elimination(g, order)
    # v passes iff p, its parent, is the only one of its later neighbours
    # not adjacent to p: one C-level pass over all v, no list built (a root
    # has no later neighbour, so passes whatever adj[-1] is); only a failure
    # walks `order` to name the first v
    off = map(xor, succ, map(and_, succ, map(g._adj.__getitem__, parent)))
    if max(map(int.bit_count, off), default=0) <= 1:
        return None, elimination
    for v in order:
        p = parent[v]
        if p >= 0 and (missing := succ[v] & ~g._adj[p] & ~(1 << p)):
            return (v, p, next(bits(missing))), elimination
    return None, elimination


def verify_hole(g: Graph, hole: Sequence[int]) -> bool:
    """A hole is a chordless cycle of length >= 4: k >= 4 distinct vertices,
    each adjacent within them to exactly its two cycle neighbours.  The hole
    enters as a mask through `Graph._check_subset`, which raises
    `VertexOutOfRange` ("vertex set not contained in V(g)") for an id
    outside [0, n), negative or huge ones included, before any is shifted.
    One mask test per vertex: 3.7 us / 64 us / 0.42 ms for a 5-, 100- and
    1 000-cycle on a 2-vCPU Xeon VM, where testing every pair with
    `has_edge` took 6.0 us / 1.1 ms / 116 ms.
    """
    k, m, adj = len(hole), g._check_subset(hole), g._adj
    if k < 4 or m.bit_count() != k:
        return False
    return all(
        adj[u] & m == 1 << hole[i - 1] | 1 << hole[(i + 1) % k] for i, u in enumerate(hole)
    )


def _peo_failure(g: Graph, cert: ChordalCertificate) -> tuple[str | None, _Elimination | None]:
    """Why `cert` does not show g chordal by a PEO, or None if it does, and
    the `_elimination` of its PEO (None if it has no PEO of V(g))."""
    if cert.peo is None:
        return "a hole certificate, not a PEO", None
    try:
        witness, elimination = _peo_check(g, cert.peo)
    except InvalidPEO as exc:
        return str(exc), None
    if witness is None:
        return None, elimination
    v, p, w = witness
    failure = f"PEO fails at vertex {v}: its later neighbours {p} and {w} are not adjacent"
    return failure, elimination


def is_chordal(g: Graph) -> tuple[bool, ChordalCertificate]:
    """Certifying recognition: a verified PEO, or a verified chordless cycle.

    The reversed Lex-BFS order is a PEO iff g is chordal.  When it is not,
    `verify_peo` returns (v, p, w), p and w later neighbours of v that are
    not adjacent, and by the Lex-BFS path property (Rose, Tarjan & Lueker
    1976) some p-w path avoids N[v] minus {p, w}.  A shortest one is
    chordless, so v closes it into a hole: one BFS, no search.  On K_m with
    a 5-cycle hung off one vertex (V = 104/204/404) this takes 0.13/0.25/0.8
    ms on a 2-vCPU Xeon VM, where trying every vertex and pair of its
    neighbours took 0.10/1.1/10.8 s.
    """
    peo = lex_bfs(g)[::-1]
    witness = verify_peo(g, peo)
    if witness is None:
        return True, ChordalCertificate(peo=tuple(peo))
    v, p, w = witness
    allowed = g.vertex_mask() & ~g.adj_mask(v) & ~(1 << v) | 1 << p | 1 << w
    layers = []
    for layer in _bfs_layers(g, 1 << p, allowed):
        layers.append(layer)
        if layer >> w & 1:
            break
    assert layers[-1] >> w & 1, "the Lex-BFS path property failed"
    path = [w]  # back from w through one neighbour in each earlier layer
    for layer in reversed(layers[:-1]):
        back = layer & g.adj_mask(path[-1])
        path.append((back & -back).bit_length() - 1)
    hole = (v, *reversed(path))
    assert verify_hole(g, hole)
    return False, ChordalCertificate(hole=hole)


def maximal_cliques_chordal(g: Graph, peo: Sequence[int]) -> list[frozenset[int]]:
    """Maximal cliques of a chordal graph from a PEO (at most |V| of them),
    in PEO order: the bags of `_clique_forest`, each C() of its earliest
    vertex in `peo`, so first sightings of home[v] give that order."""
    bags, _, home = _checked_forest(g, peo)
    return [frozenset(bits(bags[i])) for i in dict.fromkeys(home[v] for v in peo)]


def _checked_forest(g: Graph, peo: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """`_clique_forest(g, peo)` after `peo` passes the PEO check, on the one
    elimination both need; `InvalidPEO` if it fails."""
    witness, elimination = _peo_check(g, peo)
    if witness is not None:
        raise InvalidPEO("not a perfect elimination ordering")
    return _clique_forest(g, peo, elimination)


def _clique_forest(
    g: Graph, peo: Sequence[int], elimination: _Elimination | None = None
) -> tuple[list[int], list[int], list[int]]:
    """Clique forest of g from an already verified PEO: bag masks, `up[i]`
    the parent of bag i (-1 at a root), and `home[v]` the bag nearest the
    root that holds v (-1 for a vertex not in `peo`).  `elimination` is
    `_elimination(g, peo)` if the caller has it already.

    Built top-down from the PEO parents (Blair & Peyton 1993): walking `peo`
    backwards, with C(v) = {v} + later neighbours of v and p v's parent, v
    joins p's bag while that bag is still C(p) and C(v) = C(p) + v;
    otherwise C(v) opens a child of p's bag.  A child is numbered after its
    parent.  `peo` may also be a PEO of an induced subgraph, listing only its
    vertices: the forest is then that subgraph's, in g's indices.
    """
    succ, parent = elimination or _elimination(g, peo)
    bags: list[int] = []
    up: list[int] = []
    front: dict[int, int] = {}  # the vertex that last joined or opened each bag
    home = [-1] * g.n
    for v in reversed(peo):
        p = parent[v]
        i = home[p] if p >= 0 else -1
        if i < 0 or front[i] != p or succ[v].bit_count() != succ[p].bit_count() + 1:
            up.append(i)  # C(v) opens a child of p's bag
            i = len(bags)
            bags.append(succ[v])
        bags[i] |= 1 << v
        front[i] = v
        home[v] = i
    return bags, up, home


def clique_tree(g: Graph, peo: Sequence[int]) -> CliqueTree:
    """Clique tree (forest for disconnected graphs) from the PEO parents:
    the bags of `_clique_forest`, each parent numbered before its children,
    and one (parent, child) edge per non-root bag.  O(V) big-int operations
    after the PEO check, which shares its `_elimination`: the forest of the
    apex-grid factor 1 (k=2, n=20/40/60, 19/39/59 bags) took 0.4/3.3/11 ms
    on a 2-vCPU Xeon VM."""
    bags, up, _ = _checked_forest(g, peo)
    return CliqueTree(
        tuple(frozenset(bits(m)) for m in bags),
        tuple((u, i) for i, u in enumerate(up) if u >= 0),
    )


def balanced_clique_separator(g: Graph, mu: Measure) -> set[int]:
    """A clique-tree bag whose removal leaves components of measure
    <= mu(g)/2: the weighted centroid of `_balanced_bag`, after a Lex-BFS
    chordality test.  The empty graph gives the empty set."""
    chordal, cert = is_chordal(g)
    if not chordal:
        raise NotChordal(
            f"balanced_clique_separator requires a chordal graph; hole {list(cert.hole)}"
        )
    return _balanced_bag(g, cert.peo, mu)


def _balanced_bag(
    g: Graph, peo: Sequence[int], mu: Measure, elimination: _Elimination | None = None
) -> set[int]:
    """The weighted centroid of the clique forest from an already verified
    PEO of g (Gilbert, Rose & Edenbrandt 1984): every component of g minus
    the returned bag weighs <= mu(g)/2.  `elimination` is that of
    `_clique_forest`.

    sub[i] is the weight homed in bag i's subtree.  Start at the root of
    the heaviest tree and step into the heaviest child c while c's subtree
    weighs at least what would be left above c, total - sub[c] -
    mu(bag(c) & bag(cur)).  Below the final bag every child then weighs
    less than mu(g)/2; what is left above it, other trees included, weighs
    no more than the subtree last stepped into, or than the heaviest tree.
    One pass over the bags after `_clique_forest`: 0.8/3.5/12 ms on the
    apex-grid factor 1 (k=2, n=20/40/60) and 4.3 ms on a 62-part clique sum
    of apex grids (V=2 034, 277 bags) on a 2-vCPU Xeon VM, against
    4.8/39/158 ms and 27 ms for the spanning-tree walk it replaced.
    """
    bags, up, home = _clique_forest(g, peo, elimination)
    total = mu.total(g.n)
    sub = [0.0] * len(bags)
    for v in peo:
        sub[home[v]] += mu.weights[v]
    heavy = [-1] * len(bags)  # the first heaviest child of each bag
    for i in reversed(range(len(bags))):  # children are numbered after parents
        if (u := up[i]) >= 0:
            sub[u] += sub[i]
            if heavy[u] < 0 or sub[i] >= sub[heavy[u]]:
                heavy[u] = i
    if not bags:
        return set()
    cur = max((i for i, u in enumerate(up) if u < 0), key=sub.__getitem__)
    while (c := heavy[cur]) >= 0 and 2 * sub[c] >= total - mu.of(bits(bags[c] & bags[cur])):
        cur = c
    return set(bits(bags[cur]))
