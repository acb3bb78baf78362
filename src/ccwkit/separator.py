"""Balanced separators with clique-cover certificates, and the lower-bound
audit pipeline over apex-grid factorizations."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chordal import _balanced_bag
from .cliquecover import OrderedCliqueCover
from .constructions import Factorization, check_factorization
from .errors import InvalidFactorization, NoApex, NoGridCell, NotCliqueInFactorOne
from .graph import Apex, Graph, GridCell, _bfs_layers, _pairs, bits, is_clique, is_independent
from .graph import mask_of
from .measure import Measure


@dataclass(frozen=True)
class SeparatorResult:
    separator: frozenset[int]
    separator_cliques: tuple[frozenset[int], ...]
    side_a: frozenset[int]
    side_b: frozenset[int]
    mu_a: float
    mu_b: float
    lstar: int
    bound_value: float

    def to_json(self) -> dict:
        return {
            "separator": sorted(self.separator),
            "separator_cliques": [sorted(c) for c in self.separator_cliques],
            "side_a": sorted(self.side_a),
            "side_b": sorted(self.side_b),
            "mu_a": self.mu_a,
            "mu_b": self.mu_b,
            "lstar": self.lstar,
            "bound_value": self.bound_value,
        }


@dataclass(frozen=True)
class AuditReport:
    grid_clique_size: int
    indep_size: int
    restricted_cover_sizes: tuple[int, ...]
    product_cells: int

    def to_json(self) -> dict:
        return {
            "grid_clique_size": self.grid_clique_size,
            "indep_size": self.indep_size,
            "restricted_cover_sizes": list(self.restricted_cover_sizes),
            "product_cells": self.product_cells,
        }


def product_cell_cover(
    base: Graph, s: set[int], covers: list[OrderedCliqueCover]
) -> list[frozenset[int]]:
    """Partition a factor-1 clique into base-graph cliques by grouping on the
    tuple of cover block indices: within one block of every remaining factor
    and inside s, a group is a clique in every factor, hence in the base.
    s enters through `Graph._check_subset`, so an id outside V(base) raises
    `VertexOutOfRange`."""
    block_maps = [c.block_of() for c in covers]
    groups: dict[tuple[int, ...], set[int]] = {}
    for v in bits(base._check_subset(s)):
        key = tuple(bm[v] for bm in block_maps)
        groups.setdefault(key, set()).add(v)
    out = []
    for key in sorted(groups):
        cell = groups[key]
        if not is_clique(base, cell):
            raise NotCliqueInFactorOne(
                "product cell is not a base clique; s is not a clique in factor 1"
            )
        out.append(frozenset(cell))
    return out


def separate(f: Factorization, mu: Measure | None = None) -> SeparatorResult:
    """Balanced separator of the base graph from a clique-tree bag of the
    chordal factor, with a clique cover of the separator certified in the base.
    The clique forest is built on the elimination of the envelope's PEO
    that check_factorization has just verified, so factor 1 is eliminated
    once per call.  The components of the base minus the bag (one
    `_bfs_layers` each) and the sides stay masks until the result is built."""
    elimination = check_factorization(f)
    base = f.base
    if mu is None:
        mu = Measure.uniform(base.n)
    total = mu.total(base.n)

    sep = _balanced_bag(f.factors[0], f.chordal_cert.peo, mu, elimination)
    cliques = product_cell_cover(base, sep, list(f.covers))

    comps, rest = [], base.vertex_mask() ^ mask_of(sep)
    while rest:
        # a component lies in what no earlier one took; its layers are disjoint
        comp = sum(_bfs_layers(base, rest & -rest, rest))
        # weighed in the order of a set of its members, the order a float
        # sum has always taken here, so mu_a and mu_b keep their last digit
        comps.append((mu.of(set(bits(comp))), comp))
        rest ^= comp
    # each component is within mu/2 (it refines a factor-1 component);
    # largest-first into the lighter side keeps both sides within 2mu/3
    sides, weights = [0, 0], [0.0, 0.0]
    for w, comp in sorted(comps, key=lambda wc: wc[0], reverse=True):
        i = 0 if weights[0] <= weights[1] else 1
        sides[i] |= comp
        weights[i] += w

    d = len(f.factors)
    lstar = f.lstar
    bound = (2**d) * (max(lstar, 1) ** ((d - 1) / d)) * (total ** ((d - 1) / d))
    result = SeparatorResult(
        separator=frozenset(sep),
        separator_cliques=tuple(cliques),
        side_a=frozenset(bits(sides[0])),
        side_b=frozenset(bits(sides[1])),
        mu_a=weights[0],
        mu_b=weights[1],
        lstar=lstar,
        bound_value=bound,
    )
    _assert_separator(base, mu, result)
    return result


def _assert_separator(base: Graph, mu: Measure, r: SeparatorResult) -> None:
    total = mu.total(base.n)
    if r.side_a | r.side_b | r.separator != set(range(base.n)):
        raise InvalidFactorization("separator result does not partition V")
    if r.side_a & r.side_b or r.side_a & r.separator or r.side_b & r.separator:
        raise InvalidFactorization("separator result blocks overlap")
    a, b = mask_of(r.side_a), mask_of(r.side_b)
    # one C-level pass over side a's neighbourhoods; the vertex walk runs
    # only to name the first crossing edge
    if any(map(b.__and__, map(base._adj.__getitem__, r.side_a))):
        other = (b if a >> u & 1 else a if b >> u & 1 else 0 for u in range(base.n))
        u, v = next(_pairs(map(int.__and__, base._adj, other)))
        raise InvalidFactorization(f"edge ({u},{v}) crosses the separator")
    # the sides are weighed here: a stored measure is checked, not trusted
    wa, wb = mu.of(r.side_a), mu.of(r.side_b)
    if max(wa, wb) > 2 * total / 3 + 1e-9:
        raise InvalidFactorization("side measure exceeds 2mu(G)/3")
    tol = 1e-9 * max(1.0, total)
    # not `>`, so a NaN stored measure is refused too
    if not (abs(wa - r.mu_a) <= tol and abs(wb - r.mu_b) <= tol):
        raise InvalidFactorization(f"sides weigh {wa}, {wb}, not the stored {r.mu_a}, {r.mu_b}")
    covered: set[int] = set()
    for c in r.separator_cliques:
        if not is_clique(base, c):
            raise InvalidFactorization("separator clique fails in base graph")
        if covered & c:
            raise InvalidFactorization("separator cliques overlap")
        covered |= c
    if covered != set(r.separator):
        raise InvalidFactorization("separator cliques do not cover the separator")


def audit_lower_bound(f: Factorization, x: int = 1) -> AuditReport:
    """Walk the lower-bound argument on a factorized apex grid: the largest
    grid-restricted clique of the chordal factor, an independent half inside
    it, the covers restricted to that clique plus apex x, and the number of
    product cells needed to cover the independent set.  Raises `NoApex` for
    a base without apex x and `NoGridCell` for one without grid cells.  The
    grid clique comes from the elimination check_factorization has just run
    on the envelope's PEO (`_grid_clique`), so factor 1 is eliminated once
    per call."""
    succ, _ = check_factorization(f)
    base = f.base
    apex_vs = {lbl.index: v for v, lbl in enumerate(base.labels) if isinstance(lbl, Apex)}
    if x not in apex_vs:
        raise NoApex(f"no apex with index {x}")
    apex = apex_vs[x]

    smask = _grid_clique(f, succ)
    s = set(bits(smask))

    # independent half of s: base[s] 2-coloured from the graph, not from the
    # labels, by BFS layers (even against odd) in each of its components;
    # the even class wins a tie
    classes, rest = [0, 0], smask
    while rest:
        for depth, layer in enumerate(_bfs_layers(base, rest & -rest, smask)):
            classes[depth % 2] |= layer
            rest ^= layer
    s_prime = set(bits(max(classes, key=int.bit_count)))
    if not is_independent(base, s_prime):
        raise InvalidFactorization("bipartition class is not independent in the base")

    if unjoined := smask & ~base.adj_mask(apex):
        v = (unjoined & -unjoined).bit_length() - 1
        raise InvalidFactorization(
            f"apex {x} (vertex {apex}) is not adjacent in the base to vertex {v} of the grid clique"
        )
    s_hat = s | {apex}
    restricted_sizes = [len(set(map(c.block_of().__getitem__, s_hat))) for c in f.covers]

    cells = product_cell_cover(base, s_prime, list(f.covers))
    report = AuditReport(
        grid_clique_size=len(s),
        indep_size=len(s_prime),
        restricted_cover_sizes=tuple(restricted_sizes),
        product_cells=len(cells),
    )
    if report.indep_size < (report.grid_clique_size + 1) // 2:
        raise InvalidFactorization("independent set smaller than half the clique")
    if report.product_cells > math.prod(report.restricted_cover_sizes):
        raise InvalidFactorization("product cells exceed the block-count product")
    return report


def _grid_clique(f: Factorization, succ: list[int]) -> int:
    """The mask of the largest clique of factor 1 within the grid cells
    that `audit_lower_bound` audits, from `succ`, the later-neighbour masks
    of the `_elimination` of factor 1 by the certificate's verified PEO.

    That PEO restricted to the grid is a PEO of the grid-induced subgraph,
    and it keeps the grid cells in their order, so the later neighbours of
    a cell v there are succ[v] & grid.  The first largest C(v), v and those
    neighbours, in PEO order: the first largest bag in that order, the order
    of maximal_cliques_chordal, is C(u) for its earliest vertex u, and no
    earlier C(v) is as large, or its bag would be as large and come first.
    Raises `NoGridCell` for a base without grid cells."""
    labels = f.base.labels
    grid_peo = [v for v in f.chordal_cert.peo if isinstance(labels[v], GridCell)]
    if not grid_peo:
        raise NoGridCell("no grid cell, so no grid clique to audit")
    grid = mask_of(grid_peo)
    return max((succ[v] & grid | 1 << v for v in grid_peo), key=int.bit_count)
