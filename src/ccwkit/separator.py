"""Balanced separators with clique-cover certificates, and the lower-bound
audit pipeline over apex-grid factorizations."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chordal import _balanced_bag, _elimination
from .cliquecover import OrderedCliqueCover
from .constructions import Factorization, check_factorization
from .errors import InvalidFactorization, NoApex, NoGridCell, NotCliqueInFactorOne
from .graph import (
    Apex,
    Graph,
    GridCell,
    _bfs_layers,
    _pairs,
    bits,
    connected_components,
    is_clique,
    is_independent,
    mask_of,
)
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
    The clique tree is built from the envelope's PEO, which
    check_factorization has just verified."""
    check_factorization(f)
    base = f.base
    if mu is None:
        mu = Measure.uniform(base.n)
    total = mu.total(base.n)

    sep = _balanced_bag(f.factors[0], f.chordal_cert.peo, mu)
    cliques = product_cell_cover(base, sep, list(f.covers))

    rest = set(range(base.n)) - sep
    comps = connected_components(base, within=rest)
    # each component is within mu/2 (it refines a factor-1 component);
    # largest-first into the lighter side keeps both sides within 2mu/3
    sides: list[set[int]] = [set(), set()]
    weights = [0.0, 0.0]
    for comp in sorted(comps, key=mu.of, reverse=True):
        i = 0 if weights[0] <= weights[1] else 1
        sides[i] |= comp
        weights[i] += mu.of(comp)

    d = len(f.factors)
    lstar = f.lstar
    bound = (2**d) * (max(lstar, 1) ** ((d - 1) / d)) * (total ** ((d - 1) / d))
    result = SeparatorResult(
        separator=frozenset(sep),
        separator_cliques=tuple(cliques),
        side_a=frozenset(sides[0]),
        side_b=frozenset(sides[1]),
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
    crossing = (m & (b if a >> u & 1 else a if b >> u & 1 else 0) for u, m in enumerate(base._adj))
    if edge := next(_pairs(crossing), None):
        raise InvalidFactorization(f"edge ({edge[0]},{edge[1]}) crosses the separator")
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
    a base without apex x and `NoGridCell` for one without grid cells."""
    check_factorization(f)
    base = f.base
    apex_vs = {
        lbl.index: v for v, lbl in enumerate(base.labels) if isinstance(lbl, Apex)
    }
    if x not in apex_vs:
        raise NoApex(f"no apex with index {x}")
    apex = apex_vs[x]

    # the verified PEO of factor 1, restricted to the grid, is a PEO of the
    # grid-induced subgraph
    grid_peo = [v for v in f.chordal_cert.peo if isinstance(base.labels[v], GridCell)]
    if not grid_peo:
        raise NoGridCell("no grid cell, so no grid clique to audit")
    succ = _elimination(f.factors[0], grid_peo)[0]
    # the first largest C(v), v and its later neighbours, in PEO order: the
    # first largest bag in that order, the order of maximal_cliques_chordal,
    # is C(u) for its earliest vertex u, and no earlier C(v) is as large, or
    # its bag would be as large and come first
    smask = max((succ[v] | 1 << v for v in grid_peo), key=int.bit_count)
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
    restricted_sizes = []
    for cover in f.covers:
        block = cover.block_of()
        restricted_sizes.append(len({block[v] for v in s_hat}))

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
