"""Independent output checks and brute-force oracles.

Nothing here imports ccwkit: every expectation is re-derived from the
parameters the benchmark generated, so a wrong answer from the library
cannot also fix the check that judges it.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path


class PlainGraph:
    """Undirected graph on 0..n-1 as adjacency sets, built by the benchmark."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def is_clique(self, vs) -> bool:
        vs = list(vs)
        return all(b in self.adj[a] for i, a in enumerate(vs) for b in vs[i + 1 :])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "labels": [{"kind": "plain", "id": v} for v in range(self.n)],
        }


# -- expected base graphs ------------------------------------------------------


def grid_edges(n: int, offset: int):
    for r in range(n):
        for c in range(n):
            v = offset + r * n + c
            if c + 1 < n:
                yield v, v + 1
            if r + 1 < n:
                yield v, v + n


def apex_grid_graph(k: int, n: int, apex_edges) -> PlainGraph:
    """n x n grid (cells row-major) plus k apexes joined to every cell."""
    n2 = n * n
    edges = list(grid_edges(n, 0))
    edges += [(v, n2 + i) for v in range(n2) for i in range(k)]
    edges += [(n2 + a - 1, n2 + b - 1) for a, b in apex_edges]
    return PlainGraph(n2 + k, edges)


def clique_sum_graph(k: int, sizes, removed) -> PlainGraph:
    """Clique sum of apex grids with complete apex sets, glued on the apexes
    of part 0, minus the removed apex pairs.  Numbering: part 0's cells, the
    k shared apexes, then each later part's cells in order."""
    n0 = sizes[0]
    apex = [n0 * n0 + j for j in range(k)]
    edges = [(a, b) for i, a in enumerate(apex) for b in apex[i + 1 :]]
    gone = {(apex[a - 1], apex[b - 1]) for a, b in removed}
    edges = [e for e in edges if e not in gone]
    offsets = [0]
    nxt = n0 * n0 + k
    for n in sizes[1:]:
        offsets.append(nxt)
        nxt += n * n
    for n, off in zip(sizes, offsets):
        edges += grid_edges(n, off)
        edges += [(off + v, a) for v in range(n * n) for a in apex]
    return PlainGraph(nxt, edges)


# -- pipeline outputs ----------------------------------------------------------

_BASE_FIRST = re.compile(r'\s*\{\s*"base"\s*:\s*')


def _envelope_base(path: Path) -> dict:
    """The envelope's `base` graph.  Keys are sorted, so `base` comes first and
    only that value is decoded, keeping the checker's memory well below the
    CLI's own full decode of the envelope."""
    text = path.read_text()
    m = _BASE_FIRST.match(text)
    if m:
        return json.JSONDecoder().raw_decode(text, m.end())[0]
    return json.loads(text)["base"]


def check_envelope(path: Path, g: PlainGraph) -> list[str]:
    base = _envelope_base(path)
    if base.get("n") != g.n:
        return [f"envelope base has {base.get('n')} vertices, expected {g.n}"]
    got = sorted((min(u, v), max(u, v)) for u, v in base["edges"])
    if got != g.edges:
        return [f"envelope base has {len(got)} edges, expected {len(g.edges)}"]
    return []


def check_verify(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines:
        return ["verify printed nothing"]
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    return [f"verify line is not a PASS: {bad[0]!r}"] if bad else []


def check_separator(path: Path, g: PlainGraph, weights, lstar_bound: int) -> list[str]:
    r = json.loads(path.read_text())
    sep, a, b = set(r["separator"]), set(r["side_a"]), set(r["side_b"])
    problems = []
    if len(sep) + len(a) + len(b) != g.n or sep | a | b != set(range(g.n)):
        problems.append("separator and sides do not partition V")
    crossing = next(((u, v) for u, v in g.edges if (u in a and v in b) or (u in b and v in a)), None)
    if crossing:
        problems.append(f"base edge {crossing} crosses the separator")
    w = weights or [1] * g.n
    total = sum(w)
    for side, name in ((a, "a"), (b, "b")):
        mu = sum(w[v] for v in side)
        if 3 * mu > 2 * total:
            problems.append(f"side {name} weighs {mu} > 2/3 of {total}")
        if abs(r[f"mu_{name}"] - mu) > 1e-9 * max(total, 1):
            problems.append(f"mu_{name} is {r[f'mu_{name}']}, recomputed {mu}")
    covered = [v for c in r["separator_cliques"] for v in c]
    if len(covered) != len(set(covered)) or set(covered) != sep:
        problems.append("separator cliques do not partition the separator")
    if not all(g.is_clique(c) for c in r["separator_cliques"]):
        problems.append("a separator clique is not a clique of the base graph")
    if r["lstar"] > lstar_bound:
        problems.append(f"lstar {r['lstar']} exceeds {lstar_bound}")
    return problems


def check_audit(path: Path, grid_clique_size: int) -> list[str]:
    r = json.loads(path.read_text())
    problems = []
    if r["grid_clique_size"] != grid_clique_size:
        problems.append(f"grid clique size {r['grid_clique_size']}, expected {grid_clique_size}")
    if r["indep_size"] < (r["grid_clique_size"] + 1) // 2:
        problems.append("independent set smaller than half the grid clique")
    prod = 1
    for s in r["restricted_cover_sizes"]:
        prod *= s
    if r["product_cells"] > prod:
        problems.append(f"{r['product_cells']} product cells exceed the product {prod}")
    return problems


# -- exact oracle outputs ------------------------------------------------------


def cover_width(g: PlainGraph, cover) -> int | None:
    """Width of an ordered clique cover, or None if it is not one."""
    block = {}
    for i, blk in enumerate(cover):
        for v in blk:
            if v in block:
                return None
            block[v] = i
    if sorted(block) != list(range(g.n)) or not all(g.is_clique(b) for b in cover):
        return None
    return max((abs(block[u] - block[v]) for u, v in g.edges), default=0)


def layout_width(g: PlainGraph, order) -> int | None:
    """Bandwidth of a vertex ordering, or None if it is not a permutation."""
    if sorted(order) != list(range(g.n)):
        return None
    pos = {v: i for i, v in enumerate(order)}
    return max((abs(pos[u] - pos[v]) for u, v in g.edges), default=0)


def bandwidth_brute(g: PlainGraph) -> int:
    """Minimum layout width over all n! orderings.  Stops early only on
    reaching ceil(maxdeg/2), below which no ordering can go."""
    if not g.edges:
        return 0
    floor = max((len(a) + 1) // 2 for a in g.adj)
    best = g.n
    for pos in itertools.permutations(range(g.n)):  # pos[v] = position of v
        best = min(best, max(abs(pos[u] - pos[v]) for u, v in g.edges))
        if best == floor:
            break
    return best


def _clique_partitions(g: PlainGraph):
    blocks: list[list[int]] = []

    def rec(v: int):
        if v == g.n:
            yield blocks
            return
        for b in blocks:
            if all(u in g.adj[v] for u in b):
                b.append(v)
                yield from rec(v + 1)
                b.pop()
        blocks.append([v])
        yield from rec(v + 1)
        blocks.pop()

    yield from rec(0)


def ccw_brute(g: PlainGraph) -> int:
    """Minimum width over every ordering of every partition into cliques.
    Stops early only on reaching the trivial floor: 0 for a complete graph,
    else 1 for a connected graph with at least two blocks."""
    complete = len(g.edges) == g.n * (g.n - 1) // 2
    floor = 0 if complete else 1
    best = g.n
    for part in _clique_partitions(g):
        block = {v: i for i, b in enumerate(part) for v in b}
        cross = {(block[u], block[v]) for u, v in g.edges if block[u] != block[v]}
        for pos in itertools.permutations(range(len(part))):  # pos[i] = slot of block i
            best = min(best, max((abs(pos[a] - pos[b]) for a, b in cross), default=0))
            if best == floor:
                return best
    return best


def check_ccw(path: Path, g: PlainGraph, brute: tuple[int, int] | None) -> tuple[list[str], bool]:
    """Problems with one `ccw --bandwidth` report, and whether both searches
    were exact.  `brute` holds the brute-force (ccw, bandwidth) when known."""
    r = json.loads(path.read_text())
    problems = []
    if cover_width(g, r["cover"]) != r["width"]:
        problems.append(f"cover is not an ordered clique cover of width {r['width']}")
    if layout_width(g, r["ordering"]) != r["bandwidth"]:
        problems.append(f"ordering is not a layout of width {r['bandwidth']}")
    decided = bool(r["exact"] and r["bandwidth_exact"])
    if decided and r["width"] > r["bandwidth"]:
        problems.append(f"ccw {r['width']} exceeds bandwidth {r['bandwidth']}")
    if brute is not None and (not decided or (r["width"], r["bandwidth"]) != brute):
        problems.append(
            f"(ccw, bw) = ({r['width']}, {r['bandwidth']}) exact={decided}, brute force {brute}"
        )
    return problems, decided
