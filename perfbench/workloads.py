"""Seeded workloads: each turns a seed into input files and a list of CLI
steps, every step paired with an independent check of what it produced.

Why these three workloads, and what each is expected to show, is written
down in DESIGN.md next to this file.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import PlainGraph


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass.  `check(stdout)` returns the problems found
    in the command's outputs, and for `ccw` whether both searches were exact."""

    cmd: str
    argv: list[str]
    reads: list[Path]
    writes: list[Path]
    check: Callable[[str], tuple[list[str], bool | None]]
    slice: str = ""


def _pipeline(d: Path, family: list[str], graph, weights, lstar_bound: int,
              grid_clique: int, apex: int) -> list[Step]:
    """factorize -> verify -> separate -> audit on one instance."""
    env, sep, aud = d / "envelope.json", d / "separator.json", d / "audit.json"
    sep_argv, sep_reads = ["separate", str(env), "--out", str(sep)], [env]
    if weights is not None:
        wfile = d / "weights.json"
        wfile.write_text(json.dumps(weights))
        sep_argv += ["--weights", str(wfile)]
        sep_reads.append(wfile)
    return [
        Step("factorize", ["factorize", *family, "--out", str(env)], [], [env],
             lambda out: (checks.check_envelope(env, graph()), None)),
        Step("verify", ["verify", str(env)], [env], [],
             lambda out: (checks.check_verify(out), None)),
        Step("separate", sep_argv, sep_reads, [sep],
             lambda out: (checks.check_separator(sep, graph(), weights, lstar_bound), None)),
        Step("audit", ["audit", str(env), "--apex", str(apex), "--out", str(aud)], [env], [aud],
             lambda out: (checks.check_audit(aud, grid_clique), None)),
    ]


# -- apex-pipeline -------------------------------------------------------------

APEX_K = 2
# N = 402, 902, 1 602.  The ROADMAP ladder goes on to n = 60 (N = 3 602), but
# one pass with it takes about 20 s, so a run could not repeat its commands
# and take medians; without it a pass takes about 4.5 s.
APEX_SIZES = (20, 30, 40)


def apex_pipeline(seed: int, work: Path) -> list[Step]:
    rng = random.Random(seed)
    steps = []
    for n in APEX_SIZES:
        apex_edges = ((1, 2),) if rng.random() < 0.5 else ()
        apex = rng.randint(1, APEX_K)
        family = ["apex-grid", "--k", str(APEX_K), "--n", str(n)]
        if apex_edges:
            family += ["--apex-edges", "1-2"]
        d = work / f"apex-n{n}"
        d.mkdir(parents=True, exist_ok=True)
        graph = functools.cache(functools.partial(checks.apex_grid_graph, APEX_K, n, apex_edges))
        steps += _pipeline(d, family, graph, None, (n + 1) // 2 + APEX_K, 2 * n, apex)
    return steps


# -- sum-separate --------------------------------------------------------------

SUM_K = 3
SUM_INSTANCES = 1
# 62 parts with n_i in [3, 8], N = 2 034: enough for about 280 bags, small
# enough that a pass takes under 3 s and a run repeats it about 12 times.  The seed
# shuffles this fixed histogram instead of drawing each n_i: a pass costs
# roughly in proportion to the larger parts, and free draws moved the pass
# time by 60% between seeds.
SUM_PART_SIZES = [3, 4, 5, 6, 7, 8] * 10 + [4, 5]


def sum_separate(seed: int, work: Path) -> list[Step]:
    rng = random.Random(seed)
    steps = []
    for j in range(SUM_INSTANCES):
        sizes = SUM_PART_SIZES[:]
        rng.shuffle(sizes)
        removed = tuple(sorted(rng.sample(range(1, SUM_K + 1), 2)))
        n_vertices = sum(s * s for s in sizes) + SUM_K
        weights = [rng.randint(1, 9) for _ in range(n_vertices)]
        apex = rng.randint(1, SUM_K)
        family = ["clique-sum", "--parts", ",".join(f"{SUM_K}:{s}" for s in sizes),
                  "--removed-edges", "-".join(map(str, removed))]
        d = work / f"sum-{j}"
        d.mkdir(parents=True, exist_ok=True)
        graph = functools.cache(functools.partial(checks.clique_sum_graph, SUM_K, sizes, [removed]))
        lstar_bound = sum(s + SUM_K for s in sizes)
        steps += _pipeline(d, family, graph, weights, lstar_bound, 2 * max(sizes), apex)
    return steps


# -- exact-oracle --------------------------------------------------------------

# connected G(n, p) graphs per density p at each n: 216 in all, so at least
# 10 lie beyond the 95th percentile.  n = 8 graphs take about 40 ms each and
# n = 6, 7 ones under 10 ms, so a pass takes about 6 s and a run repeats it.
# No n = 9 graphs: one can cost a second, and with one per density their
# share of the pass varied twofold between seeds, more than the machine noise.
DECIDABLE = {6: 26, 7: 26, 8: 20}
DENSITIES = (0.3, 0.5, 0.7)
BRUTE_MAX_N = 7
# a node budget the search reaches on every budget-slice graph
BUDGET = 200
BUDGET_SEEDED_N = (10, 11, 12)  # at p = 0.5, after grid(4)


def gnp_connected(rng: random.Random, n: int, p: float) -> PlainGraph:
    """G(n, p) conditioned on being connected (redrawn until it is)."""
    while True:
        g = PlainGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        seen, stack = {0}, [0]
        while stack:
            for w in g.adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) == n:
            return g


def grid_graph(n: int) -> PlainGraph:
    return PlainGraph(n * n, checks.grid_edges(n, 0))


def exact_oracle(seed: int, work: Path) -> list[Step]:
    rng = random.Random(seed)
    graphs = [("decidable", gnp_connected(rng, n, p), None)
              for n, count in DECIDABLE.items() for p in DENSITIES for _ in range(count)]
    graphs.append(("budget", grid_graph(4), BUDGET))
    graphs += [("budget", gnp_connected(rng, n, 0.5), BUDGET) for n in BUDGET_SEEDED_N]
    work.mkdir(parents=True, exist_ok=True)
    steps = []
    for i, (slice_, g, budget) in enumerate(graphs):
        gfile, out = work / f"graph{i:03d}.json", work / f"ccw{i:03d}.json"
        gfile.write_text(json.dumps(g.to_json()))
        argv = ["ccw", str(gfile), "--bandwidth", "--out", str(out)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        brute = None
        if g.n <= BRUTE_MAX_N:
            brute = functools.cache(lambda g=g: (checks.ccw_brute(g), checks.bandwidth_brute(g)))

        def check(stdout, g=g, out=out, brute=brute):
            return checks.check_ccw(out, g, brute() if brute else None)

        steps.append(Step("ccw", argv, [gfile], [out], check, slice_))
    return steps


WORKLOADS = {
    "apex-pipeline": apex_pipeline,
    "sum-separate": sum_separate,
    "exact-oracle": exact_oracle,
}
