"""Spans around the public functions of each ccwkit layer, installed from the
benchmark's own files so that no library file is edited.

A span records (name, start, end, parent span, command id).  Spans stay in
memory and are written out once the traced pass ends.  A layer function's
self time is its span time minus the time of its direct child spans; calls
are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _graph_size(g) -> int:
    return g.n + g.num_edges()


def _first_graph(args) -> int:
    return _graph_size(args[0])


def _chordal_factor(args) -> int:
    # separate(f, mu): the clique-tree search runs on the chordal factor 1
    return _graph_size(args[0].factors[0])


def _bags(counters: Counter, result) -> None:
    counters["chordal.clique_tree.bags"] += len(result.bags)


def _exhausted(counters: Counter, result) -> None:
    counters["cliquecover.budget_exhausted"] += not result[0].exact


# (span name, module, attribute path, input size for .scaling, result counter)
TARGETS = [
    ("cli.main", "ccwkit.cli", "main", None, None),
    ("graph.Graph.to_json", "ccwkit.graph", "Graph.to_json", None, None),
    ("graph.Graph.from_json", "ccwkit.graph", "Graph.from_json", None, None),
    ("graph.intersect_graphs", "ccwkit.graph", "intersect_graphs", None, None),
    ("graph.induced_subgraph", "ccwkit.graph", "induced_subgraph", None, None),
    ("graph.connected_components", "ccwkit.graph", "connected_components", None, None),
    ("graph.is_clique", "ccwkit.graph", "is_clique", None, None),
    ("constructions.apex_grid", "ccwkit.constructions", "apex_grid", None, None),
    ("constructions.clique_sum", "ccwkit.constructions", "clique_sum", None, None),
    ("constructions.factorize_apex_grid", "ccwkit.constructions", "factorize_apex_grid", None, None),
    ("constructions.factorize_clique_sum", "ccwkit.constructions", "factorize_clique_sum", None, None),
    ("constructions.verify_factorization", "ccwkit.constructions", "verify_factorization", None, None),
    ("constructions.Factorization.to_json", "ccwkit.constructions", "Factorization.to_json", None, None),
    ("constructions.Factorization.from_json", "ccwkit.constructions", "Factorization.from_json", None, None),
    ("chordal.lex_bfs", "ccwkit.chordal", "lex_bfs", _first_graph, None),
    ("chordal.verify_peo", "ccwkit.chordal", "verify_peo", None, None),
    ("chordal.is_chordal", "ccwkit.chordal", "is_chordal", None, None),
    ("chordal.maximal_cliques_chordal", "ccwkit.chordal", "maximal_cliques_chordal", _first_graph, None),
    ("chordal.clique_tree", "ccwkit.chordal", "clique_tree", _first_graph, _bags),
    ("chordal.balanced_clique_separator", "ccwkit.chordal", "balanced_clique_separator", None, None),
    ("cliquecover.verify_cover", "ccwkit.cliquecover", "verify_cover", None, None),
    ("cliquecover.cover_width", "ccwkit.cliquecover", "cover_width", None, None),
    ("cliquecover.ccw_upper_greedy", "ccwkit.cliquecover", "ccw_upper_greedy", None, None),
    ("cliquecover.ccw_exact", "ccwkit.cliquecover", "ccw_exact", None, _exhausted),
    ("cliquecover.bandwidth_exact", "ccwkit.cliquecover", "bandwidth_exact", None, _exhausted),
    ("separator.separate", "ccwkit.separator", "separate", _chordal_factor, None),
    ("separator.product_cell_cover", "ccwkit.separator", "product_cell_cover", None, None),
    ("separator.audit_lower_bound", "ccwkit.separator", "audit_lower_bound", None, None),
]

# functions whose self time is fitted against input size on the size ladder
SCALED = [name for name, _, _, size_of, _ in TARGETS if size_of is not None]
# per-layer metrics reported as counts of spans
CALLS = [
    "graph.connected_components",
    "graph.is_clique",
    "constructions.verify_factorization",
    "chordal.lex_bfs",
    "chordal.verify_peo",
    "chordal.is_chordal",
]
COUNTERS = ["chordal.clique_tree.bags", "cliquecover.budget_exhausted"]


class Tracer:
    """Wraps the TARGETS in every ccwkit module namespace that binds them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, cmd, size)
        self.counters: Counter = Counter()
        self.cmd = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, size_of, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            size = size_of(args) if size_of else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.cmd, size)
            if count:
                count(counters, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "ccwkit" or k.startswith("ccwkit.")]
        for name, modname, attr, size_of, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:  # a method: patch the class attribute once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, size_of, count))
                else:
                    new = self._wrap(name, raw, size_of, count)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, size_of, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, val in reversed(self._restore):
            setattr(obj, key, val)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, (name, start, end, parent, cmd, size) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "cmd": cmd, "size": size}
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Self time and calls per function, the result counters, and the
        log-log slope of self time against input size (V+E)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        by_size: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        for sid, (name, start, end, _, _, size) in enumerate(self.spans):
            own = end - start - child[sid]
            self_s[name] += own
            calls[name] += 1
            if size is not None:
                by_size[name][size].append(own)
        out = {f"{n}.self_s": self_s[n] for n, *_ in TARGETS}
        out.update({f"{n}.calls": float(calls[n]) for n in CALLS})
        out.update({n: float(self.counters[n]) for n in COUNTERS})
        out.update({f"{n}.scaling": loglog_slope(by_size[n]) for n in SCALED})
        return out


def loglog_slope(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(mean self time) on log(size).  0.0 when the
    sizes span less than a factor of two, where a slope means nothing."""
    pts = [(math.log(s), math.log(sum(t) / len(t))) for s, t in points.items() if sum(t) > 0]
    if len(pts) < 2 or max(p[0] for p in pts) - min(p[0] for p in pts) < math.log(2):
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
