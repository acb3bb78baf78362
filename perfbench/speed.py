"""Machine-speed calibration: set-up and command times at a reference speed.

The benchmark was written on a shared virtual machine whose CPU speed drifts
over minutes: a fixed pure-Python loop took 43 to 92 ms per iteration, in
plateaus lasting seconds, and its CPU time tracked its wall time.  Medians
within a run cannot remove drift that outlasts the run, so run.py times a
fixed calibration loop (about 13 ms of pure-Python set and dict work, no
ccwkit code) before each set-up and, every EVERY_S seconds, between
commands.  Each set-up or command time is divided by the median of the
NEIGHBOURS loop times before and after it and multiplied by REFERENCE_S, the
loop's median time on that machine (2 vCPUs of an Intel Xeon, Python 3.11).
The machine's speed cancels out; a change in ccwkit's own speed does not,
because the loop calls no ccwkit code.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

REFERENCE_S = 0.0135
EVERY_S = 0.25
NEIGHBOURS = 3
VERTICES = 400


def _graph() -> dict[int, set[int]]:
    rng = random.Random(0)
    adj: dict[int, set[int]] = {v: set() for v in range(VERTICES)}
    for _ in range(6 * VERTICES):
        a, b = rng.randrange(VERTICES), rng.randrange(VERTICES)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


class Speedometer:
    """Times the calibration loop and scales command times by it."""

    def __init__(self):
        self.adj = _graph()
        self.starts: list[float] = []
        self.times: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        """Time one run of the loop: breadth-first searches from ten sources,
        each followed by neighbourhood intersections, with gc off."""
        adj = self.adj
        gc.disable()
        try:
            start = time.perf_counter()
            for src in range(0, VERTICES, VERTICES // 10):
                seen, order = {src}, [src]
                for v in order:
                    for w in adj[v] - seen:
                        seen.add(w)
                        order.append(w)
                sum(len(adj[v] & adj[w]) for v in order[:100] for w in adj[v])
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(start)
        self.times.append(self.last - start)

    def maybe_sample(self) -> None:
        """Sample when EVERY_S seconds have passed since the last sample."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def at_reference(self, start: float, seconds: float) -> float:
        """`seconds`, timed from `start`, at the reference speed."""
        i = bisect.bisect(self.starts, start)
        near = self.times[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return seconds * REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.times)
