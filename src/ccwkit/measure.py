"""Vertex-weight measures: non-negative weightings whose subgraph value is the
sum of vertex weights (monotone, subadditive, additive across disjoint parts)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidMeasure


@dataclass(frozen=True)
class Measure:
    weights: tuple[float, ...]

    def __post_init__(self):
        # NaN fails every comparison, so it fails this one too
        if not all(0 <= w < math.inf for w in self.weights):
            raise InvalidMeasure("measure weights must be finite and non-negative")
        # finite weights can still sum past the largest float
        if not sum(self.weights) < math.inf:
            raise InvalidMeasure("measure weights must sum to a finite total")

    @classmethod
    def uniform(cls, n: int) -> "Measure":
        return cls(weights=(1.0,) * n)

    def of(self, vertices: Iterable[int]) -> float:
        return sum(map(self.weights.__getitem__, vertices))

    def total(self, n: int) -> float:
        if n != len(self.weights):
            raise InvalidMeasure(
                f"measure has {len(self.weights)} weights for {n} vertices"
            )
        return sum(self.weights)

    @classmethod
    def from_list(cls, weights: Sequence[float]) -> "Measure":
        """A measure from a list (or tuple) of int or float weights, as a
        `--weights` file holds them.  Anything else, a string, an object, a
        boolean or a numeric string included, raises `InvalidMeasure` naming
        the first bad entry instead of being read as some other measure.
        The entries pass one C-level screen, the set of their types; only a
        list holding another type is walked entry by entry, to name it."""
        if not isinstance(weights, (list, tuple)):
            raise InvalidMeasure(
                f"measure weights must be a list of numbers, not {type(weights).__name__}"
            )
        if not set(map(type, weights)) <= {int, float}:
            for i, w in enumerate(weights):
                if not isinstance(w, (int, float)) or isinstance(w, bool):
                    raise InvalidMeasure(f"measure weights must be numbers: entry {i} is {w!r}")
        try:
            return cls(weights=tuple(map(float, weights)))
        except OverflowError:
            raise InvalidMeasure("measure weights must be finite and non-negative") from None
