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

    @classmethod
    def uniform(cls, n: int) -> "Measure":
        return cls(weights=(1.0,) * n)

    def of(self, vertices: Iterable[int]) -> float:
        return sum(self.weights[v] for v in vertices)

    def total(self, n: int) -> float:
        if n != len(self.weights):
            raise InvalidMeasure(
                f"measure has {len(self.weights)} weights for {n} vertices"
            )
        return sum(self.weights)

    @classmethod
    def from_list(cls, weights: Sequence[float]) -> "Measure":
        try:
            floats = tuple(float(w) for w in weights)
        except (TypeError, ValueError) as exc:
            raise InvalidMeasure(f"measure weights must be numbers: {exc}") from None
        return cls(weights=floats)
