"""Class scores of many entities, and the one rule that ranks them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Prediction:
    """An entity's classes, best first; empty for an entity that was not ranked."""

    entity: str
    ranking: list[str] = field(default_factory=list)


@dataclass
class ScoreMatrix:
    """One route's scores: ``values[i, j]`` scores ``classes[j]`` for
    ``entities[i]``, and ``ranked[i, j]`` marks that class as one of the
    entity's candidates. A row without a candidate is an entity the route
    cannot rank; the values of its cells, and of any unmarked cell, mean
    nothing."""

    entities: list[str]
    classes: list[str]
    values: np.ndarray  # (N, K) float
    ranked: np.ndarray  # (N, K) bool

    def predictions(self) -> list[Prediction]:
        """Each entity's candidates by descending score, ties broken by class
        name whatever the column order: one stable sort over the columns in
        name order, with each row's candidates first."""
        by_name = sorted(range(len(self.classes)), key=self.classes.__getitem__)
        ranked = self.ranked[:, by_name]
        orders = np.lexsort((-self.values[:, by_name], ~ranked))
        rankings = np.array(self.classes, dtype=object)[by_name][orders].tolist()
        counts = ranked.sum(axis=1).tolist()
        return [Prediction(entity, ranking[:count])
                for entity, ranking, count in zip(self.entities, rankings, counts)]
