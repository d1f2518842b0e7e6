"""Per-entity class scores with a deterministic ranking."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np


class _RowScores(Mapping):
    """Class -> score view of one row of a score matrix, read only."""

    def __init__(self, columns: dict[str, int], row: np.ndarray):
        self._columns, self._row = columns, row

    def __getitem__(self, class_iri: str) -> float:
        return float(self._row[self._columns[class_iri]])

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class Prediction:
    """Scores per candidate class, ranked descending with lexicographic ties."""

    entity: str
    scores: Mapping[str, float] = field(default_factory=dict)
    ranking: list[str] = field(default_factory=list)

    @classmethod
    def from_scores(cls, entity: str, scores: dict[str, float]) -> "Prediction":
        ranking = sorted(scores, key=lambda c: (-scores[c], c))
        return cls(entity, dict(scores), ranking)

    @classmethod
    def from_rows(cls, entities, classes: list[str], scores: np.ndarray) -> list["Prediction"]:
        """``from_scores`` of each entity's row of ``scores`` (N, K), whose
        columns are ``classes`` in sorted order, by one stable sort; each
        prediction's scores are a view of its row."""
        columns = {c: j for j, c in enumerate(classes)}
        orders = np.argsort(-scores, axis=1, kind="stable")
        rankings = np.array(classes, dtype=object)[orders].tolist()
        return [cls(entity, _RowScores(columns, row), ranking)
                for entity, row, ranking in zip(entities, scores, rankings)]

    @property
    def top(self) -> str | None:
        return self.ranking[0] if self.ranking else None

    def top_k(self, k: int) -> list[tuple[str, float]]:
        return [(c, self.scores[c]) for c in self.ranking[:k]]
