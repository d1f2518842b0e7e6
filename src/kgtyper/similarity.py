"""Hierarchy-guided typing by cosine similarity to class vectors.

A class is represented by the arithmetic mean of its member entity
vectors. To refine an entity's known type, the hierarchy is climbed to
the coarse ancestor (the last class before a root), all classes below
that ancestor become candidates, and the candidates are ranked by cosine
similarity to the entity vector.
"""

from __future__ import annotations

import logging
from typing import AbstractSet, Iterable, Mapping

import numpy as np

from .errors import DataError
from .graph import ClassHierarchy
from .prediction import Prediction

logger = logging.getLogger(__name__)


class ClassVectorError(DataError):
    def __init__(self, class_iri: str):
        super().__init__(f"no member of class {class_iri} has a vector")
        self.class_iri = class_iri


def class_vector(class_iri: str, members: Iterable[str], embeddings) -> np.ndarray:
    """Mean of the member vectors; members without vectors are skipped."""
    total = None
    resolved = 0
    skipped = 0
    for entity in members:
        if entity not in embeddings:
            skipped += 1
            continue
        vector = embeddings.vector_of(entity)
        total = vector.copy() if total is None else total + vector
        resolved += 1
    if total is None:
        raise ClassVectorError(class_iri)
    if skipped:
        logger.warning("class %s: %d members without vectors", class_iri, skipped)
    return total / resolved


def build_class_vectors(
    members_by_class: Mapping[str, Iterable[str]], embeddings
) -> dict[str, np.ndarray]:
    return {
        class_iri: class_vector(class_iri, members, embeddings)
        for class_iri, members in sorted(members_by_class.items())
    }


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    return _cosine(u, v, np.linalg.norm(u), np.linalg.norm(v))


def _cosine(u: np.ndarray, v: np.ndarray, norm_u: float, norm_v: float) -> float:
    if norm_u == 0.0 or norm_v == 0.0:
        raise DataError("cosine similarity undefined for zero-norm vector")
    return float(u @ v / (norm_u * norm_v))


def similarity_rank(
    entity: str,
    candidates: AbstractSet[str],
    class_vectors: Mapping[str, np.ndarray],
    embeddings,
    class_norms: Mapping[str, float] | None = None,
) -> Prediction:
    """Rank candidate classes by cosine similarity to the entity vector.

    ``class_norms`` may hold ``np.linalg.norm`` of class vectors computed
    once for many rankings; other norms are computed here. Each score
    equals ``cosine_similarity`` of the two vectors exactly.
    """
    if not candidates:
        raise DataError(f"no candidate classes for entity {entity}")
    vector = embeddings.vector_of(entity)
    norm = np.linalg.norm(vector)
    class_norms = class_norms or {}
    scores = {}
    for class_iri in candidates:
        if class_iri not in class_vectors:
            raise DataError(f"no class vector for candidate {class_iri}")
        class_vector = class_vectors[class_iri]
        class_norm = (
            class_norms[class_iri] if class_iri in class_norms else np.linalg.norm(class_vector)
        )
        scores[class_iri] = _cosine(vector, class_vector, norm, class_norm)
    return Prediction.from_scores(entity, scores)


def fine_grained_candidates(
    hierarchy: ClassHierarchy, coarse_type: str, include_ancestor: bool = False
) -> set[str]:
    """Candidate pool below the coarse ancestor of ``coarse_type``.

    The ancestor itself is excluded by default: the task is refinement,
    not re-deriving the type the entity already has.
    """
    ancestor = hierarchy.coarse_ancestor(coarse_type)
    return hierarchy.descendants(ancestor, include_self=include_ancestor)
