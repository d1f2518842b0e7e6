"""Hierarchy-guided typing by cosine similarity to class vectors.

A class is represented by the arithmetic mean of its member entity
vectors. To refine an entity's known type, the hierarchy is climbed to
the coarse ancestor (the last class before a root), all classes below
that ancestor become candidates, and the candidates are scored by cosine
similarity to the entity vector: one ``ScoreMatrix`` for all the entities,
which ``ScoreMatrix.predictions`` ranks. Both read their vectors through
one ``EmbeddingMatrix.lookup``; an entity without a row is left unranked.

All of it runs on arrays, bit for bit as one entity or pair at a time:
each class sum adds its members in order, and the entities that share a
pool are scored as one block of ``u @ v / (|u| |v|)``, with one BLAS dot
per pair and each norm the square root of a row's dot with itself, as
``np.linalg.norm`` computes it.
"""

from __future__ import annotations

import logging
from itertools import chain
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .graph import ClassHierarchy
from .prediction import ScoreMatrix

logger = logging.getLogger(__name__)


def build_class_vectors(
    members_by_class: Mapping[str, Iterable[str]], embeddings
) -> dict[str, np.ndarray]:
    """Each class's mean member vector, by class in sorted order; members
    without vectors are skipped, and a class with none is left out, with a
    warning. Each sum adds its members in the order given, as a loop would."""
    classes = sorted(members_by_class)
    members = [list(members_by_class[c]) for c in classes]
    known, vectors = embeddings.lookup(chain.from_iterable(members))
    class_of = np.repeat(np.arange(len(members)), [len(group) for group in members])
    counts = np.bincount(class_of[known], minlength=len(members))
    for class_iri, group, count in zip(classes, members, counts.tolist()):
        if not count:
            logger.warning("class %s: no member has a vector; left out of every pool", class_iri)
        elif count < len(group):
            logger.warning("class %s: %d members without vectors", class_iri, len(group) - count)
    kept = np.flatnonzero(counts)
    counts, starts = counts[kept], (np.cumsum(counts) - counts)[kept]
    sums = vectors[starts]
    for j in range(1, counts.max(initial=0)):  # each class's j-th member, in the order given
        more = counts > j
        sums[more] += vectors[starts[more] + j]
    return dict(zip([classes[k] for k in kept.tolist()], sums / counts[:, None]))


def _cosines(vectors: np.ndarray, class_vectors: np.ndarray) -> np.ndarray:
    """Cosine of each row of ``vectors`` (N, dim) with each row of
    ``class_vectors`` (K, dim), as an (N, K) matrix."""
    norms, class_norms = (np.sqrt(np.matmul(m[:, None], m[:, :, None])[:, 0, 0])
                          for m in (vectors, class_vectors))
    if not (norms.all() and class_norms.all()):
        raise DataError("cosine similarity undefined for zero-norm vector")
    dots = np.matmul(vectors[:, None, None], class_vectors[None, :, :, None])[:, :, 0, 0]
    return dots / np.multiply.outer(norms, class_norms)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u, v = (np.array(x, ndmin=2, dtype=np.float64) for x in (u, v))
    return float(_cosines(u, v)[0, 0])


def similarity_rank(
    entities: Sequence[str],
    candidates: Sequence[AbstractSet[str]],
    class_vectors: Mapping[str, np.ndarray],
    embeddings,
) -> ScoreMatrix:
    """Score each entity's candidate classes by cosine similarity to its vector.

    ``candidates[i]`` holds the classes to rank for ``entities[i]``; each
    needs a class vector, and an entity with an empty set or without a row
    in ``embeddings`` is left unranked. The columns are the sorted classes of
    the pools of the other entities, and the entities that share a pool are
    scored as one matrix, each score equal to ``cosine_similarity`` of the two
    vectors exactly; a cell outside the entity's pool is 0.
    """
    known, vectors = embeddings.lookup(entities)
    row_of = np.cumsum(known) - 1  # each known entity's row of ``vectors``
    pools: dict[frozenset, list[int]] = {}  # frozenset() of a frozenset is that frozenset
    for i, (pool, has_row) in enumerate(zip(candidates, known.tolist())):
        if pool and has_row:
            pools.setdefault(frozenset(pool), []).append(i)
    classes = sorted(frozenset().union(*pools))
    for class_iri in classes:
        if class_iri not in class_vectors:
            raise DataError(f"no class vector for candidate {class_iri}")
    columns = {c: j for j, c in enumerate(classes)}
    class_matrix = np.array([class_vectors[c] for c in classes])
    values = np.zeros((len(known), len(classes)))
    ranked = np.zeros(values.shape, dtype=bool)
    for pool, rows in pools.items():
        cols = [columns[c] for c in pool]
        values[np.ix_(rows, cols)] = _cosines(vectors[row_of[rows]], class_matrix[cols])
        ranked[np.ix_(rows, cols)] = True
    return ScoreMatrix(list(entities), classes, values, ranked)


def fine_grained_candidates(hierarchy: ClassHierarchy, coarse_type: str) -> set[str]:
    """Candidate pool below the coarse ancestor of ``coarse_type``.

    The ancestor itself is excluded: the task is refinement, not
    re-deriving the type the entity already has.
    """
    ancestor = hierarchy.coarse_ancestor(coarse_type)
    return hierarchy.descendants(ancestor)
