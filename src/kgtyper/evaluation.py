"""Dataset construction, metrics, and external comparison.

Gold labels are the most specific asserted class of each entity: the
deepest class by parent-chain length among its type assertions, ties
broken lexicographically. Only refinable classes qualify for dataset
construction, i.e. classes strictly below their coarse ancestor, so the
gold class always sits inside the similarity method's candidate pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .graph import ClassHierarchy, KnowledgeGraph
from .prediction import Prediction

logger = logging.getLogger(__name__)


@dataclass
class LabeledDataset:
    """(entity, gold class) pairs with optional train/test index splits."""

    examples: list[tuple[str, str]]
    classes: set[str] = field(default_factory=set)
    train_ids: list[int] = field(default_factory=list)
    test_ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.classes:
            self.classes = {c for _, c in self.examples}

    def train_examples(self) -> list[tuple[str, str]]:
        return [self.examples[i] for i in self.train_ids]

    def test_examples(self) -> list[tuple[str, str]]:
        return [self.examples[i] for i in self.test_ids]


def most_specific_class(
    asserted: Iterable[str], hierarchy: ClassHierarchy
) -> str | None:
    """Deepest hierarchy-known asserted class; lexicographic tie-break."""
    known = [c for c in asserted if c in hierarchy]
    if not known:
        return None
    return min(known, key=lambda c: (-hierarchy.depth(c), c))


def check_sample_sizes(num_classes: int, entities_per_class: int) -> None:
    if entities_per_class < 1:
        raise ValueError("entities_per_class must be >= 1")
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")


def check_train_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")


def build_dataset(
    kg: KnowledgeGraph,
    hierarchy: ClassHierarchy,
    num_classes: int,
    entities_per_class: int,
    seed: int,
) -> LabeledDataset:
    """Sample a balanced dataset of refinable fine-grained classes.

    Classes are ranked by how many entities have them as most specific
    class (descending, lexicographic ties); the top ``num_classes`` with
    at least ``entities_per_class`` eligible entities are kept and their
    entities sampled with the seeded generator. Requesting more classes
    than qualify keeps the qualifying ones and logs the shortfall.
    """
    check_sample_sizes(num_classes, entities_per_class)
    if not kg.type_assertions:
        raise DataError("knowledge graph has no type assertions")

    eligible: dict[str, list[str]] = {}
    for entity, types in kg.type_assertions.items():
        gold = most_specific_class(types, hierarchy)
        if gold is None or gold in hierarchy.roots:
            continue
        if hierarchy.coarse_ancestor(gold) == gold:
            continue  # not refinable: the class is its own coarse ancestor
        eligible.setdefault(gold, []).append(entity)

    qualifying = sorted(
        (c for c, members in eligible.items() if len(members) >= entities_per_class),
        key=lambda c: (-len(eligible[c]), c),
    )
    if len(qualifying) < 2:
        raise DataError(
            f"only {len(qualifying)} classes have >= {entities_per_class} "
            "eligible entities; need at least 2"
        )
    if len(qualifying) < num_classes:
        logger.warning(
            "requested %d classes but only %d qualify", num_classes, len(qualifying)
        )
    selected = qualifying[:num_classes]

    rng = np.random.default_rng(seed)
    examples: list[tuple[str, str]] = []
    for class_iri in selected:
        members = sorted(eligible[class_iri])
        chosen = rng.choice(len(members), size=entities_per_class, replace=False)
        examples.extend((members[i], class_iri) for i in sorted(chosen))
    return LabeledDataset(
        examples,
        classes=set(selected),
    )


def split(dataset: LabeledDataset, train_fraction: float, seed: int) -> LabeledDataset:
    """Stratified split: per class, floor(fraction x size) to train.

    Returns a new dataset sharing the examples, with disjoint covering
    index sets. Every class needs at least 2 examples to stratify.
    """
    check_train_fraction(train_fraction)
    by_class: dict[str, list[int]] = {}
    for i, (_, class_iri) in enumerate(dataset.examples):
        by_class.setdefault(class_iri, []).append(i)
    for class_iri, ids in by_class.items():
        if len(ids) < 2:
            raise DataError(f"class {class_iri} has {len(ids)} example(s); cannot stratify")

    rng = np.random.default_rng(seed)
    train_ids: list[int] = []
    test_ids: list[int] = []
    for class_iri in sorted(by_class):
        ids = by_class[class_iri]
        order = rng.permutation(len(ids))
        cut = int(np.floor(train_fraction * len(ids)))
        train_ids.extend(ids[k] for k in order[:cut])
        test_ids.extend(ids[k] for k in order[cut:])
    return LabeledDataset(
        dataset.examples,
        classes=set(dataset.classes),
        train_ids=sorted(train_ids),
        test_ids=sorted(test_ids),
    )


def align_predictions(
    gold: Mapping[str, str], predictions: Sequence[Prediction]
) -> list[Prediction]:
    """One prediction per gold entity, in sorted entity order.

    Entities without a prediction get an empty ranking so they count as
    wrong instead of silently shrinking the metric denominator.
    """
    by_entity: dict[str, Prediction] = {}
    for prediction in predictions:
        if prediction.entity in gold and prediction.entity not in by_entity:
            by_entity[prediction.entity] = prediction
    return [by_entity.get(entity, Prediction(entity)) for entity in sorted(gold)]


def accuracy(predictions: Sequence[Prediction], gold: Mapping[str, str]) -> float:
    """Fraction of predictions whose top-ranked class is the gold class: Hits@1."""
    return hits_at_k(predictions, gold, 1)


def hits_at_k(
    predictions: Sequence[Prediction], gold: Mapping[str, str], k: int
) -> float:
    """Fraction of predictions with the gold class in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not predictions:
        raise DataError("cannot compute hits@k over zero predictions")
    hits = 0
    for prediction in predictions:
        if prediction.entity not in gold:
            raise DataError(f"no gold label for entity {prediction.entity}")
        if gold[prediction.entity] in prediction.ranking[:k]:
            hits += 1
    return hits / len(predictions)


@dataclass
class OverlapReport:
    """Entity and agreement counts against an external prediction file."""

    our_entities: int
    intersection: int
    matching_types: int

    def __post_init__(self):
        if not 0 <= self.matching_types <= self.intersection <= self.our_entities:
            raise DataError(
                "overlap counts must satisfy matching <= intersection <= total"
            )

    @property
    def intersection_percentage(self) -> float:
        return 100.0 * self.intersection / self.our_entities if self.our_entities else 0.0

    @property
    def matching_percentage(self) -> float:
        return 100.0 * self.matching_types / self.intersection if self.intersection else 0.0


def external_overlap(
    gold: Mapping[str, str], external: Mapping[str, str]
) -> OverlapReport:
    """Count entities shared with an external prediction map and the type agreement.

    Counts only; the datasets differ too much for a direct accuracy
    comparison.
    """
    intersection = 0
    matching = 0
    for entity, gold_class in gold.items():
        if entity in external:
            intersection += 1
            if external[entity] == gold_class:
                matching += 1
    return OverlapReport(len(gold), intersection, matching)


def write_labels(path, examples: Iterable[tuple[str, str]]) -> int:
    """Two-column TSV: entity IRI, class IRI; one example per line."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for entity, class_iri in examples:
            handle.write(f"{entity}\t{class_iri}\n")
            count += 1
    return count


def read_labels(path) -> list[tuple[str, str]]:
    """Read a two-column TSV; extra columns are ignored."""
    out: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 2 or not fields[0] or not fields[1]:
                raise DataError(f"{path}: line {line_number}: expected 2 tab-separated columns")
            out.append((fields[0], fields[1]))
    return out


def read_label_map(path) -> dict[str, str]:
    """Entity -> class map from a TSV; the first occurrence of an entity wins."""
    mapping: dict[str, str] = {}
    for entity, class_iri in read_labels(path):
        mapping.setdefault(entity, class_iri)
    return mapping


def write_rankings(path, predictions: Iterable[Prediction], top_k: int | None = None) -> None:
    """Persist rankings as repeated (entity, class) rows in rank order."""
    with open(path, "w", encoding="utf-8") as handle:
        for prediction in predictions:
            ranking = prediction.ranking[:top_k]
            if ranking:
                head = f"{prediction.entity}\t"
                handle.write(head + f"\n{head}".join(ranking) + "\n")


def read_rankings(path) -> list[Prediction]:
    """Rebuild predictions from a ranking TSV; row order is the rank order."""
    rankings: dict[str, list[str]] = {}
    for entity, class_iri in read_labels(path):
        rankings.setdefault(entity, []).append(class_iri)
    return [Prediction(entity, ranking) for entity, ranking in rankings.items()]
