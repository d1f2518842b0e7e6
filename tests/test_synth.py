"""Synthetic knowledge graph generator invariants."""

from __future__ import annotations

import pytest

from kgtyper.graph import KnowledgeGraph, build_hierarchy
from kgtyper.ntriples import RDF_TYPE, parse_ntriples
from kgtyper.synth import SYNTH_CATEGORY, SYNTH_ROOT, generate_synthetic_kg


def load(result):
    with open(result.kg_path) as handle:
        return KnowledgeGraph.from_triples(parse_ntriples(handle))


def test_two_class_noiseless_shape(tmp_path):
    result = generate_synthetic_kg(
        tmp_path, num_classes=2, entities_per_class=3, predicates_per_class=2,
        noise_fraction=0.0, seed=4,
    )
    assert result.num_entities == 6
    assert len(result.classes) == 2
    # 1 category edge + 2 class edges + 6 entities x (1 type + 2 characteristic).
    assert result.num_triples == 3 + 6 * 3

    kg = load(result)
    assert kg.num_triples == result.num_triples
    for class_iri in result.classes:
        assert sum(class_iri in types for types in kg.type_assertions.values()) == 3
    # Every entity carries exactly its 2 characteristic triples + 1 type.
    for entity, types in kg.type_assertions.items():
        assert len(types) == 1
        others = [t for t in kg.triples if t.subject.value == entity
                  and t.predicate.value != RDF_TYPE]
        assert len(others) == 2


def test_noiseless_signatures_are_pure(tmp_path):
    result = generate_synthetic_kg(
        tmp_path, num_classes=3, entities_per_class=4, predicates_per_class=2,
        noise_fraction=0.0, seed=4,
    )
    kg = load(result)
    for triple in kg.triples:
        subject = triple.subject.value
        if not subject.startswith("http://example.org/entity/"):
            continue
        if triple.predicate.value == RDF_TYPE:
            continue
        # c<class>_e<k> only ever gets predicates of its own class.
        class_part = subject.split("/")[-1].split("_")[0]  # e.g. "c002"
        assert f"/p{class_part[1:]}_" in triple.predicate.value


def test_noise_adds_extra_triples(tmp_path):
    quiet = generate_synthetic_kg(
        tmp_path / "quiet", num_classes=4, entities_per_class=20,
        predicates_per_class=3, noise_fraction=0.0, seed=4,
    )
    noisy = generate_synthetic_kg(
        tmp_path / "noisy", num_classes=4, entities_per_class=20,
        predicates_per_class=3, noise_fraction=0.5, seed=4,
    )
    assert noisy.num_triples > quiet.num_triples


def test_same_seed_writes_identical_files(tmp_path):
    first = generate_synthetic_kg(
        tmp_path / "a", num_classes=3, entities_per_class=5, predicates_per_class=2,
        noise_fraction=0.3, seed=12,
    )
    second = generate_synthetic_kg(
        tmp_path / "b", num_classes=3, entities_per_class=5, predicates_per_class=2,
        noise_fraction=0.3, seed=12,
    )
    assert first.kg_path.read_bytes() == second.kg_path.read_bytes()
    assert first.gold_path.read_bytes() == second.gold_path.read_bytes()


def test_different_seeds_differ(tmp_path):
    first = generate_synthetic_kg(
        tmp_path / "a", num_classes=3, entities_per_class=5, predicates_per_class=2,
        noise_fraction=0.3, seed=1,
    )
    second = generate_synthetic_kg(
        tmp_path / "b", num_classes=3, entities_per_class=5, predicates_per_class=2,
        noise_fraction=0.3, seed=2,
    )
    assert first.kg_path.read_bytes() != second.kg_path.read_bytes()


def test_gold_file_lists_every_entity(tmp_path):
    result = generate_synthetic_kg(
        tmp_path, num_classes=2, entities_per_class=3, predicates_per_class=1,
        noise_fraction=0.0, seed=7,
    )
    rows = [line.split("\t") for line in result.gold_path.read_text().splitlines()]
    assert len(rows) == 6
    assert {c for _, c in rows} == set(result.classes)


def test_hierarchy_is_root_category_classes(tmp_path):
    result = generate_synthetic_kg(
        tmp_path, num_classes=2, entities_per_class=2, predicates_per_class=1,
        noise_fraction=0.0, seed=7,
    )
    hierarchy = build_hierarchy(load(result), roots={SYNTH_ROOT})
    for class_iri in result.classes:
        assert hierarchy.parent[class_iri] == SYNTH_CATEGORY
    assert hierarchy.parent[SYNTH_CATEGORY] == SYNTH_ROOT
    assert SYNTH_ROOT not in hierarchy.parent
    assert hierarchy.coarse_ancestor(result.classes[0]) == SYNTH_CATEGORY


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_classes=0, entities_per_class=1, predicates_per_class=1, noise_fraction=0.0),
        dict(num_classes=1, entities_per_class=0, predicates_per_class=1, noise_fraction=0.0),
        dict(num_classes=1, entities_per_class=1, predicates_per_class=0, noise_fraction=0.0),
        dict(num_classes=1, entities_per_class=1, predicates_per_class=1, noise_fraction=1.0),
        dict(num_classes=1, entities_per_class=1, predicates_per_class=1, noise_fraction=-0.1),
    ],
)
def test_invalid_arguments_rejected(tmp_path, kwargs):
    with pytest.raises(ValueError):
        generate_synthetic_kg(tmp_path, seed=1, **kwargs)
