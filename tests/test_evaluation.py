"""Dataset sampling, metrics, overlap report, and label/ranking files."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import COMPANY, LAWFIRM, ORGANISATION, PERSON, SUBCLASS, RDF_TYPE

from kgtyper.errors import DataError
from kgtyper.evaluation import (
    LabeledDataset,
    OverlapReport,
    accuracy,
    align_predictions,
    build_dataset,
    external_overlap,
    hits_at_k,
    most_specific_class,
    read_label_map,
    read_labels,
    read_rankings,
    split,
    write_labels,
    write_rankings,
)
from kgtyper.graph import KnowledgeGraph, build_hierarchy
from kgtyper.ntriples import parse_ntriples
from kgtyper.prediction import Prediction
from kgtyper.similarity import fine_grained_candidates
from kgtyper.synth import generate_synthetic_kg


def ranked(entity: str, classes: list[str]) -> Prediction:
    return Prediction(entity, list(classes))


@pytest.fixture
def ten_predictions():
    """Hand-built fixture: 7 gold at rank 1, one at rank 2, one at rank 3,
    one missing entirely."""
    gold = {f"e{i}": f"g{i}" for i in range(10)}
    predictions = [ranked(f"e{i}", [f"g{i}", "other1", "other2"]) for i in range(7)]
    predictions.append(ranked("e7", ["other1", "g7", "other2"]))
    predictions.append(ranked("e8", ["other1", "other2", "g8"]))
    predictions.append(ranked("e9", ["other1", "other2", "other3"]))
    return predictions, gold


def test_metrics_on_hand_computed_fixture(ten_predictions):
    predictions, gold = ten_predictions
    assert accuracy(predictions, gold) == 0.7
    assert hits_at_k(predictions, gold, 1) == 0.7
    assert hits_at_k(predictions, gold, 2) == 0.8
    assert hits_at_k(predictions, gold, 3) == 0.9
    assert hits_at_k(predictions, gold, 5) == 0.9  # e9's gold never appears


def test_hits_at_one_equals_accuracy(ten_predictions):
    predictions, gold = ten_predictions
    assert hits_at_k(predictions, gold, 1) == accuracy(predictions, gold)


def test_hits_monotone_in_k(ten_predictions):
    predictions, gold = ten_predictions
    values = [hits_at_k(predictions, gold, k) for k in range(1, 6)]
    assert values == sorted(values)


def test_empty_ranking_counts_as_wrong():
    gold = {"a": "g"}
    assert accuracy([Prediction("a")], gold) == 0.0
    assert hits_at_k([Prediction("a")], gold, 10) == 0.0


def test_metrics_reject_empty_prediction_list():
    with pytest.raises(DataError):
        accuracy([], {"a": "g"})
    with pytest.raises(DataError):
        hits_at_k([], {"a": "g"}, 1)


def test_metrics_reject_missing_gold():
    with pytest.raises(DataError):
        accuracy([ranked("unknown", ["g"])], {"a": "g"})


def test_hits_rejects_k_below_one(ten_predictions):
    predictions, gold = ten_predictions
    with pytest.raises(ValueError):
        hits_at_k(predictions, gold, 0)


def test_align_predictions_covers_every_gold_entity():
    gold = {"a": "g1", "b": "g2", "c": "g3"}
    aligned = align_predictions(gold, [ranked("a", ["g1"])])
    assert [p.entity for p in aligned] == ["a", "b", "c"]
    assert aligned[0].ranking == ["g1"]
    assert aligned[1].ranking == [] and aligned[2].ranking == []
    assert accuracy(aligned, gold) == pytest.approx(1 / 3)


def test_align_predictions_drops_strays_and_keeps_first_duplicate():
    gold = {"a": "g1"}
    aligned = align_predictions(
        gold, [ranked("stray", ["x"]), ranked("a", ["first"]), ranked("a", ["second"])]
    )
    assert len(aligned) == 1
    assert aligned[0].ranking == ["first"]


def test_most_specific_class_prefers_depth(lawfirm_hierarchy):
    assert most_specific_class([ORGANISATION, LAWFIRM], lawfirm_hierarchy) == LAWFIRM
    assert most_specific_class([PERSON, COMPANY], lawfirm_hierarchy) == COMPANY


def test_most_specific_class_breaks_depth_ties_lexicographically(lawfirm_hierarchy):
    # Organisation and Person are both two levels below the root.
    assert most_specific_class([PERSON, ORGANISATION], lawfirm_hierarchy) == ORGANISATION


def test_most_specific_class_ignores_unknown_classes(lawfirm_hierarchy):
    assert (
        most_specific_class(["http://example.org/Nope", LAWFIRM], lawfirm_hierarchy)
        == LAWFIRM
    )
    assert most_specific_class(["http://example.org/Nope"], lawfirm_hierarchy) is None
    assert most_specific_class([], lawfirm_hierarchy) is None


@pytest.fixture
def synth_setup(tmp_path):
    result = generate_synthetic_kg(
        tmp_path, num_classes=3, entities_per_class=5, predicates_per_class=2,
        noise_fraction=0.0, seed=1,
    )
    with open(result.kg_path) as handle:
        kg = KnowledgeGraph.from_triples(parse_ntriples(handle))
    hierarchy = build_hierarchy(kg)
    return result, kg, hierarchy


def test_build_dataset_is_balanced(synth_setup):
    result, kg, hierarchy = synth_setup
    dataset = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=4, seed=5)
    assert len(dataset.examples) == 12
    counts: dict[str, int] = {}
    for _, class_iri in dataset.examples:
        counts[class_iri] = counts.get(class_iri, 0) + 1
    assert counts == {c: 4 for c in result.classes}


def test_build_dataset_gold_always_inside_candidate_pool(synth_setup):
    _, kg, hierarchy = synth_setup
    dataset = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=5, seed=5)
    for _, gold_class in dataset.examples:
        assert gold_class in fine_grained_candidates(hierarchy, gold_class)


def test_build_dataset_keeps_qualifying_classes_on_shortfall(synth_setup, caplog):
    _, kg, hierarchy = synth_setup
    with caplog.at_level("WARNING"):
        dataset = build_dataset(kg, hierarchy, num_classes=10, entities_per_class=5, seed=5)
    assert len(dataset.classes) == 3
    assert any("requested 10 classes but only 3 qualify" in m for m in caplog.messages)


def test_build_dataset_is_deterministic(synth_setup):
    _, kg, hierarchy = synth_setup
    first = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=4, seed=9)
    second = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=4, seed=9)
    assert first.examples == second.examples


def test_build_dataset_rejects_too_large_entity_demand(synth_setup):
    _, kg, hierarchy = synth_setup
    with pytest.raises(DataError):
        build_dataset(kg, hierarchy, num_classes=3, entities_per_class=6, seed=5)


def test_build_dataset_excludes_unrefinable_root_children():
    # Person sits directly under the root, so Person-typed entities are
    # not refinable and only the LawFirm class would qualify - which is
    # below the two-class minimum.
    lines = [
        f"<{LAWFIRM}> <{SUBCLASS}> <{COMPANY}> .",
        f"<{COMPANY}> <{SUBCLASS}> <{ORGANISATION}> .",
        f"<{ORGANISATION}> <{SUBCLASS}> <http://dbpedia.org/ontology/Agent> .",
        f"<{PERSON}> <{SUBCLASS}> <http://dbpedia.org/ontology/Agent> .",
    ]
    for i in range(3):
        lines.append(f"<http://example.org/f{i}> <{RDF_TYPE}> <{LAWFIRM}> .")
        lines.append(f"<http://example.org/p{i}> <{RDF_TYPE}> <{PERSON}> .")
    kg = KnowledgeGraph.from_triples(parse_ntriples(lines))
    hierarchy = build_hierarchy(kg)
    with pytest.raises(DataError) as excinfo:
        build_dataset(kg, hierarchy, num_classes=2, entities_per_class=2, seed=1)
    assert "only 1 classes" in str(excinfo.value)


def test_build_dataset_validates_arguments(synth_setup):
    _, kg, hierarchy = synth_setup
    with pytest.raises(ValueError):
        build_dataset(kg, hierarchy, num_classes=1, entities_per_class=2, seed=1)
    with pytest.raises(ValueError):
        build_dataset(kg, hierarchy, num_classes=2, entities_per_class=0, seed=1)


def test_build_dataset_requires_type_assertions(lawfirm_hierarchy):
    kg = KnowledgeGraph.from_triples(
        parse_ntriples([f"<http://a> <http://p> <http://b> ."])
    )
    with pytest.raises(DataError):
        build_dataset(kg, lawfirm_hierarchy, num_classes=2, entities_per_class=1, seed=1)


def test_split_is_stratified_with_floor(synth_setup):
    _, kg, hierarchy = synth_setup
    dataset = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=5, seed=5)
    out = split(dataset, train_fraction=0.8, seed=2)
    assert len(out.train_ids) == 12  # floor(0.8 * 5) = 4 per class
    assert len(out.test_ids) == 3
    train_counts: dict[str, int] = {}
    for entity, class_iri in out.train_examples():
        train_counts[class_iri] = train_counts.get(class_iri, 0) + 1
    assert set(train_counts.values()) == {4}


def test_split_indices_are_disjoint_and_covering(synth_setup):
    _, kg, hierarchy = synth_setup
    dataset = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=4, seed=5)
    out = split(dataset, train_fraction=0.5, seed=2)
    train, test = set(out.train_ids), set(out.test_ids)
    assert not train & test
    assert train | test == set(range(len(dataset.examples)))


def test_split_same_seed_is_identical(synth_setup):
    _, kg, hierarchy = synth_setup
    dataset = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=5, seed=5)
    first = split(dataset, train_fraction=0.8, seed=7)
    second = split(dataset, train_fraction=0.8, seed=7)
    assert first.train_ids == second.train_ids
    assert first.test_ids == second.test_ids


def test_split_rejects_singleton_class():
    dataset = LabeledDataset([("a", "c1"), ("b", "c1"), ("lone", "c2")])
    with pytest.raises(DataError):
        split(dataset, train_fraction=0.5, seed=1)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
def test_split_rejects_degenerate_fraction(fraction):
    dataset = LabeledDataset([("a", "c1"), ("b", "c1")])
    with pytest.raises(ValueError):
        split(dataset, train_fraction=fraction, seed=1)


def test_overlap_report_percentages():
    report = OverlapReport(our_entities=200, intersection=50, matching_types=40)
    assert report.intersection_percentage == 25.0
    assert report.matching_percentage == 80.0


def test_overlap_report_rejects_inconsistent_counts():
    with pytest.raises(DataError):
        OverlapReport(our_entities=10, intersection=5, matching_types=6)
    with pytest.raises(DataError):
        OverlapReport(our_entities=4, intersection=5, matching_types=1)


def test_external_overlap_counts():
    gold = {"a": "C1", "b": "C2", "c": "C3", "d": "C1"}
    external = {"a": "C1", "b": "CX", "z": "C9"}
    report = external_overlap(gold, external)
    assert report.our_entities == 4
    assert report.intersection == 2
    assert report.matching_types == 1


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.tsv"
    examples = [("http://e/1", "http://c/A"), ("http://e/2", "http://c/B")]
    assert write_labels(path, examples) == 2
    assert read_labels(path) == examples


def test_read_label_map_first_occurrence_wins(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("e1\tfirst\ne1\tsecond\ne2\tonly\n")
    assert read_label_map(path) == {"e1": "first", "e2": "only"}


def test_read_labels_reports_bad_line(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("e1\tc1\njust-one-column\n")
    with pytest.raises(DataError) as excinfo:
        read_labels(path)
    assert "line 2" in str(excinfo.value)


def test_rankings_round_trip(tmp_path):
    path = tmp_path / "rankings.tsv"
    predictions = [ranked("e1", ["a", "b", "c"]), ranked("e2", ["c", "a"])]
    write_rankings(path, predictions)
    loaded = read_rankings(path)
    assert [(p.entity, p.ranking) for p in loaded] == [
        ("e1", ["a", "b", "c"]),
        ("e2", ["c", "a"]),
    ]


def test_write_rankings_truncates_to_top_k(tmp_path):
    path = tmp_path / "rankings.tsv"
    write_rankings(path, [ranked("e1", ["a", "b", "c"])], top_k=2)
    assert read_rankings(path)[0].ranking == ["a", "b"]


def test_empty_ranking_writes_no_rows(tmp_path):
    path = tmp_path / "rankings.tsv"
    write_rankings(path, [Prediction("empty"), ranked("e1", ["a"])])
    loaded = read_rankings(path)
    assert [p.entity for p in loaded] == ["e1"]


def test_dataset_gold_map(synth_setup):
    _, kg, hierarchy = synth_setup
    dataset = build_dataset(kg, hierarchy, num_classes=3, entities_per_class=4, seed=5)
    gold = dict(dataset.examples)
    assert len(gold) == 12  # one gold class per entity
    for entity, class_iri in gold.items():
        assert class_iri in kg.type_assertions[entity]
