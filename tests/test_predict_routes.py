"""Both prediction routes on arrays against their one-entity-at-a-time
definitions, and the tracer's view of the predict stage."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    embedding_matrix,
    matrix_bits,
    reference_bits,
    reference_cnn_scores,
    reference_similarity_scores,
    row_scores,
)

from kgtyper.cnn import CnnConfig, CnnModel, train_cnn
from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import TrainingConfig, train_fasttext
from kgtyper.errors import DataError
from kgtyper.graph import OWL_THING, KnowledgeGraph, build_hierarchy
from kgtyper.pipeline import cnn_scores, similarity_scores
from kgtyper.similarity import build_class_vectors, similarity_rank

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# Three coarse classes under the root. A's pool holds a class at depth 3;
# C has no subclass, so an entity typed C has an empty pool.
SUBCLASS_EDGES = [
    ("A", OWL_THING), ("B", OWL_THING), ("C", OWL_THING),
    ("A1", "A"), ("A2", "A"), ("A3", "A"), ("A4", "A"), ("A2x", "A2"),
    ("B1", "B"), ("B2", "B"), ("B3", "B"),
]


# From 16 on, a BLAS matrix product no longer sums a dot product in the
# order that one 1-D dot does, so a route that used one would fail here.
DIMENSIONS = (1, 2, 5, 16, 33, 100)


def random_vector(rng, dim: int) -> np.ndarray:
    return rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0)


def typing_problem(seed: int, zero: str | None = None):
    """Test entities, training examples, graph, hierarchy and vectors.

    Among the classes, A4 repeats A1's members (a duplicate class vector),
    B3's members are twice B1's (a parallel one: an exact tie), and no
    member of B2 has a vector. Among the test entities, some have no vector,
    some no asserted type, some a type whose pool is empty, and some a
    coarse type (A) rather than a fine one. ``zero`` puts a zero-norm vector
    in: ``"class-in-pool"`` makes A3's mean zero, ``"class-outside-pools"``
    makes B1 and B3 zero with no test entity under B, ``"entity-with-pool"``
    and ``"entity-without-pool"`` give a test entity a zero vector.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.choice(DIMENSIONS))
    vectors: dict[str, np.ndarray] = {}
    train: list[tuple[str, str]] = []
    for class_iri in ["A1", "A2", "A3", "A2x", "B1"]:
        for k in range(int(rng.integers(1, 5))):
            member = f"{class_iri}_m{k}"
            vectors[member] = random_vector(rng, dim)
            train.append((member, class_iri))
        train.append((f"{class_iri}_novector", class_iri))
    train += [(member, "A4") for member, c in list(train) if c == "A1"]
    for member, c in list(train):
        if c == "B1" and member in vectors:
            vectors[f"{member}_x2"] = 2.0 * vectors[member]
            train.append((f"{member}_x2", "B3"))
    train += [("B2_ghost0", "B2"), ("B2_ghost1", "B2")]
    if zero == "class-in-pool":
        train = [(m, c) for m, c in train if c != "A3"]
        vectors["A3_pos"] = random_vector(rng, dim)
        vectors["A3_neg"] = -vectors["A3_pos"]
        train += [("A3_pos", "A3"), ("A3_neg", "A3")]
    if zero == "class-outside-pools":
        for member, c in train:
            if c in ("B1", "B3") and member in vectors:
                vectors[member] = np.zeros(dim)

    types = {}
    entities = []
    asserted = ["A1", "A2", "A3", "A4", "A2x", "A", "C", None]
    if zero != "class-outside-pools":
        asserted += ["B1", "B2", "B3", "B"]
    for k in range(int(rng.integers(5, 30))):
        entity = f"t{k}"
        entities.append(entity)
        cls = asserted[int(rng.integers(len(asserted)))]
        if cls is not None:
            types[entity] = {cls}
        if rng.random() < 0.85:
            vectors[entity] = random_vector(rng, dim)
    entities += ["typed_novector", "vector_untyped", "deep"]
    types["typed_novector"] = {"A1"}
    types["deep"] = {"A2x"}
    for entity in ("vector_untyped", "deep"):
        vectors[entity] = random_vector(rng, dim)
    if zero == "entity-with-pool":
        types["zero"] = {"A1"}
    if zero in ("entity-with-pool", "entity-without-pool"):
        entities.append("zero")
        vectors["zero"] = np.zeros(dim)
    kg = KnowledgeGraph(type_assertions=types, subclass_edges=SUBCLASS_EDGES)
    hierarchy = build_hierarchy(kg, roots={OWL_THING})
    return entities, train, kg, hierarchy, embedding_matrix(vectors)


@pytest.mark.parametrize("seed", range(30))
def test_similarity_route_matches_per_entity_reference(seed):
    problem = typing_problem(seed)
    matrix = similarity_scores(*problem)
    assert matrix.entities == problem[0]
    assert matrix.classes == sorted(matrix.classes)
    assert matrix_bits(matrix) == reference_bits(problem[0], reference_similarity_scores(*problem))
    predictions = matrix.predictions()
    by_entity = {p.entity: p for p in predictions}
    assert not by_entity["typed_novector"].ranking
    assert not by_entity["vector_untyped"].ranking
    for prediction, scores in zip(predictions, row_scores(matrix)):
        assert "B2" not in prediction.ranking  # no member vector: in no pool
        assert not ({"A1", "A2"} <= set(prediction.ranking) and "B1" in prediction.ranking)
        if {"A1", "A4"} <= set(prediction.ranking):  # duplicate class vectors tie
            assert scores["A1"] == scores["A4"]
            assert prediction.ranking.index("A1") < prediction.ranking.index("A4")
        if {"B1", "B3"} <= set(prediction.ranking):  # parallel ones too
            assert scores["B1"] == scores["B3"]


@pytest.mark.parametrize(
    "zero,raises",
    [
        ("class-in-pool", True),
        ("entity-with-pool", True),
        ("class-outside-pools", False),
        ("entity-without-pool", False),
    ],
)
@pytest.mark.parametrize("seed", range(5))
def test_zero_norm_error_exactly_when_in_some_pool(seed, zero, raises):
    problem = typing_problem(seed, zero)
    if not raises:
        reference = reference_similarity_scores(*problem)
        assert matrix_bits(similarity_scores(*problem)) == reference_bits(problem[0], reference)
        return
    with pytest.raises(DataError, match="zero-norm") as expected:
        reference_similarity_scores(*problem)
    with pytest.raises(DataError) as got:
        similarity_scores(*problem)
    assert str(got.value) == str(expected.value)


def test_class_without_member_vectors_leaves_the_others_ranked(caplog):
    """A class none of whose training members has a vector is left out of
    every pool, with one warning, instead of stopping every ranking."""
    entities, train, kg, hierarchy, vectors = typing_problem(3)
    train += [("A1_ghost", "A1")]
    with caplog.at_level(logging.WARNING, logger="kgtyper.similarity"):
        predictions = similarity_scores(entities, train, kg, hierarchy, vectors).predictions()
    left_out = [r.getMessage() for r in caplog.records if "no member has a vector" in r.getMessage()]
    assert left_out == ["class B2: no member has a vector; left out of every pool"]
    ranked = [p for p in predictions if p.ranking]
    assert ranked and all("B2" not in p.ranking for p in ranked)


def random_model(rng, classes: list[str], dim: int) -> CnnModel:
    """A model whose classes are not in sorted order, two of which always tie."""
    config = CnnConfig(filters_per_width=int(rng.integers(1, 9)), hidden_units=int(rng.integers(1, 9)))
    params = CnnModel.initialize(config, classes, dim, rng).params
    params["out_w"][:, 1] = params["out_w"][:, 0]
    params["out_b"] = rng.normal(size=len(classes)) * 0.1
    params["out_b"][1] = params["out_b"][0]
    return CnnModel(config, classes[::-1], params)


@pytest.mark.parametrize("seed", range(20))
def test_cnn_route_matches_one_row_forward(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice(DIMENSIONS))
    classes = [f"c{k}" for k in range(int(rng.integers(2, 9)))]
    model = random_model(rng, classes, dim)
    entities = [f"e{k}" for k in range(int(rng.integers(1, 40)))]
    vectors = embedding_matrix({e: random_vector(rng, dim) for e in entities if rng.random() < 0.9})
    with np.errstate(over="ignore"):  # vectors of 1e3 saturate the sigmoid to exact ties at 0
        matrix = cnn_scores(entities, model, vectors)
        reference = reference_cnn_scores(entities, model, vectors)
    assert matrix.classes == model.classes  # not in sorted order
    assert matrix_bits(matrix) == reference_bits(entities, reference)
    assert any(p.ranking for p in matrix.predictions())


def test_cnn_route_without_any_vector_ranks_nothing():
    model = random_model(np.random.default_rng(0), ["a", "b"], 3)
    matrix = cnn_scores(["x", "y"], model, embedding_matrix({}))
    assert [p.ranking for p in matrix.predictions()] == [[], []]


def test_an_entity_outside_a_fasttext_vocabulary_is_unranked_on_both_routes():
    """``vector_of`` gives the entity an n-gram vector, but it has no row in
    the model, nor in the ``vectors.txt`` written from it, so neither route
    ranks it; the entities with a row are ranked."""
    names = ["alpha", "alpine", "bravo", "brave"]
    corpus = [(f"http://x/{n}", "http://x/p", f"http://x/v{k % 2}") for k, n in enumerate(names)]
    config = TrainingConfig(dimension=4, epochs=2, n_min=2, n_max=3, bucket_count=97)
    embeddings = train_fasttext(corpus, build_vocabulary(corpus), config)
    oov = "http://x/alphab"
    assert oov not in embeddings.vocabulary and embeddings.vector_of(oov).shape == (4,)
    members = {"c1": ["http://x/alpine"], "c2": ["http://x/brave"]}
    train = [(entity, c) for c, group in members.items() for entity in group]
    model = train_cnn(train, embeddings, CnnConfig(filters_per_width=3, hidden_units=3, epochs=2))
    class_vectors = build_class_vectors(members, embeddings)
    entities = [oov, "http://x/alpha", "http://x/bravo"]
    routes = {
        "cnn": cnn_scores(entities, model, embeddings),
        "similarity": similarity_rank(entities, [{"c1", "c2"}] * 3, class_vectors, embeddings),
    }
    for route, matrix in routes.items():
        assert [bool(p.ranking) for p in matrix.predictions()] == [False, True, True], route


def test_tracer_sees_every_predict_stage_layer(tmp_path):
    """A traced benchmark pipeline times the class means, the similarity
    ranking and the classifier's predict: each reads above 0."""
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    synth = workloads.generate_graph("acceptance", tmp_path / "graph", 1)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "acceptance", "--seed", "1",
         "--kg", str(synth.kg_path), "--out", str(tmp_path / "run"), "--spans", str(spans)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    layers = tracing.layer_metrics(json.loads(spans.read_text()))
    for name in ("similarity.rank_ms", "cnn.predict_ms", "similarity.class_vectors_s"):
        assert layers[name] > 0, name
