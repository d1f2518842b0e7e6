"""Class vectors, cosine ranking, and hierarchy-guided candidate pools."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from conftest import COMPANY, LAWFIRM, PERSON, embedding_matrix, row_scores

from kgtyper.errors import DataError
from kgtyper.similarity import (
    build_class_vectors,
    cosine_similarity,
    fine_grained_candidates,
    similarity_rank,
)


def test_class_vector_is_member_mean():
    vectors = embedding_matrix({"e1": [1.0, 0.0], "e2": [3.0, 2.0], "e3": [2.0, 4.0]})
    result = build_class_vectors({"C": ["e1", "e2", "e3"]}, vectors)
    assert np.allclose(result["C"], [2.0, 2.0])


def test_class_vector_skips_members_without_vectors(caplog):
    vectors = embedding_matrix({"e1": [2.0, 0.0], "e2": [4.0, 2.0]})
    with caplog.at_level(logging.WARNING, logger="kgtyper.similarity"):
        result = build_class_vectors({"C": ["e1", "ghost", "e2"]}, vectors)
    assert np.allclose(result["C"], [3.0, 1.0])  # mean over the two resolved members
    assert [r.getMessage() for r in caplog.records] == ["class C: 1 members without vectors"]


def test_class_with_no_resolved_members_is_left_out_with_a_warning(caplog):
    vectors = embedding_matrix({"e1": [2.0, 0.0]})
    with caplog.at_level(logging.WARNING, logger="kgtyper.similarity"):
        result = build_class_vectors(
            {"http://example.org/C": ["ghost1", "ghost2"], "D": ["e1"]}, vectors
        )
    assert list(result) == ["D"]
    assert [r.getMessage() for r in caplog.records] == [
        "class http://example.org/C: no member has a vector; left out of every pool"
    ]


def test_build_class_vectors_covers_every_class():
    vectors = embedding_matrix({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    result = build_class_vectors({"C1": ["a"], "C2": ["b"], "C3": ["a", "b"]}, vectors)
    assert set(result) == {"C1", "C2", "C3"}
    assert np.allclose(result["C3"], [0.5, 0.5])


def test_cosine_of_parallel_vectors_is_one():
    assert cosine_similarity(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)


def test_cosine_of_orthogonal_vectors_is_zero():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)


def test_cosine_of_opposite_vectors_is_minus_one():
    assert cosine_similarity(np.array([1.0, 1.0]), np.array([-2.0, -2.0])) == pytest.approx(-1.0)


def test_cosine_hand_computed_value():
    u = np.array([1.0, 2.0, 2.0])  # norm 3
    v = np.array([2.0, 0.0, 0.0])  # norm 2
    assert cosine_similarity(u, v) == pytest.approx(2.0 / 6.0)


def test_cosine_rejects_zero_vector():
    with pytest.raises(DataError):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_similarity_rank_orders_by_cosine():
    embeddings = embedding_matrix({"e": [1.0, 0.1]})
    class_vectors = {
        "close": np.array([1.0, 0.0]),
        "far": np.array([0.0, 1.0]),
        "middling": np.array([1.0, 1.0]),
    }
    matrix = similarity_rank(["e"], [set(class_vectors)], class_vectors, embeddings)
    [prediction] = matrix.predictions()
    assert prediction.ranking == ["close", "middling", "far"]
    assert row_scores(matrix)[0]["close"] == pytest.approx(
        cosine_similarity(np.array([1.0, 0.1]), np.array([1.0, 0.0]))
    )


def test_ranking_is_invariant_to_entity_vector_scale():
    class_vectors = {
        "c1": np.array([3.0, 1.0]),
        "c2": np.array([1.0, 3.0]),
        "c3": np.array([-1.0, 2.0]),
    }
    vectors = embedding_matrix({"small": [0.02, 0.01], "large": [200.0, 100.0]})
    matrix = similarity_rank(["small", "large"], [set(class_vectors)] * 2, class_vectors, vectors)
    small, large = matrix.predictions()
    assert small.ranking == large.ranking
    small_scores, large_scores = row_scores(matrix)
    for c in class_vectors:
        assert small_scores[c] == pytest.approx(large_scores[c])


def test_equal_scores_break_ties_lexicographically():
    embeddings = embedding_matrix({"e": [1.0, 1.0]})
    class_vectors = {
        "zeta": np.array([2.0, 2.0]),
        "alpha": np.array([5.0, 5.0]),  # same cosine as zeta
    }
    matrix = similarity_rank(["e"], [{"zeta", "alpha"}], class_vectors, embeddings)
    assert [p.ranking for p in matrix.predictions()] == [["alpha", "zeta"]]


def test_empty_candidate_set_leaves_the_entity_unranked():
    """An entity with no candidate gets an unranked row, and its vector,
    which it need not have, is never looked up."""
    class_vectors = {"C": np.array([1.0, 0.0]), "D": np.array([0.0, 1.0])}
    vectors = embedding_matrix({"e": [1.0, 0.5]})
    matrix = similarity_rank(["novector", "e"], [set(), {"D"}], class_vectors, vectors)
    assert matrix.classes == ["D"]
    assert matrix.ranked.tolist() == [[False], [True]]
    assert [p.ranking for p in matrix.predictions()] == [[], ["D"]]
    nothing = similarity_rank(["e"], [set()], {}, vectors)
    assert nothing.classes == [] and nothing.values.shape == (1, 0)
    assert [p.ranking for p in nothing.predictions()] == [[]]


def test_candidate_without_class_vector_rejected():
    embeddings = embedding_matrix({"e": [1.0, 0.0]})
    with pytest.raises(DataError):
        similarity_rank(["e"], [{"missing"}], {}, embeddings)


def test_lawfirm_candidates_are_company_and_lawfirm(lawfirm_hierarchy):
    # LawFirm < Company < Organisation < Agent(root): the coarse ancestor
    # is Organisation and everything strictly below it is a candidate.
    assert fine_grained_candidates(lawfirm_hierarchy, LAWFIRM) == {COMPANY, LAWFIRM}


def test_candidates_from_mid_hierarchy_class(lawfirm_hierarchy):
    assert fine_grained_candidates(lawfirm_hierarchy, COMPANY) == {COMPANY, LAWFIRM}


def test_leaf_child_of_root_has_no_candidates(lawfirm_hierarchy):
    # Person sits directly under the root, so it is its own coarse
    # ancestor and nothing lies strictly below it.
    assert fine_grained_candidates(lawfirm_hierarchy, PERSON) == set()


def test_unknown_class_rejected(lawfirm_hierarchy):
    with pytest.raises(DataError):
        fine_grained_candidates(lawfirm_hierarchy, "http://example.org/Nope")


def test_scores_equal_cosine_similarity_exactly():
    rng = np.random.default_rng(12)
    class_vectors = {
        f"C{k}": rng.normal(size=33) * 10.0 ** int(rng.integers(-3, 4)) for k in range(12)
    }
    entities = [f"e{i}" for i in range(20)]
    embeddings = embedding_matrix({entity: rng.normal(size=33) for entity in entities})
    matrix = similarity_rank(
        entities, [set(class_vectors)] * len(entities), class_vectors, embeddings
    )
    assert matrix.entities == entities
    for entity, scores in zip(entities, row_scores(matrix)):
        vector = embeddings.vector_of(entity)
        # The definition, written out: one dot product over the product of norms.
        expected = {
            c: float(vector @ v / (np.linalg.norm(vector) * np.linalg.norm(v)))
            for c, v in class_vectors.items()
        }
        assert expected == {c: cosine_similarity(vector, v) for c, v in class_vectors.items()}
        assert scores == expected


def test_zero_norm_rejected_with_precomputed_norms():
    class_vectors = {"C": np.zeros(2), "D": np.ones(2)}
    vectors = embedding_matrix({"e": [1.0, 0.0], "zero": [0.0, 0.0]})
    with pytest.raises(DataError, match="zero-norm"):
        similarity_rank(["e"], [{"C", "D"}], class_vectors, vectors)
    with pytest.raises(DataError, match="zero-norm"):
        similarity_rank(["e", "zero"], [{"D"}, {"D"}], class_vectors, vectors)
    # A zero class vector outside every pool is never scored.
    matrix = similarity_rank(["e"], [{"D"}], class_vectors, vectors)
    assert [p.ranking for p in matrix.predictions()] == [["D"]]
