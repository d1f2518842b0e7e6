"""``Vocabulary.ids`` and ``EmbeddingMatrix.lookup`` against their per-token
definitions: ``token_to_id.get``, ``in`` and ``vector_of``."""

from __future__ import annotations

import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import (
    TrainingConfig, load_embeddings, save_embeddings, train_cbow, train_fasttext,
)

NBSP_IRI = "http://x/a\u00a0b"  # U+00A0 is a character of an IRI, not a separator
CORPUS = [
    ("http://x/alpha", "http://x/p", "http://x/beta"),
    ("http://x/gamma", "http://x/p", NBSP_IRI),
    ("http://x/beta", "http://x/q", "http://x/alpha"),
    (NBSP_IRI, "http://x/q", "http://x/delta"),
]
CONFIG = TrainingConfig(dimension=5, epochs=2, n_min=2, n_max=3, bucket_count=97)
UNKNOWN = ["http://x/alphab", "http://x/a", "http://x/a\u00a0", "http://x/a b", "", "alpha"]


@cache
def matrices() -> dict:
    """A trained CBOW and fastText matrix, and the CBOW matrix as
    ``load_embeddings`` reads it back from its file."""
    vocab = build_vocabulary(CORPUS)
    cbow = train_cbow(CORPUS, vocab, CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.txt"
        save_embeddings(cbow, path)
        loaded = load_embeddings(path)
    return {"cbow": cbow, "fasttext": train_fasttext(CORPUS, vocab, CONFIG), "loaded": loaded}


def test_the_nbsp_iri_has_a_row_in_every_matrix():
    for matrix in matrices().values():
        assert NBSP_IRI in matrix.vocabulary.token_to_id
        assert "http://x/a" not in matrix.vocabulary


TOKENS = st.lists(st.sampled_from(sorted({t for s in CORPUS for t in s}) + UNKNOWN), max_size=12)


@pytest.mark.parametrize("name", ["cbow", "fasttext", "loaded"])
@settings(deadline=None)  # the first example trains the matrices
@given(tokens=TOKENS)
@example(tokens=[])
@example(tokens=[NBSP_IRI, "http://x/alphab", NBSP_IRI, "http://x/a\u00a0", "http://x/a b"])
def test_lookup_agrees_with_the_per_token_answers(name, tokens):
    matrix = matrices()[name]
    ids = matrix.vocabulary.ids(tokens)
    assert ids.dtype == np.intp and ids.shape == (len(tokens),)
    assert ids.tolist() == [matrix.vocabulary.token_to_id.get(t, -1) for t in tokens]

    known, vectors = matrix.lookup(tokens)
    assert known.dtype == bool and known.tolist() == [t in matrix.vocabulary for t in tokens]
    assert vectors.shape == (int(known.sum()), matrix.input_vectors.shape[1])
    expected = [matrix.vector_of(t) for t, has_row in zip(tokens, known.tolist()) if has_row]
    assert np.array_equal(vectors, np.array(expected).reshape(vectors.shape))


def test_fasttext_lookup_follows_the_vocabulary_and_vector_of_goes_further():
    """An out-of-vocabulary token has an n-gram vector by ``vector_of``, but
    no row: the vocabulary and ``lookup`` both refuse it."""
    matrix = matrices()["fasttext"]
    token = "http://x/alphab"
    assert matrix.vector_of(token).shape == (CONFIG.dimension,)
    known, vectors = matrix.lookup([token])
    assert token not in matrix.vocabulary and known.tolist() == [False] and vectors.shape == (0, 5)
