"""Subword trainer: n-gram extraction, hashing, composition, gradients."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import block_of, check_block_gradients

import kgtyper
from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import (
    NGramConfig,
    NGramTable,
    TokenNotFoundError,
    TrainingConfig,
    train_fasttext,
)
from kgtyper.embeddings.base import init_input_vectors
from kgtyper.embeddings.cbow import encode_training_corpus, train_negative_sampling
from kgtyper.embeddings.fasttext import fnv1a_32, ngrams_of, subword_compositions
from kgtyper.errors import DataError


def reference_fnv1a_32(text: str) -> int:
    """Independent FNV-1a reimplementation for cross-checking."""
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x01000193) % 2**32
    return value


def reference_ngrams(token: str, n_min: int, n_max: int) -> list[str]:
    wrapped = f"<{token}>"
    grams = []
    for n in range(n_min, n_max + 1):
        for i in range(len(wrapped) - n + 1):
            grams.append(wrapped[i : i + n])
    return grams


def tiny_corpus(sentences: int, alphabet: int, seed: int):
    rng = np.random.default_rng(seed)
    tokens = [f"tok{i}" for i in range(alphabet)]
    return [
        tuple(tokens[j] for j in rng.integers(0, alphabet, size=3))
        for _ in range(sentences)
    ]


SMALL_NGRAMS = NGramConfig(n_min=2, n_max=3, bucket_count=101)


def test_trigrams_of_three_letter_token():
    assert ngrams_of("abc", 3, 3) == ["<ab", "abc", "bc>"]


def test_ngram_range_covers_all_lengths():
    assert ngrams_of("ab", 2, 3) == ["<a", "ab", "b>", "<ab", "ab>"]


def test_duplicate_ngrams_are_kept():
    grams = ngrams_of("aaa", 2, 2)
    assert grams == ["<a", "aa", "aa", "a>"]


def test_too_short_token_has_no_ngrams():
    assert ngrams_of("a", 4, 6) == []


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", 0x811C9DC5),  # offset basis: published FNV-1a test vector
        ("a", 0xE40C292C),
        ("foobar", 0xBF9CF968),
    ],
)
def test_fnv1a_published_vectors(text, expected):
    assert fnv1a_32(text) == expected


def test_fnv1a_matches_independent_reimplementation():
    for text in ["", "a", "kg", "http://dbpedia.org/resource/Berlin", "日本語"]:
        assert fnv1a_32(text) == reference_fnv1a_32(text)


def trained_model(seed: int = 1, epochs: int = 2):
    corpus = tiny_corpus(60, 6, seed=5)
    vocab = build_vocabulary(corpus)
    config = TrainingConfig(dimension=4, epochs=epochs, seed=seed)
    return corpus, vocab, train_fasttext(corpus, vocab, config, SMALL_NGRAMS)


def test_oov_vector_is_bucket_mean_recomputed_independently():
    _, _, model = trained_model()
    oov = "tok999"
    grams = reference_ngrams(oov, SMALL_NGRAMS.n_min, SMALL_NGRAMS.n_max)
    indices = [reference_fnv1a_32(g) % SMALL_NGRAMS.bucket_count for g in grams]
    expected = model.ngrams.vectors(indices).mean(axis=0)
    assert oov not in model.vocabulary
    assert np.allclose(model.vector_of(oov), expected, rtol=0, atol=1e-12)


def test_in_vocabulary_vector_is_word_plus_bucket_mean():
    _, vocab, model = trained_model()
    token = vocab.token_of(0)
    grams = reference_ngrams(token, SMALL_NGRAMS.n_min, SMALL_NGRAMS.n_max)
    indices = [reference_fnv1a_32(g) % SMALL_NGRAMS.bucket_count for g in grams]
    word = model.matrix.input_vectors[0]
    expected = (word + model.ngrams.vectors(indices).sum(axis=0)) / (1 + len(indices))
    assert np.allclose(model.vector_of(token), expected, rtol=0, atol=1e-12)
    # Composition genuinely differs from the raw word row.
    assert not np.allclose(model.vector_of(token), word)


def test_identical_strings_share_all_buckets():
    _, _, model = trained_model()
    first = model.ngrams.bucket_indices("tok0")
    fresh = NGramTable(SMALL_NGRAMS, [], np.random.default_rng(0), 4)
    second = fresh.bucket_indices("tok0")
    assert np.array_equal(first, second)


def test_oov_without_extractable_ngrams_raises():
    corpus = tiny_corpus(20, 4, seed=5)
    vocab = build_vocabulary(corpus)
    model = train_fasttext(
        corpus, vocab, TrainingConfig(dimension=4, epochs=1), NGramConfig(4, 5, 101)
    )
    with pytest.raises(TokenNotFoundError):
        model.vector_of("a")  # wrapped form "<a>" is shorter than n_min


def test_gradient_check_word_buckets_and_output():
    config = NGramConfig(n_min=2, n_max=3, bucket_count=5)
    # 2 word rows + 5 bucket rows, dimension 2, plus a 2x2 output side: 18
    # parameters. "ab" and "cd" hash into all 5 buckets.
    table = NGramTable(config, ["ab", "cd"], np.random.default_rng(0), 2, words=np.zeros((2, 2)))
    assert np.array_equal(table.bucket_ids, np.arange(5))
    rng = np.random.default_rng(9)
    inputs = rng.normal(0.0, 0.4, size=table.inputs.shape)
    w_out = rng.normal(0.0, 0.4, size=(2, 2))
    # Position 1 draws its own center as a negative, which is masked out.
    block = block_of([(0, np.array([1]), np.array([1, 1])), (1, np.array([0, 0]), np.array([1, 0]))])
    check_block_gradients(inputs, w_out, subword_compositions(table, ["ab", "cd"]), block)


def full_table_fasttext(corpus, vocab, config, ngram_config):
    """Reference trainer: a seeded row for every bucket, indexed by raw hash id."""
    encoded = encode_training_corpus(corpus, vocab)
    rng = np.random.default_rng(config.seed)
    w_word = init_input_vectors(rng, len(vocab), config.dimension)
    buckets = init_input_vectors(rng, ngram_config.bucket_count, config.dimension)
    inputs = np.concatenate((w_word, buckets))
    token_buckets, compositions = [], []
    for i in range(len(vocab)):
        grams = reference_ngrams(vocab.token_of(i), ngram_config.n_min, ngram_config.n_max)
        ids = np.asarray([reference_fnv1a_32(g) % ngram_config.bucket_count for g in grams], np.intp)
        rows, counts = np.unique(ids, return_counts=True)
        weights = np.concatenate(([1.0], counts)) / (1 + len(ids))
        compositions.append((np.concatenate(([i], len(vocab) + rows)), weights))
        token_buckets.append(ids)
    w_out, epoch_losses = train_negative_sampling(encoded, vocab, config, rng, inputs, compositions)
    return inputs[: len(vocab)], inputs[len(vocab) :], w_out, epoch_losses, token_buckets


@pytest.mark.parametrize("seed", [1, 4])
def test_kept_rows_match_full_table_reference_exactly(seed):
    corpus = [s[: 1 + i % 3] for i, s in enumerate(tiny_corpus(60, 6, seed=5))]
    vocab = build_vocabulary(corpus)
    config = TrainingConfig(dimension=4, window=2, epochs=2, seed=seed)
    model = train_fasttext(corpus, vocab, config, SMALL_NGRAMS)
    w_word, buckets, w_out, epoch_losses, token_buckets = full_table_fasttext(
        corpus, vocab, config, SMALL_NGRAMS
    )
    table = model.ngrams
    used = np.unique(np.concatenate(token_buckets))
    assert np.array_equal(table.bucket_ids, used)
    assert np.array_equal(model.matrix.input_vectors, w_word)
    assert np.array_equal(model.matrix.output_vectors, w_out)
    assert model.epoch_losses == epoch_losses
    assert np.array_equal(table.vectors(table.bucket_ids), buckets[used])
    # Unkept buckets keep their seeded initial vector.
    assert np.array_equal(table.vectors(np.arange(SMALL_NGRAMS.bucket_count)), buckets)
    for i, idx in enumerate(token_buckets):
        expected = (w_word[i] + buckets[idx].sum(axis=0)) / (1 + len(idx))
        assert np.array_equal(model.vector_of(vocab.token_of(i)), expected)
    oov = ["tok999", "kot7", "ok", "tok0tok1"]
    assert any(not set(table.bucket_indices(t).tolist()) <= set(used.tolist()) for t in oov)
    for token in oov:
        assert token not in vocab
        expected = buckets[table.bucket_indices(token)].mean(axis=0)
        assert np.array_equal(model.vector_of(token), expected)


def test_lookup_rejects_bucket_ids_outside_the_table():
    _, _, model = trained_model()
    with pytest.raises(IndexError):
        model.ngrams.vectors([SMALL_NGRAMS.bucket_count])
    with pytest.raises(IndexError):
        model.ngrams.vectors([-1])


MEMORY_PROBE = """
import json, resource
from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import NGramConfig, TrainingConfig, train_fasttext
corpus = [
    (f"http://example.org/entity/e{i}", f"http://example.org/ontology/p{i % 3}",
     f"http://example.org/entity/e{(i * 7) % 10}")
    for i in range(10)
]
vocab = build_vocabulary(corpus)
model = train_fasttext(corpus, vocab, TrainingConfig(dimension=100, epochs=1), NGramConfig())
used = set()
for i in range(len(vocab)):
    used.update(model.ngrams.bucket_indices(vocab.token_of(i)).tolist())
print(json.dumps({
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "used": sorted(used),
    "bucket_ids": model.ngrams.bucket_ids.tolist(),
    "rows": model.ngrams.rows.shape[0],
}))
"""


def test_default_bucket_table_memory_scales_with_vocabulary():
    """A 2M-bucket, dim-100 table would take 1.6 GB; only used buckets get rows."""
    env = dict(os.environ, PYTHONPATH=str(Path(kgtyper.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["bucket_ids"] == probe["used"]
    assert probe["rows"] == len(probe["used"]) > 0
    assert probe["maxrss_kb"] / 1024 < 200, f"peak RSS {probe['maxrss_kb'] / 1024:.0f} MB"


def test_epoch_loss_decreases_over_training():
    corpus = tiny_corpus(200, 8, seed=2)
    vocab = build_vocabulary(corpus)
    config = TrainingConfig(dimension=6, epochs=10, seed=1)
    model = train_fasttext(corpus, vocab, config, SMALL_NGRAMS)
    assert len(model.epoch_losses) == 10
    assert model.epoch_losses[9] < model.epoch_losses[0]


def test_same_seed_is_bitwise_identical():
    _, _, first = trained_model(seed=7)
    _, _, second = trained_model(seed=7)
    assert np.array_equal(first.matrix.input_vectors, second.matrix.input_vectors)
    assert np.array_equal(first.ngrams.rows, second.ngrams.rows)
    assert first.epoch_losses == second.epoch_losses


def test_different_seeds_differ():
    _, _, first = trained_model(seed=1)
    _, _, second = trained_model(seed=2)
    assert not np.array_equal(first.matrix.input_vectors, second.matrix.input_vectors)


def test_empty_corpus_rejected():
    vocab = build_vocabulary([("a", "b", "c")])
    with pytest.raises(DataError):
        train_fasttext([], vocab, TrainingConfig(dimension=4, epochs=1), SMALL_NGRAMS)


def test_empty_vocabulary_rejected():
    vocab = build_vocabulary([])
    with pytest.raises(DataError):
        train_fasttext(
            [("a", "b", "c")], vocab, TrainingConfig(dimension=4, epochs=1), SMALL_NGRAMS
        )


@pytest.mark.parametrize(
    "bad",
    [
        NGramConfig(n_min=0, n_max=3, bucket_count=10),
        NGramConfig(n_min=4, n_max=3, bucket_count=10),
        NGramConfig(n_min=2, n_max=3, bucket_count=0),
    ],
)
def test_invalid_ngram_config_rejected(bad):
    vocab = build_vocabulary([("ab", "cd", "ef")])
    with pytest.raises(ValueError):
        train_fasttext([("ab", "cd", "ef")], vocab, TrainingConfig(dimension=4, epochs=1), bad)
