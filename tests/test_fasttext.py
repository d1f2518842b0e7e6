"""Subword trainer: n-gram extraction, hashing, composition, gradients."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    block_of, check_block_gradients, composition_table, reference_buckets, reference_fnv1a_32,
    reference_kept_rows, reference_ngrams, reference_subword_compositions, sample_arrays,
    table_parts,
)
from hypothesis import example, given, strategies as st

import kgtyper
from kgtyper.corpus import Vocabulary, build_vocabulary
from kgtyper.embeddings import (
    FastTextEmbeddings,
    NGramTable,
    TokenNotFoundError,
    TrainingConfig,
    train_fasttext,
)
from kgtyper.embeddings.base import init_input_vectors
from kgtyper.embeddings.cbow import encode_training_corpus, train_negative_sampling
from kgtyper.embeddings.fasttext import ngram_buckets, subword_compositions
from kgtyper.errors import DataError, NumericalError


def tiny_corpus(sentences: int, alphabet: int, seed: int):
    rng = np.random.default_rng(seed)
    tokens = [f"tok{i}" for i in range(alphabet)]
    return [
        tuple(tokens[j] for j in rng.integers(0, alphabet, size=3))
        for _ in range(sentences)
    ]


SMALL_NGRAMS = TrainingConfig(n_min=2, n_max=3, bucket_count=101)


def test_trigrams_of_three_letter_token():
    assert reference_ngrams("abc", 3, 3) == ["<ab", "abc", "bc>"]


def test_ngram_range_covers_all_lengths():
    assert reference_ngrams("ab", 2, 3) == ["<a", "ab", "b>", "<ab", "ab>"]


def test_duplicate_ngrams_are_kept():
    grams = reference_ngrams("aaa", 2, 2)
    assert grams == ["<a", "aa", "aa", "a>"]
    buckets, counts = ngram_buckets(["aaa"], TrainingConfig(n_min=2, n_max=2, bucket_count=2**32))
    assert counts.tolist() == [4] and buckets[1] == buckets[2]


def test_too_short_token_has_no_ngrams():
    assert reference_ngrams("a", 4, 6) == []
    config = TrainingConfig(n_min=4, n_max=6, bucket_count=101)
    buckets, counts = ngram_buckets(["a", "", "abcd"], config)
    assert counts.tolist() == [0, 0, 3 + 2 + 1]
    assert buckets.tolist() == reference_buckets("abcd", config)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", 0x811C9DC5),  # offset basis: published FNV-1a test vector
        ("a", 0xE40C292C),
        ("foobar", 0xBF9CF968),
    ],
)
def test_fnv1a_published_vectors(text, expected):
    assert reference_fnv1a_32(text) == expected


def test_fnv1a_matches_independent_reimplementation():
    tokens = ["", "a", "kg", "http://dbpedia.org/resource/Berlin", "日本語", "ü€𝄞"]
    for config in (
        TrainingConfig(n_min=1, n_max=9, bucket_count=2**32),
        TrainingConfig(n_min=3, n_max=6, bucket_count=2_000_000),
    ):
        buckets, counts = ngram_buckets(tokens, config)
        assert counts.tolist() == [len(reference_buckets(token, config)) for token in tokens]
        assert buckets.tolist() == [b for token in tokens for b in reference_buckets(token, config)]


@given(
    tokens=st.lists(st.text(st.characters(exclude_categories=("Cs",)), max_size=12), max_size=6),
    n_min=st.integers(1, 7),
    extra=st.integers(0, 4),
    bucket_count=st.sampled_from([1, 2_000_003, 2**32 + 15]),
)
def test_array_hash_equals_scalar_reference(tokens, n_min, extra, bucket_count):
    config = TrainingConfig(n_min=n_min, n_max=n_min + extra, bucket_count=bucket_count)
    buckets, counts = ngram_buckets(tokens, config)
    assert counts.tolist() == [len(reference_buckets(token, config)) for token in tokens]
    assert buckets.tolist() == [b for token in tokens for b in reference_buckets(token, config)]


def test_unencodable_token_is_refused():
    with pytest.raises(UnicodeEncodeError):
        ngram_buckets(["ok", "a\ud800"], SMALL_NGRAMS)
    table = NGramTable(replace(SMALL_NGRAMS, dimension=2), ["ok"], np.random.default_rng(0))
    with pytest.raises(UnicodeEncodeError):
        table.bucket_indices("a\ud800")


def trained_model(seed: int = 1, epochs: int = 2):
    corpus = tiny_corpus(60, 6, seed=5)
    vocab = build_vocabulary(corpus)
    config = replace(SMALL_NGRAMS, dimension=4, epochs=epochs, seed=seed)
    return corpus, vocab, train_fasttext(corpus, vocab, config)


def test_oov_vector_is_bucket_mean_recomputed_independently():
    _, vocab, model = trained_model()
    oov = "tok999"
    rows = reference_kept_rows(oov, vocab.id_to_token, SMALL_NGRAMS)
    assert oov not in model.vocabulary and len(rows) >= 2
    expected = model.ngrams.rows[rows].mean(axis=0)
    assert np.allclose(model.vector_of(oov), expected, rtol=0, atol=1e-12)


def test_in_vocabulary_vector_is_word_plus_bucket_mean():
    """The word row and each kept n-gram row weighted by its share of the
    mean, in float32 as the trainer composes, then widened."""
    _, vocab, model = trained_model()
    token = vocab.token_of(0)
    rows = reference_kept_rows(token, vocab.id_to_token, SMALL_NGRAMS)
    word = model.ngrams.inputs[0]
    kept, counts = np.unique(rows, return_counts=True)
    weights = (np.concatenate(([1.0], counts)) / (1 + len(rows))).astype(np.float32)
    expected = weights @ np.vstack((word, model.ngrams.rows[kept]))
    assert np.allclose(model.vector_of(token), expected, rtol=0, atol=1e-12)
    # Composition genuinely differs from the raw word row.
    assert not np.allclose(model.vector_of(token), word)


def test_batched_export_sums_each_occurrence_in_order():
    """A token's composition from ``subword_compositions``, one
    ``weights @ inputs[rows]`` as the trainer forms its export, weights a
    repeated n-gram's row once per occurrence, and a model over those
    vectors serves them."""
    config = TrainingConfig(dimension=5, n_min=3, n_max=6, bucket_count=101)
    tokens = ["aaaa", "", "ab", *(f"http://example.org/entity/e{i}" for i in range(20))]
    vocab = Vocabulary([(token, 1) for token in tokens], total_tokens=len(tokens))
    rng = np.random.default_rng(3)
    table = NGramTable(config, tokens, rng, words=np.zeros((len(tokens), 5)))
    table.inputs[:] = rng.normal(size=table.inputs.shape)
    exported = np.array(
        [weights @ table.inputs[rows] for rows, weights in table_parts(subword_compositions(table))]
    )
    model = FastTextEmbeddings(exported, vocab, ngrams=table)
    for t, token in enumerate(tokens):
        rows, counts = np.unique(reference_kept_rows(token, tokens, config), return_counts=True)
        weights = np.concatenate(([1.0], counts)) / (1 + counts.sum())
        expected = weights @ table.inputs[np.concatenate(([t], len(tokens) + rows))]
        assert np.array_equal(exported[t], expected), token
        assert np.array_equal(model.vector_of(token), expected)
    assert len(set(reference_buckets("aaaa", config))) < len(reference_buckets("aaaa", config))
    assert reference_buckets("", config) == []
    oov = "http://example.org/entity/x"  # not among the table's tokens: a cache miss
    assert np.array_equal(
        model.vector_of(oov), table.rows[reference_kept_rows(oov, tokens, config)].mean(axis=0)
    )


def test_oov_vector_is_float64():
    _, _, model = trained_model()
    assert model.ngrams.inputs.dtype == np.float32
    assert model.vector_of("tok999").dtype == np.float64


def test_oov_vector_leaves_out_buckets_without_a_row():
    corpus = [("http://x.org/abcd", "http://x.org/p", "http://x.org/wxyz")] * 3
    vocab = build_vocabulary(corpus)
    config = TrainingConfig(dimension=4, epochs=2, n_min=2, n_max=3, bucket_count=2_000_000)
    model = train_fasttext(corpus, vocab, config)
    mixed = "http://y.org/abqq"  # "<a", "ab", "<ab" are kept; the n-grams with "q" are not
    rows = reference_kept_rows(mixed, vocab.id_to_token, config)
    assert 0 < len(rows) < len(reference_buckets(mixed, config))
    assert np.array_equal(model.vector_of(mixed), model.ngrams.rows[rows].mean(axis=0))
    assert len(model.ngrams.vectors(reference_buckets(mixed, config))) == len(rows)
    unkept = "http://y.org/qqq"
    assert len(reference_buckets(unkept, config)) and not len(
        reference_kept_rows(unkept, vocab.id_to_token, config)
    )
    with pytest.raises(TokenNotFoundError):
        model.vector_of(unkept)


def test_ngrams_run_over_the_local_name():
    config = TrainingConfig(dimension=4, n_min=3, n_max=6, bucket_count=2_000_000)
    tokens = ["http://a.org/x/abcd", "http://b.org#abcd", "abcd", "http://c.org/a#b/abcd"]
    buckets, counts = ngram_buckets(tokens, config)
    assert counts.tolist() == [len(reference_buckets("abcd", config))] * len(tokens)
    first = buckets[: counts[0]]
    assert first.tolist() == reference_buckets("abcd", config)
    assert np.array_equal(buckets.reshape(len(tokens), -1), np.tile(first, (len(tokens), 1)))
    table = NGramTable(config, tokens[:1], np.random.default_rng(0))
    assert np.array_equal(table.bucket_indices("http://b.org#abcd"), first)


def test_identical_strings_share_all_buckets():
    _, _, model = trained_model()
    first = model.ngrams.bucket_indices("tok0")
    fresh = NGramTable(replace(SMALL_NGRAMS, dimension=4), [], np.random.default_rng(0))
    second = fresh.bucket_indices("tok0")
    assert np.array_equal(first, second)


def test_oov_without_extractable_ngrams_raises():
    corpus = tiny_corpus(20, 4, seed=5)
    vocab = build_vocabulary(corpus)
    model = train_fasttext(
        corpus, vocab, TrainingConfig(dimension=4, epochs=1, n_min=4, n_max=5, bucket_count=101)
    )
    with pytest.raises(TokenNotFoundError):
        model.vector_of("a")  # wrapped form "<a>" is shorter than n_min


def test_gradient_check_word_buckets_and_output():
    config = TrainingConfig(dimension=2, n_min=2, n_max=3, bucket_count=5)
    # 2 word rows + 5 bucket rows, dimension 2, plus a 2x2 output side: 18
    # parameters. "ab" and "cd" hash into all 5 buckets.
    table = NGramTable(config, ["ab", "cd"], np.random.default_rng(0), words=np.zeros((2, 2)))
    assert np.array_equal(table.bucket_ids, np.arange(5))
    rng = np.random.default_rng(9)
    inputs = rng.normal(0.0, 0.4, size=table.inputs.shape)
    w_out = rng.normal(0.0, 0.4, size=(2, 2))
    # Position 1 draws its own center as a negative, which is masked out.
    compositions = subword_compositions(table)
    samples = [(0, np.array([1]), np.array([1, 1])), (1, np.array([0, 0]), np.array([1, 0]))]
    block = block_of(compositions, sample_arrays(samples))
    check_block_gradients(inputs, w_out, compositions, block)


COMPOSITION_TOKENS = ["aaaa", "aaaaa", "http://x/", "a", "ab", "日本語", "http://e.org/ü€𝄞"]


# "aaaa" and "aaaaa" repeat an n-gram; "http://x/" has an empty local name,
# and "a" no n-gram once n_min exceeds 3.
@example(tokens=COMPOSITION_TOKENS, n_min=3, extra=3, bucket_count=2_000_000)
@example(tokens=COMPOSITION_TOKENS, n_min=4, extra=1, bucket_count=3)
@given(
    tokens=st.lists(
        st.sampled_from(COMPOSITION_TOKENS)
        | st.text(st.characters(exclude_categories=("Cs",)), max_size=10),
        min_size=1, max_size=8, unique=True,
    ),
    n_min=st.integers(1, 5),
    extra=st.integers(0, 3),
    bucket_count=st.sampled_from([3, 101, 2_000_000]),
)
def test_array_compositions_equal_per_token_reference(tokens, n_min, extra, bucket_count):
    config = TrainingConfig(
        dimension=2, n_min=n_min, n_max=n_min + extra, bucket_count=bucket_count
    )
    table = NGramTable(config, tokens, np.random.default_rng(0), words=np.zeros((len(tokens), 2)))
    compositions = subword_compositions(table)
    parts = reference_subword_compositions(table, tokens)
    assert len(table_parts(compositions)) == len(parts)
    for (rows, weights), (ref_rows, ref_weights) in zip(table_parts(compositions), parts):
        assert rows.tolist() == ref_rows.tolist() and weights.tolist() == ref_weights.tolist()
    uses = Counter(row for rows, _ in parts for row in rows.tolist())
    single = [len(rows) == 1 and w[0] == 1.0 and uses[rows[0]] == 1 for rows, w in parts]
    assert compositions.single.tolist() == single
    assert compositions.first_row.tolist() == [rows[0] for rows, _ in parts]


def reference_fasttext(corpus, vocab, config):
    """Reference trainer: the word rows, then one row per used bucket drawn in
    one call, and compositions from the independent FNV-1a, all in float32;
    the exported compositions are widened to float64."""
    encoded = encode_training_corpus(corpus, vocab)
    rng = np.random.default_rng(config.seed)
    w_word = init_input_vectors(rng, len(vocab), config.dimension)
    token_buckets = [reference_buckets(token, config) for token in vocab.id_to_token]
    used = np.unique(np.concatenate([np.array(b, np.intp) for b in token_buckets]))
    inputs = np.concatenate((w_word, init_input_vectors(rng, len(used), config.dimension)))
    assert inputs.dtype == np.float32
    parts = []
    for i, ids in enumerate(token_buckets):
        rows, counts = np.unique(np.searchsorted(used, ids), return_counts=True)
        weights = (np.concatenate(([1.0], counts)) / (1 + len(ids))).astype(np.float32)
        parts.append((np.concatenate(([i], len(vocab) + rows)), weights))
    _, epoch_losses = train_negative_sampling(
        encoded, vocab, config, rng, inputs, composition_table(parts)
    )
    exported = np.array([weights @ inputs[rows] for rows, weights in parts]).astype(np.float64)
    return inputs[: len(vocab)], inputs[len(vocab) :], epoch_losses, used, exported


@pytest.mark.parametrize("seed", [1, 4])
def test_kept_rows_match_reference_trainer_exactly(seed):
    corpus = [s[: 1 + i % 3] for i, s in enumerate(tiny_corpus(60, 6, seed=5))]
    vocab = build_vocabulary(corpus)
    config = replace(SMALL_NGRAMS, dimension=4, window=2, epochs=2, seed=seed)
    model = train_fasttext(corpus, vocab, config)
    w_word, rows, epoch_losses, used, exported = reference_fasttext(corpus, vocab, config)
    assert np.array_equal(model.ngrams.bucket_ids, used)
    assert np.array_equal(model.ngrams.inputs[: len(vocab)], w_word)
    assert np.array_equal(model.ngrams.rows, rows)
    assert model.epoch_losses == epoch_losses
    assert np.array_equal(model.input_vectors, exported)
    for i in range(len(vocab)):
        assert np.array_equal(model.vector_of(vocab.token_of(i)), exported[i])


def test_non_finite_output_rows_are_refused(monkeypatch):
    """The composed vectors hold no output row, so the trainer checks them."""
    trained = kgtyper.embeddings.fasttext.train_negative_sampling

    def diverged(*args):
        w_out, epoch_losses = trained(*args)
        w_out[1] = np.inf
        return w_out, epoch_losses

    monkeypatch.setattr(kgtyper.embeddings.fasttext, "train_negative_sampling", diverged)
    corpus = tiny_corpus(20, 4, seed=2)
    vocab = build_vocabulary(corpus)
    with pytest.raises(NumericalError, match="output vectors contain non-finite values"):
        train_fasttext(corpus, vocab, replace(SMALL_NGRAMS, dimension=4, epochs=1))


def test_lookup_rejects_bucket_ids_outside_the_table():
    _, _, model = trained_model()
    with pytest.raises(IndexError):
        model.ngrams.vectors([SMALL_NGRAMS.bucket_count])
    with pytest.raises(IndexError):
        model.ngrams.vectors([-1])


MEMORY_PROBE = """
import json, resource
from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import TrainingConfig, train_fasttext
corpus = [
    (f"http://example.org/entity/e{i}", f"http://example.org/ontology/p{i % 3}",
     f"http://example.org/entity/e{(i * 7) % 10}")
    for i in range(10)
]
vocab = build_vocabulary(corpus)
model = train_fasttext(corpus, vocab, TrainingConfig(dimension=100, epochs=1))
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
    config = replace(SMALL_NGRAMS, dimension=6, epochs=10, seed=1)
    model = train_fasttext(corpus, vocab, config)
    assert len(model.epoch_losses) == 10
    assert model.epoch_losses[9] < model.epoch_losses[0]


def test_same_seed_is_bitwise_identical():
    _, _, first = trained_model(seed=7)
    _, _, second = trained_model(seed=7)
    words = slice(len(first.vocabulary))
    assert np.array_equal(first.ngrams.inputs[words], second.ngrams.inputs[words])
    assert np.array_equal(first.ngrams.rows, second.ngrams.rows)
    assert first.epoch_losses == second.epoch_losses


def test_different_seeds_differ():
    _, _, first = trained_model(seed=1)
    _, _, second = trained_model(seed=2)
    words = slice(len(first.vocabulary))
    assert not np.array_equal(first.ngrams.inputs[words], second.ngrams.inputs[words])


def test_empty_corpus_rejected():
    vocab = build_vocabulary([("a", "b", "c")])
    with pytest.raises(DataError):
        train_fasttext([], vocab, replace(SMALL_NGRAMS, dimension=4, epochs=1))


def test_empty_vocabulary_rejected():
    vocab = build_vocabulary([])
    with pytest.raises(DataError):
        train_fasttext([("a", "b", "c")], vocab, replace(SMALL_NGRAMS, dimension=4, epochs=1))


@pytest.mark.parametrize(
    "bad",
    [
        dict(dimension=4, epochs=1, n_min=0, n_max=3, bucket_count=10),
        dict(dimension=4, epochs=1, n_min=4, n_max=3, bucket_count=10),
        dict(dimension=4, epochs=1, n_min=2, n_max=3, bucket_count=0),
    ],
)
def test_invalid_ngram_config_rejected(bad):
    with pytest.raises(ValueError):
        TrainingConfig(**bad)
