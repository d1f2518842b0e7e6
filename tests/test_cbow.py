"""Context-average trainer: block step, gradients, convergence, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import (
    block_loss_and_grads,
    block_of,
    check_block_gradients,
    reference_ns_position_grads,
)

from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import (
    NGramConfig,
    NGramTable,
    TokenNotFoundError,
    TrainingConfig,
    train_cbow,
    train_fasttext,
)
from kgtyper.embeddings.base import UnigramSampler, encode_corpus, linear_lr
from kgtyper.embeddings.cbow import ns_block, position_table, word_compositions
from kgtyper.embeddings.fasttext import subword_compositions
from kgtyper.errors import DataError


def tiny_corpus(sentences: int, alphabet: int, seed: int):
    """Random three-token sentences over a small alphabet."""
    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(alphabet)]
    return [
        tuple(tokens[j] for j in rng.integers(0, alphabet, size=3))
        for _ in range(sentences)
    ]


@pytest.fixture
def corpus200():
    return tiny_corpus(200, 12, seed=3)


def center_step(w_in: np.ndarray, context) -> np.ndarray:
    """The step a lone position's center row takes at rate 1 from zero output
    rows: every score is 0, so it is ``0.5 * hidden``."""
    w_out = np.zeros((len(w_in), w_in.shape[1]))
    into = (np.zeros_like(w_in), np.zeros_like(w_out))
    block = block_of([(0, np.array(context), np.array([1]))])
    ns_block(w_in, w_out, word_compositions(len(w_in)), *block, 1.0, into=into)
    return into[1][0] / 0.5


def test_context_average_is_row_mean():
    w_in = np.arange(12, dtype=np.float64).reshape(4, 3)
    assert np.allclose(center_step(w_in, [0, 2]), (w_in[0] + w_in[2]) / 2)
    assert np.allclose(center_step(w_in, [3, 3, 1]), (2 * w_in[3] + w_in[1]) / 3)


def test_context_average_single_token_is_that_row():
    w_in = np.arange(12, dtype=np.float64).reshape(4, 3)
    assert np.array_equal(center_step(w_in, [3]), w_in[3])


def frozen_samples():
    """Hand-picked samples, one with a duplicated negative id."""
    return [
        (0, np.array([1, 2]), np.array([3, 4])),
        (2, np.array([0, 4]), np.array([1, 1])),
        (4, np.array([3]), np.array([0, 2])),
    ]


def test_gradient_check_hand_samples():
    rng = np.random.default_rng(7)
    w_in = rng.normal(0.0, 0.5, size=(5, 5))
    w_out = rng.normal(0.0, 0.5, size=(5, 5))
    check_block_gradients(w_in, w_out, word_compositions(5), block_of(frozen_samples()))


def test_gradient_check_from_ten_sentence_corpus():
    """One block drawn exactly as the trainer draws it: window 2, sampled negatives."""
    corpus = tiny_corpus(10, 5, seed=11)
    vocab = build_vocabulary(corpus)
    assert len(vocab) == 5  # 5x5 input + 5x5 output = 50 parameters
    _, _, centers, contexts, lengths = position_table(encode_corpus(corpus, vocab), 2)
    negatives = UnigramSampler(vocab).draw(np.random.default_rng(23), len(centers) * 3)
    block = (centers, negatives.reshape(-1, 3), contexts, lengths)
    assert np.any(block[1] == centers[:, None])  # a masked negative

    init = np.random.default_rng(5)
    w_in = init.normal(0.0, 0.3, size=(5, 5))
    w_out = init.normal(0.0, 0.3, size=(5, 5))
    check_block_gradients(w_in, w_out, word_compositions(5), block)


def mixed_length_corpus():
    """Sentences of 1, 2 and 5 tokens: with window 2 the contexts hold 0, 1,
    2, 3 and 4 tokens."""
    rng = np.random.default_rng(8)
    tokens = [f"tok{i}" for i in range(7)]
    return [
        tuple(tokens[j] for j in rng.integers(0, len(tokens), size=(1, 2, 5)[k % 3]))
        for k in range(60)
    ]


@pytest.mark.parametrize(
    "train",
    [
        lambda corpus, vocab, config: train_cbow(corpus, vocab, config),
        lambda corpus, vocab, config: train_fasttext(
            corpus, vocab, config, NGramConfig(2, 4, 53)
        ).matrix,
    ],
    ids=["cbow", "fasttext"],
)
def test_mixed_sentence_lengths_train_bitwise_reproducibly(train):
    corpus = mixed_length_corpus()
    vocab = build_vocabulary(corpus)
    config = TrainingConfig(dimension=6, window=2, epochs=3, seed=4)
    first = train(corpus, vocab, config)
    second = train(corpus, vocab, config)
    assert np.all(np.isfinite(first.input_vectors))
    assert np.all(np.isfinite(first.epoch_losses))
    assert np.array_equal(first.input_vectors, second.input_vectors)
    assert np.array_equal(first.output_vectors, second.output_vectors)
    assert first.epoch_losses == second.epoch_losses


def test_epoch_loss_decreases_over_training(corpus200):
    vocab = build_vocabulary(corpus200)
    config = TrainingConfig(dimension=16, window=2, epochs=10, seed=1)
    matrix = train_cbow(corpus200, vocab, config)
    assert len(matrix.epoch_losses) == 10
    assert matrix.epoch_losses[9] < matrix.epoch_losses[0]
    assert all(np.isfinite(loss) for loss in matrix.epoch_losses)


def test_vectors_have_requested_dimension(corpus200):
    vocab = build_vocabulary(corpus200)
    matrix = train_cbow(corpus200, vocab, TrainingConfig(dimension=7, epochs=1, seed=1))
    assert matrix.dimension == 7
    assert matrix.input_vectors.shape == (len(vocab), 7)
    vector = matrix.vector_of("t0")
    assert vector.shape == (7,)
    assert np.array_equal(vector, matrix.input_vectors[vocab.id_of("t0")])


def test_served_vector_includes_output_row(corpus200):
    """The exported vector moves when only the output side trains."""
    vocab = build_vocabulary(corpus200)
    matrix = train_cbow(corpus200, vocab, TrainingConfig(dimension=8, epochs=2, seed=1))
    # Output rows start at zero; after training they contribute to the sum.
    assert np.abs(matrix.output_vectors).max() > 0.0


def test_same_seed_is_bitwise_identical(corpus200):
    vocab = build_vocabulary(corpus200)
    config = TrainingConfig(dimension=10, epochs=3, seed=42)
    first = train_cbow(corpus200, vocab, config)
    second = train_cbow(corpus200, vocab, config)
    assert np.array_equal(first.input_vectors, second.input_vectors)
    assert np.array_equal(first.output_vectors, second.output_vectors)
    assert first.epoch_losses == second.epoch_losses


def test_different_seeds_differ(corpus200):
    vocab = build_vocabulary(corpus200)
    first = train_cbow(corpus200, vocab, TrainingConfig(dimension=10, epochs=1, seed=1))
    second = train_cbow(corpus200, vocab, TrainingConfig(dimension=10, epochs=1, seed=2))
    assert not np.array_equal(first.input_vectors, second.input_vectors)


def test_unknown_token_raises(corpus200):
    vocab = build_vocabulary(corpus200)
    matrix = train_cbow(corpus200, vocab, TrainingConfig(dimension=5, epochs=1, seed=1))
    with pytest.raises(TokenNotFoundError):
        matrix.vector_of("never-seen")


def test_empty_corpus_rejected():
    vocab = build_vocabulary([("a", "b", "c")])
    with pytest.raises(DataError):
        train_cbow([], vocab, TrainingConfig(dimension=5, epochs=1, seed=1))


def test_empty_vocabulary_rejected():
    vocab = build_vocabulary([])
    with pytest.raises(DataError):
        train_cbow([("a", "b", "c")], vocab, TrainingConfig(dimension=5, epochs=1, seed=1))


def test_disjoint_corpus_and_vocabulary_rejected():
    vocab = build_vocabulary([("x", "y", "z")])
    with pytest.raises(DataError):
        train_cbow([("a", "b", "c")], vocab, TrainingConfig(dimension=5, epochs=1, seed=1))


@pytest.mark.parametrize(
    "bad",
    [
        TrainingConfig(dimension=0),
        TrainingConfig(epochs=0),
        TrainingConfig(window=0),
        TrainingConfig(initial_learning_rate=0.0),
        TrainingConfig(negative_samples=-1),
        TrainingConfig(initial_learning_rate=float("nan")),
        TrainingConfig(initial_learning_rate=float("inf")),
    ],
)
def test_invalid_config_rejected(bad):
    vocab = build_vocabulary([("a", "b", "c")])
    with pytest.raises(ValueError):
        train_cbow([("a", "b", "c")], vocab, bad)


def test_learning_rate_decays_linearly_to_floor():
    assert linear_lr(0.05, 0, 100) == pytest.approx(0.05)
    assert linear_lr(0.05, 50, 100) == pytest.approx(0.025)
    assert linear_lr(0.05, 100, 100) == pytest.approx(0.05 * 1e-4)
    assert linear_lr(0.05, 1000, 100) == pytest.approx(0.05 * 1e-4)


@pytest.mark.parametrize("initial,total", [(0.05, 100), (0.15, 14_931), (0.025, 0), (0.3, 7)])
def test_learning_rate_array_equals_scalar_formula(initial, total):
    steps = np.arange(0, total + 20)  # past the end: the 1e-4 floor
    rates = linear_lr(initial, steps, total)
    scalar = [initial * max(1e-4, 1.0 - step / max(total, 1)) for step in steps.tolist()]
    assert rates.tolist() == scalar
    assert rates[-1] == initial * 1e-4
    assert all(linear_lr(initial, step, total) == rates[step] for step in (0, total // 2, total))


BLOCK_TOKENS = ["aaaa", "abab", "xyz", "b", "cd"]

# One block over BLOCK_TOKENS with three negatives per position: position 0
# repeats a negative, positions 1 and 2 draw their own center, position 1
# names context token 0 twice, and token 0 ("aaaa") repeats its n-grams.
BLOCK_SAMPLES = [
    (0, [1, 2], [3, 3, 4]),
    (2, [0, 0, 4], [2, 1, 0]),
    (4, [3], [0, 1, 4]),
    (1, [0, 2, 3, 4], [2, 3, 0]),
]


def reference_block(inputs, w_out, token_rows, samples):
    """Summed loss and gradients, one ``reference_ns_position_grads`` call per
    position. Token ``t`` composes as the plain mean of ``inputs[token_rows[t]]``,
    a row counted once per occurrence; a negative equal to the center is dropped."""
    g_inputs, g_out = np.zeros_like(inputs), np.zeros_like(w_out)
    total = 0.0
    for center, context, negatives in samples:
        negatives = np.array([n for n in negatives if n != center], dtype=np.intp)
        hidden = np.mean([inputs[token_rows[t]].mean(axis=0) for t in context], axis=0)
        loss, g_hidden, g_center, g_negatives = reference_ns_position_grads(
            hidden, w_out, center, negatives
        )
        total += loss
        g_out[center] += g_center
        np.add.at(g_out, negatives, g_negatives)
        for t in context:
            rows = token_rows[t]
            np.add.at(g_inputs, rows, g_hidden / len(context) / len(rows))
    return total, g_inputs, g_out


@pytest.mark.parametrize("kind", ["word", "subword"])
def test_block_step_equals_sum_over_positions(kind):
    """The block's loss and gradients are the sums of the one-position
    reference over its positions."""
    rng = np.random.default_rng(4)
    size, dim = len(BLOCK_TOKENS), 3
    if kind == "word":
        inputs = rng.normal(0.0, 0.5, size=(size, dim))
        compositions = word_compositions(size)
        token_rows = [[t] for t in range(size)]
    else:
        words = rng.normal(0.0, 0.5, size=(size, dim))
        table = NGramTable(NGramConfig(1, 3, 11), BLOCK_TOKENS, rng, dim, words=words)
        inputs = table.inputs
        inputs[size:] = rng.normal(0.0, 0.5, size=table.rows.shape)
        compositions = subword_compositions(table, BLOCK_TOKENS)
        token_rows = [
            [t, *(size + np.searchsorted(table.bucket_ids, table.bucket_indices(token)))]
            for t, token in enumerate(BLOCK_TOKENS)
        ]
        assert len(set(token_rows[0])) < len(token_rows[0])  # "aaaa" repeats n-gram rows
    w_out = rng.normal(0.0, 0.5, size=(size, dim))
    samples = [(c, np.array(ctx), np.array(neg)) for c, ctx, neg in BLOCK_SAMPLES]

    loss, g_inputs, g_out = block_loss_and_grads(inputs, w_out, compositions, block_of(samples))
    ref_loss, ref_inputs, ref_out = reference_block(inputs, w_out, token_rows, samples)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert np.allclose(g_inputs, ref_inputs, rtol=1e-10, atol=1e-15)
    assert np.allclose(g_out, ref_out, rtol=1e-10, atol=1e-15)
    assert np.all(g_out != 0.0)  # every row is a center or a kept negative


def test_block_step_applies_rate_times_gradient():
    rng = np.random.default_rng(8)
    inputs, w_out = rng.normal(0.0, 0.5, size=(2, 5, 3))
    samples = [(c, np.array(ctx), np.array(neg)) for c, ctx, neg in BLOCK_SAMPLES]
    block = block_of(samples)
    _, g_inputs, g_out = block_loss_and_grads(inputs, w_out, word_compositions(5), block)
    stepped_in, stepped_out = inputs.copy(), w_out.copy()
    ns_block(stepped_in, stepped_out, word_compositions(5), *block, 0.3)
    assert np.allclose(stepped_in, inputs - 0.3 * g_inputs, rtol=0, atol=1e-15)
    assert np.allclose(stepped_out, w_out - 0.3 * g_out, rtol=0, atol=1e-15)
