"""Context-average trainer: block step, gradients, convergence, determinism."""

from __future__ import annotations

import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from conftest import (
    block_loss_and_grads,
    block_of,
    check_block_gradients,
    composition_table,
    per_token_ns_block,
    reference_ns_block,
    reference_ns_position_grads,
    sample_arrays,
    table_parts,
)
from hypothesis import example, given, strategies as st

from kgtyper.corpus import Vocabulary, build_vocabulary
from kgtyper.embeddings import (
    NGramTable,
    TokenNotFoundError,
    TrainingConfig,
    train_cbow,
    train_fasttext,
)
from kgtyper.embeddings import cbow
from kgtyper.embeddings.base import UnigramSampler, init_input_vectors, linear_lr
from kgtyper.embeddings.cbow import (
    BLOCK_POSITIONS, CHUNK_POSITIONS, BlockLayout, encode_training_corpus, ns_block,
    position_table, train_negative_sampling, word_compositions,
)
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
    compositions = word_compositions(len(w_in))
    block = block_of(compositions, sample_arrays([(0, np.array(context), np.array([1]))]))
    ns_block(w_in, w_out, compositions, *block, 1.0, into=into)
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
    compositions = word_compositions(5)
    block = block_of(compositions, sample_arrays(frozen_samples()))
    check_block_gradients(w_in, w_out, compositions, block)


def test_gradient_check_from_ten_sentence_corpus():
    """One block drawn exactly as the trainer draws it: window 2, sampled negatives."""
    corpus = tiny_corpus(10, 5, seed=11)
    vocab = build_vocabulary(corpus)
    assert len(vocab) == 5  # 5x5 input + 5x5 output = 50 parameters
    _, _, centers, contexts, lengths = position_table(*encode_training_corpus(corpus, vocab), 2)
    negatives = UnigramSampler(vocab).draw(np.random.default_rng(23), len(centers) * 3)
    negatives = negatives.reshape(-1, 3)
    assert np.any(negatives == centers[:, None])  # a masked negative
    block = block_of(word_compositions(5), (centers, negatives, contexts, lengths))

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


def trained_rows(model):
    """A fastText model whose ``input_vectors`` are its trained word rows and,
    after them, its bucket rows."""
    return replace(model, input_vectors=model.ngrams.inputs)


@pytest.mark.parametrize(
    "train",
    [
        lambda corpus, vocab, config: train_cbow(corpus, vocab, config),
        lambda corpus, vocab, config: trained_rows(
            train_fasttext(corpus, vocab, replace(config, n_min=2, n_max=4, bucket_count=53))
        ),
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
    assert matrix.input_vectors.shape == (len(vocab), 7)
    vector = matrix.vector_of("t0")
    assert vector.shape == (7,)
    assert np.array_equal(vector, matrix.input_vectors[vocab.token_to_id["t0"]])


def test_served_vector_includes_output_row(corpus200, monkeypatch):
    """The exported vector is the trained input row plus the trained output row,
    both float32, added in float64."""
    trained = {}

    def recording(*args):
        w_out, epoch_losses = train_negative_sampling(*args)
        trained.update(inputs=args[4], w_out=w_out)
        return w_out, epoch_losses

    monkeypatch.setattr(cbow, "train_negative_sampling", recording)
    vocab = build_vocabulary(corpus200)
    matrix = train_cbow(corpus200, vocab, TrainingConfig(dimension=8, epochs=2, seed=1))
    # Output rows start at zero; after training they contribute to the sum.
    assert np.abs(trained["w_out"]).max() > 0.0
    widened = trained["inputs"].astype(np.float64) + trained["w_out"].astype(np.float64)
    assert np.array_equal(matrix.input_vectors, widened)


@pytest.mark.parametrize("trainer", [train_cbow, train_fasttext], ids=["cbow", "fasttext"])
def test_trainer_state_is_float32_but_matrices_are_float64(corpus200, monkeypatch, trainer):
    """Every block sees float32 rows, rate, laid-out shares and composition
    weights, and sums its share, coefficient and mixing matrices into float32;
    the exported vectors are float64."""
    seen = set()
    block_step, summed = cbow.ns_block, cbow._summed

    def recording_block(inputs, w_out, compositions, context, targets, kept, lr):
        seen.update({inputs.dtype, w_out.dtype, np.asarray(lr).dtype, context[2].dtype})
        if not compositions.single.all():  # the weights a block reads
            seen.add(compositions.weights.dtype)
        loss = block_step(inputs, w_out, compositions, context, targets, kept, lr)
        seen.update({inputs.dtype, w_out.dtype})
        return loss

    def recording_summed(*args):
        sums = summed(*args)
        seen.add(sums.dtype)
        return sums

    monkeypatch.setattr(cbow, "ns_block", recording_block)
    monkeypatch.setattr(cbow, "_summed", recording_summed)
    vocab = build_vocabulary(corpus200)
    config = TrainingConfig(dimension=6, epochs=2, seed=1, n_min=2, n_max=3, bucket_count=53)
    matrix = trainer(corpus200, vocab, config)
    assert seen == {np.dtype(np.float32)}
    assert matrix.input_vectors.dtype == np.float64
    assert matrix.vector_of("t0").dtype == np.float64


def test_same_seed_is_bitwise_identical(corpus200):
    vocab = build_vocabulary(corpus200)
    config = TrainingConfig(dimension=10, epochs=3, seed=42)
    first = train_cbow(corpus200, vocab, config)
    second = train_cbow(corpus200, vocab, config)
    assert np.array_equal(first.input_vectors, second.input_vectors)
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


def reference_positions(corpus, vocab, window: int):
    """One sentence at a time: its in-vocabulary ids, then each position's
    context (left neighbours, then right ones) within the window. Returns the
    ids per sentence, the corpus's position count, and per position with a
    context its step, center and context."""
    encoded = [[vocab.token_to_id[t] for t in sentence if t in vocab] for sentence in corpus]
    step, rows = 0, []
    for ids in encoded:
        for p, center in enumerate(ids):
            context = ids[max(0, p - window):p] + ids[p + 1:p + 1 + window]
            if context:
                rows.append((step, center, context))
            step += 1
    return encoded, step, rows


@given(
    corpus=st.lists(st.lists(st.sampled_from("abcdef"), max_size=6).map(tuple), min_size=1,
                    max_size=25),
    min_count=st.integers(1, 4),
    window=st.integers(1, 3),
)
@example(corpus=[("a", "b", "a"), ("x", "y", "z"), (), ("b", "a", "a")], min_count=2, window=2)
def test_flat_encoding_matches_per_sentence_encoding(corpus, min_count, window):
    """``encode_training_corpus`` and ``position_table`` equal the sentence by
    sentence encoding, also where every token of a sentence falls below
    ``min_count``."""
    vocab = build_vocabulary(corpus, min_count)
    encoded, positions, rows = reference_positions(corpus, vocab, window)
    if not any(encoded):
        with pytest.raises(DataError):
            encode_training_corpus(corpus, vocab)
        return
    ids, sizes = encode_training_corpus(corpus, vocab)
    assert ids.tolist() == [i for sentence in encoded for i in sentence]
    assert sizes.tolist() == [len(sentence) for sentence in encoded]
    count, steps, centers, contexts, lengths = position_table(ids, sizes, window)
    assert count == positions
    assert [
        (step, center, context[:length])
        for step, center, context, length in zip(
            steps.tolist(), centers.tolist(), contexts.tolist(), lengths.tolist()
        )
    ] == rows


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
        dict(dimension=0),
        dict(epochs=0),
        dict(window=0),
        dict(initial_learning_rate=0.0),
        dict(negative_samples=-1),
        dict(initial_learning_rate=float("nan")),
        dict(initial_learning_rate=float("inf")),
        dict(min_count=0),
    ],
)
def test_invalid_config_rejected(bad):
    with pytest.raises(ValueError):
        TrainingConfig(**bad)


def test_config_cannot_be_made_invalid_once_built():
    config = TrainingConfig()
    with pytest.raises(FrozenInstanceError):
        config.epochs = 0
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        replace(config, epochs=0)
    assert config == TrainingConfig()


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


class FixedDoubles:
    """A generator whose ``random`` hands out the given doubles."""

    def __init__(self, doubles: np.ndarray):
        self.doubles = doubles

    def random(self, count: int) -> np.ndarray:
        assert count == len(self.doubles)
        return self.doubles.copy()


@given(
    counts=st.lists(st.integers(1, 10**9), min_size=1, max_size=300)
    | st.integers(1, 2000).map(lambda rare: [10**9] + [1] * rare),
    seed=st.integers(0, 2**32 - 1),
)
def test_negative_draws_equal_a_binary_search_of_the_cumulative_weights(counts, seed):
    """Each draw is the first token whose cumulative unigram^(3/4) weight
    exceeds its double, as ``np.searchsorted`` finds it: for random doubles,
    for every cumulative weight and the double below it, and for 0 and the
    largest double below 1, also where one token outweighs thousands."""
    vocab = Vocabulary([(f"t{i}", c) for i, c in enumerate(counts)], total_tokens=sum(counts))
    weights = np.array(counts, dtype=np.float64) ** 0.75
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0
    doubles = np.concatenate((
        np.random.default_rng(seed).random(500), cumulative[:-1],
        np.nextafter(cumulative, 0.0), [0.0, np.nextafter(1.0, 0.0)],
    ))
    drawn = UnigramSampler(vocab).draw(FixedDoubles(doubles), len(doubles))
    assert drawn.tolist() == np.searchsorted(cumulative, doubles, side="right").tolist()


def layout_case(kind: str, seed: int):
    """``(corpus, vocab, inputs, compositions)``: 400 sentences of 1 to 6 of 10
    tokens, plus one with two tokens seen once, which ``min_count`` 2 leaves
    out of the vocabulary; float32 word rows, or word and n-gram rows whose
    compositions hold several rows."""
    rng = np.random.default_rng(seed)
    names = [f"http://e.org/t{i}" for i in range(10)]
    corpus = [
        tuple(names[j] for j in rng.integers(0, 10, size=rng.integers(1, 7))) for _ in range(400)
    ] + [("rare-a", names[0], "rare-b")]
    vocab = build_vocabulary(corpus, min_count=2)
    assert "rare-a" not in vocab and len(vocab) == 10
    words = init_input_vectors(rng, len(vocab), 4)
    if kind == "word":
        return corpus, vocab, words, word_compositions(len(vocab))
    config = TrainingConfig(dimension=4, n_min=2, n_max=3, bucket_count=29)
    table = NGramTable(config, vocab.id_to_token, rng, words=words)
    return corpus, vocab, table.inputs, subword_compositions(table)


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("kind", ["word", "subword"])
def test_block_layout_equals_each_blocks_row_weights(kind, window):
    """Every block's laid-out tokens, float32 share matrix and single/first-row
    split equal, by ==, what ``_row_weights`` and the composition table give on
    that block's own contexts, partial last block included."""
    corpus, vocab, _, compositions = layout_case(kind, window)
    _, _, _, contexts, lengths = position_table(*encode_training_corpus(corpus, vocab), window)
    assert len(lengths) % BLOCK_POSITIONS and lengths.max() == min(2 * window, 5)
    layout = list(BlockLayout(compositions, contexts, lengths, np.float32))
    assert len(layout) == -(-len(lengths) // BLOCK_POSITIONS)
    for b, (tokens, cells, shares, single, one_rows, several) in enumerate(layout):
        rows = slice(b * BLOCK_POSITIONS, (b + 1) * BLOCK_POSITIONS)
        block_contexts, block_lengths = contexts[rows], lengths[rows]
        present = np.arange(contexts.shape[1]) < block_lengths[:, None]
        expected, share = cbow._row_weights(
            block_contexts[present], np.nonzero(present)[0],
            np.repeat(1.0 / block_lengths, block_lengths), len(block_lengths),
            compositions.slots, np.float32,
        )
        alone = compositions.single[expected]
        assert tokens.tolist() == expected.tolist()
        width = len(block_lengths)
        assert np.array_equal(cbow._summed(cells, shares, len(tokens), width, np.float32), share)
        assert single.tolist() == alone.tolist()
        assert one_rows.tolist() == compositions.first_row[expected[alone]].tolist()
        assert several.tolist() == np.flatnonzero(~alone).tolist()
        assert {a.dtype for a in (tokens, cells, one_rows, several)} == {np.dtype(np.int32)}
        assert shares.dtype == np.float32
    assert sum(len(block[1]) for block in layout) < lengths.sum()  # repeats share a cell
    assert any(len(block[5]) for block in layout) == (kind == "subword")


@pytest.mark.parametrize("kind", ["word", "subword"])
def test_trainer_equals_a_loop_that_draws_each_blocks_negatives(kind):
    """Negatives drawn a chunk of blocks at a time, rates computed an epoch at a
    time and the laid-out blocks leave the trainer's rows and losses exactly as
    a loop leaves them that, per block, draws its negatives, computes its rate
    and steps by the cell-by-cell reference on its own contexts."""
    corpus, vocab, inputs, compositions = layout_case(kind, 4)
    config = TrainingConfig(dimension=4, epochs=2, initial_learning_rate=0.2)
    encoded = encode_training_corpus(corpus, vocab)
    positions, steps, centers, contexts, lengths = position_table(*encoded, config.window)
    assert len(centers) > CHUNK_POSITIONS and len(centers) % CHUNK_POSITIONS  # a partial chunk
    ref_inputs, ref_out = inputs.copy(), np.zeros((len(vocab), 4), dtype=np.float32)
    w_out, losses = train_negative_sampling(
        encoded, vocab, config, np.random.default_rng(9), inputs, compositions
    )

    rng, sampler, k = np.random.default_rng(9), UnigramSampler(vocab), config.negative_samples
    parts = table_parts(compositions)
    ref_losses = []
    for epoch in range(config.epochs):
        total = 0.0
        for start in range(0, len(centers), BLOCK_POSITIONS):
            rows = slice(start, start + BLOCK_POSITIONS)
            step, total_steps = epoch * positions + steps[start], positions * config.epochs
            lr = np.float32(linear_lr(config.initial_learning_rate, step, total_steps))
            negatives = sampler.draw(rng, len(centers[rows]) * k).reshape(-1, k)
            arrays = (centers[rows], negatives, contexts[rows], lengths[rows])
            total += reference_ns_block(ref_inputs, ref_out, parts, *arrays, lr)
        ref_losses.append(total / len(centers))
    assert np.array_equal(inputs, ref_inputs) and np.array_equal(w_out, ref_out)
    assert losses == ref_losses


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
        config = TrainingConfig(dimension=dim, n_min=1, n_max=3, bucket_count=11)
        table = NGramTable(config, BLOCK_TOKENS, rng, words=words)
        inputs = table.inputs
        inputs[size:] = rng.normal(0.0, 0.5, size=table.rows.shape)
        compositions = subword_compositions(table)
        token_rows = [
            [t, *(size + np.searchsorted(table.bucket_ids, table.bucket_indices(token)))]
            for t, token in enumerate(BLOCK_TOKENS)
        ]
        assert len(set(token_rows[0])) < len(token_rows[0])  # "aaaa" repeats n-gram rows
    w_out = rng.normal(0.0, 0.5, size=(size, dim))
    samples = [(c, np.array(ctx), np.array(neg)) for c, ctx, neg in BLOCK_SAMPLES]

    block = block_of(compositions, sample_arrays(samples))
    loss, g_inputs, g_out = block_loss_and_grads(inputs, w_out, compositions, block)
    ref_loss, ref_inputs, ref_out = reference_block(inputs, w_out, token_rows, samples)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert np.allclose(g_inputs, ref_inputs, rtol=1e-10, atol=1e-15)
    assert np.allclose(g_out, ref_out, rtol=1e-10, atol=1e-15)
    assert np.all(g_out != 0.0)  # every row is a center or a kept negative


def test_block_step_applies_rate_times_gradient():
    rng = np.random.default_rng(8)
    inputs, w_out = rng.normal(0.0, 0.5, size=(2, 5, 3))
    samples = [(c, np.array(ctx), np.array(neg)) for c, ctx, neg in BLOCK_SAMPLES]
    compositions = word_compositions(5)
    block = block_of(compositions, sample_arrays(samples))
    _, g_inputs, g_out = block_loss_and_grads(inputs, w_out, compositions, block)
    stepped_in, stepped_out = inputs.copy(), w_out.copy()
    ns_block(stepped_in, stepped_out, compositions, *block, 0.3)
    assert np.allclose(stepped_in, inputs - 0.3 * g_inputs, rtol=0, atol=1e-15)
    assert np.allclose(stepped_out, w_out - 0.3 * g_out, rtol=0, atol=1e-15)


# "aaaa" repeats the n-gram "aaa" (one row, weight 2 / 5); "" has no n-gram,
# so its word row alone makes it.
EXACT_TOKENS = ["aaaa", "abab", "xyz", "", "b", "cd"]


def exact_case(kind: str, rng: np.random.Generator, dim: int):
    """``(inputs, compositions, parts)``: the trainer's float32 table and,
    built independently, each token's ``(rows, weights)`` for the reference."""
    size = len(EXACT_TOKENS)
    words = rng.normal(0.0, 0.5, size=(size, dim)).astype(np.float32)
    one = np.ones(1, dtype=np.float32)
    if kind == "word":
        return words, word_compositions(size), [(np.array([t]), one) for t in range(size)]
    if kind == "hand-built":
        # Only token 3 is a single: tokens 1 and 5 are both row 1 alone,
        # token 0's row 2 is one of token 2's rows too, and token 4 owns
        # row 5 but weighs it by 2.
        parts = [
            (np.array([2]), np.array([0.5], dtype=np.float32)),
            (np.array([1]), one),
            (np.array([2, 0, 4]), np.array([0.25, 0.5, 0.25], dtype=np.float32)),
            (np.array([3]), one),
            (np.array([5]), np.array([2.0], dtype=np.float32)),
            (np.array([1]), one),
        ]
        compositions = composition_table(parts)
        assert compositions.single.tolist() == [False, False, False, True, False, False]
        return words, compositions, parts
    config = TrainingConfig(dimension=dim, n_min=3, n_max=4, bucket_count=11)
    table = NGramTable(config, EXACT_TOKENS, rng, words=words)
    table.inputs[size:] = rng.normal(0.0, 0.5, size=table.rows.shape)
    parts = []
    for t, token in enumerate(EXACT_TOKENS):
        buckets = table.bucket_indices(token)
        rows, counts = np.unique(np.searchsorted(table.bucket_ids, buckets), return_counts=True)
        weights = np.concatenate(([1.0], counts)) / (1 + len(buckets))
        parts.append((np.concatenate(([t], size + rows)), weights.astype(np.float32)))
    assert parts[0][1].max() > parts[0][1][0] and len(parts[3][0]) == 1
    return table.inputs, subword_compositions(table), parts


@pytest.mark.parametrize("count", [1, 6])
def test_word_compositions_are_one_owned_row_each(count):
    compositions = word_compositions(count)
    assert compositions.single.tolist() == [True] * count
    assert np.array_equal(compositions.first_row, np.arange(count))
    for t, (rows, weights) in enumerate(table_parts(compositions)):
        assert rows.tolist() == [t] and weights.tolist() == [1.0]


# A block sums each composed vector, and each row's update, in another order
# than a per-token loop: after a few blocks every entry still lies within
# this many float32 epsilons of the array's largest magnitude.
PER_TOKEN_ULPS = 16


def assert_within_float32_rounding(actual, expected):
    assert actual.dtype == expected.dtype == np.float32
    atol = PER_TOKEN_ULPS * np.finfo(np.float32).eps * float(np.abs(expected).max())
    np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)


@pytest.mark.parametrize("kind", ["word", "subword", "hand-built"])
def test_block_steps_equal_per_token_reference_exactly(kind):
    """Several float32 blocks leave ``inputs`` and ``w_out`` exactly as the
    reference step, which builds its mixing matrix cell by cell, leaves them,
    and return the same losses; a per-token loop, which sums in another
    order, ends within ``PER_TOKEN_ULPS`` of them (word2vec's exactly)."""
    rng = np.random.default_rng(12)
    inputs, compositions, parts = exact_case(kind, rng, 8)
    size = len(EXACT_TOKENS)
    w_out = rng.normal(0.0, 0.5, size=(size, 8)).astype(np.float32)
    ref_inputs, ref_out = inputs.copy(), w_out.copy()
    loop_inputs, loop_out = inputs.copy(), w_out.copy()
    for lr in (0.4, 0.3, 0.2, 0.1):
        arrays = (
            rng.integers(0, size, size=16),
            rng.integers(0, size, size=(16, 3)),
            rng.integers(0, size, size=(16, 4)),
            rng.integers(1, 5, size=16),
        )
        block = block_of(compositions, arrays, np.float32)
        loss = ns_block(inputs, w_out, compositions, *block, np.float32(lr))
        assert loss == reference_ns_block(ref_inputs, ref_out, parts, *arrays, np.float32(lr))
        assert inputs.dtype == ref_inputs.dtype == w_out.dtype == ref_out.dtype == np.float32
        assert np.array_equal(inputs, ref_inputs)
        assert np.array_equal(w_out, ref_out)
        loop_loss = per_token_ns_block(loop_inputs, loop_out, parts, *arrays, np.float32(lr))
        assert loss == pytest.approx(loop_loss, rel=PER_TOKEN_ULPS * np.finfo(np.float32).eps)
    assert_within_float32_rounding(inputs, loop_inputs)
    assert_within_float32_rounding(w_out, loop_out)
    if kind == "word":
        assert np.array_equal(inputs, loop_inputs) and np.array_equal(w_out, loop_out)


@st.composite
def mixed_blocks(draw):
    """``(parts, arrays)``: compositions over a few shared rows, where token 0
    owns a row of weight 1 (gathered alone) and token 1 holds two shared
    rows, plus drawn tokens of either kind; position 0's context holds both
    0 and 1, and contexts may repeat tokens within and across positions."""
    shared = draw(st.integers(2, 6))
    weight = st.integers(1, 20).map(lambda n: n / 20)
    kinds = [True, False] + draw(st.lists(st.booleans(), max_size=5))
    parts = []
    for t, owned in enumerate(kinds):
        if owned:
            rows, weights = [shared + t], [1.0]
        else:
            least = 2 if t == 1 else 1
            row = st.integers(0, shared - 1)
            rows = draw(st.lists(row, min_size=least, max_size=4, unique=True))
            weights = draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
        parts.append((np.array(rows), np.array(weights, dtype=np.float32)))
    token = st.integers(0, len(parts) - 1)
    samples = [(draw(token), [0, 1], draw(st.lists(token, min_size=2, max_size=2)))]
    for _ in range(draw(st.integers(0, 7))):
        context = draw(st.lists(token, min_size=1, max_size=4))
        samples.append((draw(token), context, draw(st.lists(token, min_size=2, max_size=2))))
    return parts, sample_arrays(samples)


@given(mixed_blocks(), st.integers(0, 2**32 - 1))
def test_block_step_equals_mixing_reference_on_mixed_compositions(case, seed):
    """On random compositions with shared rows, repeated tokens and one-row
    and several-row tokens in one block, the block step equals the
    cell-by-cell reference exactly and the per-token loop to float32 rounding."""
    parts, arrays = case
    compositions = composition_table(parts)
    block = block_of(compositions, arrays, np.float32)
    rng = np.random.default_rng(seed)
    height = max(int(rows.max()) for rows, _ in parts) + 1
    inputs = rng.normal(0.0, 0.5, size=(height, 4)).astype(np.float32)
    w_out = rng.normal(0.0, 0.5, size=(len(parts), 4)).astype(np.float32)
    exact_in, exact_out = inputs.copy(), w_out.copy()
    loop_in, loop_out = inputs.copy(), w_out.copy()
    lr = np.float32(0.3)
    loss = ns_block(inputs, w_out, compositions, *block, lr)
    assert loss == reference_ns_block(exact_in, exact_out, parts, *arrays, lr)
    assert np.array_equal(inputs, exact_in) and np.array_equal(w_out, exact_out)
    loop_loss = per_token_ns_block(loop_in, loop_out, parts, *arrays, lr)
    assert loss == pytest.approx(loop_loss, rel=PER_TOKEN_ULPS * np.finfo(np.float32).eps)
    assert_within_float32_rounding(inputs, loop_in)
    assert_within_float32_rounding(w_out, loop_out)


def test_block_step_mixing_matrix_scales_with_the_block_not_the_table():
    """A 64-position block over a table of 100k bucket rows touches only the
    300 rows of its 60 context tokens; its peak stays below 8 bytes per
    table row, where a mixing matrix over the whole table would take 60
    float32 columns of it."""
    words, buckets, grams, dim = 1000, 100_000, 4, 16
    rng = np.random.default_rng(5)
    parts = [
        (np.concatenate(([t], words + rng.choice(buckets, grams, replace=False))),
         np.full(grams + 1, 1 / (grams + 1), dtype=np.float32))
        for t in range(words)
    ]
    compositions = composition_table(parts)
    inputs = rng.normal(0.0, 0.1, size=(words + buckets, dim)).astype(np.float32)
    w_out = rng.normal(0.0, 0.1, size=(words, dim)).astype(np.float32)
    positions, k = 64, 5
    contexts = rng.permutation(np.arange(positions * 4) % 60).reshape(positions, 4)
    targets = rng.integers(0, words, size=(positions, 1 + k))
    arrays = (targets[:, 0], targets[:, 1:], contexts, np.full(positions, 4))
    block = block_of(compositions, arrays, np.float32)
    tracemalloc.start()
    try:
        ns_block(inputs, w_out, compositions, *block, np.float32(0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(inputs), f"peak {peak / 1024:.0f} KB"


def test_block_step_keeps_at_most_three_output_gathers_alive():
    """A 64-position block at dimension 100 with 5 negatives, every output row
    distinct, peaks below three arrays the size of its (64, 6, 100) gather of
    output rows: that gather, or the output update plus the row gather its
    subtraction makes."""
    positions, k, dim, size = 64, 5, 100, 1000
    rng = np.random.default_rng(3)
    inputs = rng.normal(0.0, 0.1, size=(size, dim))
    w_out = rng.normal(0.0, 0.1, size=(size, dim))
    targets = rng.permutation(size)[: positions * (1 + k)].reshape(positions, 1 + k)
    contexts = rng.integers(0, 20, size=(positions, 4))
    lengths = np.full(positions, 4)
    compositions = word_compositions(size)
    block = block_of(compositions, (targets[:, 0], targets[:, 1:], contexts, lengths))
    tracemalloc.start()
    try:
        ns_block(inputs, w_out, compositions, *block, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * positions * (1 + k) * dim * 8, f"peak {peak / 1024:.0f} KB"
