"""Context-average trainer: gradients, convergence, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import (
    ReferenceWordComposition,
    check_composition_gradients,
    reference_train_negative_sampling,
)

from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import (
    NGramConfig,
    TokenNotFoundError,
    TrainingConfig,
    train_cbow,
    train_fasttext,
)
from kgtyper.embeddings.base import (
    UnigramSampler,
    encode_corpus,
    init_input_vectors,
    linear_lr,
    ns_losses,
)
from kgtyper.embeddings.cbow import (
    CHUNK_POSITIONS,
    WordComposition,
    encode_training_corpus,
    train_negative_sampling,
)
from kgtyper.embeddings.fasttext import NGramTable, SubwordComposition
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


def test_context_average_is_row_mean():
    w_in = np.arange(12, dtype=np.float64).reshape(4, 3)
    context = np.array([0, 2])
    assert np.allclose(WordComposition(w_in).hidden(context), (w_in[0] + w_in[2]) / 2)


def test_word_composition_is_numpy_mean_and_subtract_at():
    """Row by row, bit for bit: ``mean(axis=0)`` and ``np.subtract.at``,
    repeated context tokens and a negative zero included."""
    rng = np.random.default_rng(6)
    w_in = rng.normal(0.0, 1.0, size=(5, 4)) * 10.0 ** rng.integers(-3, 4, size=(5, 1))
    w_in[3, 1] = -0.0
    composition, reference = WordComposition(w_in.copy()), ReferenceWordComposition(w_in.copy())
    assert np.array_equal(np.signbit(composition.hidden([3])), np.signbit(reference.hidden([3])))
    for context in ([3], [0, 2], [1, 4, 1], [3, 3, 0, 2, 3]):
        assert np.array_equal(composition.hidden(context), reference.hidden(np.array(context)))
        g_hidden = rng.normal(0.0, 1.0, size=4)
        composition.descend(composition.params, context, g_hidden, 0.3)
        reference.descend(reference.params, np.array(context), g_hidden, 0.3)
        assert np.array_equal(composition.params[0], reference.params[0])


def test_context_average_single_token_is_that_row():
    w_in = np.arange(12, dtype=np.float64).reshape(4, 3)
    assert np.array_equal(WordComposition(w_in).hidden(np.array([3])), w_in[3])


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
    check_composition_gradients(WordComposition(w_in), w_out, frozen_samples())


def test_gradient_check_from_ten_sentence_corpus():
    """Samples drawn exactly as the trainer would: window 2, sampled negatives."""
    corpus = tiny_corpus(10, 5, seed=11)
    vocab = build_vocabulary(corpus)
    assert len(vocab) == 5  # 5x5 input + 5x5 output = 50 parameters
    encoded = encode_corpus(corpus, vocab)
    sampler = UnigramSampler(vocab)
    rng = np.random.default_rng(23)

    samples = []
    window = 2
    for ids in encoded:
        for i in range(len(ids)):
            context = np.concatenate(
                (ids[max(0, i - window) : i], ids[i + 1 : i + 1 + window])
            )
            if not len(context):
                continue
            center = int(ids[i])
            negatives = sampler.draw(rng, 3)
            negatives = negatives[negatives != center]
            samples.append((center, context, negatives))
    assert samples

    init = np.random.default_rng(5)
    w_in = init.normal(0.0, 0.3, size=(5, 5))
    w_out = init.normal(0.0, 0.3, size=(5, 5))

    check_composition_gradients(WordComposition(w_in), w_out, samples)


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


@pytest.mark.parametrize("k", [5, 10])
def test_ns_losses_equal_one_position_at_a_time(k):
    """Rows of every kept count, scores spread wide: each loss is the
    sequential trainer's sum over that position's own negatives."""
    rng = np.random.default_rng(k)
    counts = rng.integers(0, k + 1, size=400)
    scores = rng.normal(0.0, 4.0, size=(400, 1 + k))
    softplus = lambda x: np.logaddexp(0.0, x)
    expected = [
        float(softplus(-row[0]) + softplus(row[1 : 1 + count]).sum())
        for row, count in zip(scores, counts)
    ]
    assert ns_losses(scores, counts).tolist() == expected


def self_loop_triples():
    """Triples over 6 tokens; every fourth has subject == object, so the
    predicate's context names one token twice."""
    rng = np.random.default_rng(12)
    tokens = [f"n{i}" for i in range(6)]
    triples = []
    for k in range(40):
        s, p, o = (tokens[j] for j in rng.integers(0, len(tokens), size=3))
        triples.append((s, p, s) if k % 4 == 0 else (s, p, o))
    return triples


# name -> (corpus, config, cases the sequential run must meet). A tiny
# vocabulary makes negatives equal to the center and repeated negatives
# frequent.
EXACTNESS_CASES = {
    "mixed-lengths-window1": (
        mixed_length_corpus,
        TrainingConfig(dimension=5, window=1, epochs=2, negative_samples=5, seed=3),
        {"no context", "negative equal to center", "repeated negative"},
    ),
    "self-loops-window2": (
        self_loop_triples,
        TrainingConfig(dimension=4, window=2, epochs=3, negative_samples=4, seed=5),
        {"repeated context token", "negative equal to center", "repeated negative"},
    ),
    # Ten negatives: numpy sums eight or more terms pairwise.
    "window3-ten-negatives": (
        mixed_length_corpus,
        TrainingConfig(
            dimension=6, window=3, epochs=3, initial_learning_rate=0.5, negative_samples=10, seed=7
        ),
        {"no context", "negative equal to center", "repeated negative"},
    ),
    # More than two schedule chunks per epoch, the last one partial.
    "three-chunks": (
        lambda: tiny_corpus(CHUNK_POSITIONS * 2 // 3 + 50, 30, seed=9),
        TrainingConfig(dimension=3, window=2, epochs=2, negative_samples=5, seed=9),
        {"negative equal to center", "repeated negative"},
    ),
}


def build_composition(kind: str, vocab, config, reference: bool):
    """A seeded generator plus a fresh composition drawn from it, as the
    public trainers set them up."""
    rng = np.random.default_rng(config.seed)
    w_in = init_input_vectors(rng, len(vocab), config.dimension)
    if kind == "word":
        return rng, (ReferenceWordComposition if reference else WordComposition)(w_in)
    tokens = [vocab.token_of(i) for i in range(len(vocab))]
    table = NGramTable(NGramConfig(2, 4, 61), tokens, rng, config.dimension)
    rows = [np.searchsorted(table.bucket_ids, table.bucket_indices(t)) for t in tokens]
    return rng, SubwordComposition(w_in, table.rows, rows)


@pytest.mark.parametrize("kind", ["word", "subword"])
@pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
def test_trainer_equals_sequential_reference(case, kind):
    make_corpus, config, cases = EXACTNESS_CASES[case]
    corpus = make_corpus()
    vocab = build_vocabulary(corpus)
    encoded = encode_training_corpus(corpus, vocab)

    rng, composition = build_composition(kind, vocab, config, reference=False)
    w_out, epoch_losses = train_negative_sampling(encoded, vocab, config, rng, composition)
    ref_rng, reference = build_composition(kind, vocab, config, reference=True)
    ref_out, ref_losses, seen = reference_train_negative_sampling(
        encoded, vocab, config, ref_rng, reference
    )

    assert all(seen[name] for name in cases), seen
    positions = sum(map(len, encoded))
    if case == "three-chunks":
        assert positions > 2 * CHUNK_POSITIONS and positions % CHUNK_POSITIONS
    assert np.array_equal(w_out, ref_out)
    for trained, expected in zip(composition.params, reference.params, strict=True):
        assert np.array_equal(trained, expected)
    assert epoch_losses == ref_losses
    assert rng.bit_generator.state == ref_rng.bit_generator.state
