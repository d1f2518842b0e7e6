"""Co-occurrence counting and the weighted least-squares trainer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from conftest import (
    assert_gradients_close,
    cooccurrence_events,
    cooccurrence_oracle,
    glove_loss_and_grads,
    numeric_gradient,
    random_corpus,
    reference_entry_constants,
    reference_train_glove,
)

from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import (
    CooccurrenceMatrix,
    TrainingConfig,
    build_cooccurrence,
    glove_weight,
    train_glove,
)
from kgtyper.embeddings.base import init_input_vectors
from kgtyper.embeddings.glove import BLOCK_ENTRIES, entry_levels
from kgtyper.errors import DataError


def ids(vocab, *tokens):
    return [vocab.id_of(t) for t in tokens]


def test_single_sentence_window_two():
    corpus = [("a", "b", "c")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    a, b, c = ids(vocab, "a", "b", "c")
    assert matrix.get(a, b) == 1.0
    assert matrix.get(b, c) == 1.0
    assert matrix.get(a, c) == 0.5
    assert matrix.get(c, a) == 0.5  # symmetric


def test_single_sentence_window_one_drops_distance_two_pair():
    corpus = [("a", "b", "c")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=1)
    a, b, c = ids(vocab, "a", "b", "c")
    assert matrix.get(a, b) == 1.0
    assert matrix.get(b, c) == 1.0
    assert matrix.get(a, c) == 0.0


def test_oov_member_skipped_but_distance_uses_original_positions():
    corpus = [("a", "q", "c"), ("a", "b", "c"), ("a", "b", "c")]
    vocab = build_vocabulary(corpus, min_count=2)  # q occurs once and is dropped
    assert "q" not in vocab
    matrix = build_cooccurrence(corpus, vocab, window=2)
    a, c = ids(vocab, "a", "c")
    # First sentence contributes (a, c) at distance 2 even though the
    # intervening token is out of vocabulary.
    assert matrix.get(a, c) == 0.5 * 3


def test_repeated_token_accumulates_and_diagonal_counted_once():
    corpus = [("a", "b", "a")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    a, b = ids(vocab, "a", "b")
    assert matrix.get(a, b) == 2.0
    assert matrix.get(b, a) == 2.0
    assert matrix.get(a, a) == 0.5


def test_sentences_never_cooccur_across_boundaries():
    corpus = [("a", "b", "c"), ("d", "e", "f")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    assert matrix.get(vocab.id_of("c"), vocab.id_of("d")) == 0.0


def test_window_below_one_rejected():
    corpus = [("a", "b", "c")]
    vocab = build_vocabulary(corpus)
    with pytest.raises(ValueError):
        build_cooccurrence(corpus, vocab, window=0)


@pytest.mark.parametrize("seed", range(10))
def test_matches_brute_force_oracle_exactly(seed):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, max_tokens=300)
    min_count = int(rng.integers(1, 3))
    vocab = build_vocabulary(corpus, min_count=min_count)
    window = int(rng.integers(1, 3))
    matrix = build_cooccurrence(corpus, vocab, window)
    assert matrix.items() == cooccurrence_oracle(corpus, vocab, window)


def sequential_sum(weights) -> float:
    total = 0.0
    for weight in weights:
        total += weight
    return total


@pytest.mark.parametrize("window", [3, 4])
def test_matches_oracle_where_summation_order_matters(window):
    # Pairs of three common tokens repeat many times at every distance up to
    # the window, a token meets itself, and a once-seen token (dropped at
    # min_count 2) leaves a gap in each sentence.
    rng = np.random.default_rng(window)
    corpus = []
    for k in range(60):
        tokens = [("a", "b", "c")[t] for t in rng.integers(0, 3, size=int(rng.integers(4, 9)))]
        tokens[int(rng.integers(1, len(tokens) - 1))] = f"once{k}"
        corpus.append(tuple(tokens))
    vocab = build_vocabulary(corpus, min_count=2)
    assert len(vocab) == 3
    events: dict[tuple[int, int], list[float]] = {}
    for i, j, weight in cooccurrence_events(corpus, vocab, window):
        events.setdefault((i, j), []).append(weight)
    assert min(len(weights) for weights in events.values()) >= 10
    assert all(len(set(weights)) == window for weights in events.values())
    assert any(i == j for i, j in events)
    # Added in another order, some weights round differently, so the
    # comparison below sees the order in which build_cooccurrence adds.
    assert any(
        sequential_sum(sorted(weights)) != sequential_sum(weights) for weights in events.values()
    )
    assert any(
        sequential_sum(weights[::-1]) != sequential_sum(weights) for weights in events.values()
    )
    matrix = build_cooccurrence(corpus, vocab, window)
    assert matrix.items() == cooccurrence_oracle(corpus, vocab, window)


def test_entries_are_symmetric_on_random_corpus():
    rng = np.random.default_rng(99)
    corpus = random_corpus(rng, max_tokens=600)
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    assert len(matrix) > 0
    for i, j, weight in matrix.items():
        assert matrix.get(j, i) == weight


def test_items_are_deterministically_ordered():
    corpus = [("b", "a", "c"), ("c", "a", "b")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    listed = matrix.items()
    assert listed == sorted(listed)


def test_weight_function_shape():
    assert glove_weight(100.0, x_max=100.0, alpha=0.75) == 1.0
    assert glove_weight(250.0, x_max=100.0, alpha=0.75) == 1.0
    assert glove_weight(50.0, x_max=100.0, alpha=0.75) == pytest.approx(0.5**0.75)
    assert glove_weight(1.0, x_max=100.0, alpha=0.75) == pytest.approx(0.01**0.75)


@pytest.mark.parametrize("window", [2, 5])
def test_entry_constants_equal_scalar_reference_in_float32(window):
    """``np.log`` and ``glove_weight`` on arrays equal the per-scalar values
    once cast to float32, as the trainer holds them, on a corpus whose weights sum
    thirds, quarters and fifths, and on counts at, around and above x_max."""
    corpus = sentences(np.random.default_rng(6), 40, 3000)
    _, _, x = build_cooccurrence(corpus, build_vocabulary(corpus), window).arrays()
    x = np.concatenate((x, [1e-3, 0.2, 1.0, 99.99999, 100.0, 100.5, 250.0, 1e6]))
    for x_max, alpha in ((100.0, 0.75), (10.0, 0.5), (3.0, 1.0)):
        arrays = np.log(x), glove_weight(x, x_max, alpha)
        scalars = reference_entry_constants(x.tolist(), x_max, alpha)
        for got, want in zip(arrays, scalars):
            assert np.array_equal(got.astype(np.float32), want.astype(np.float32))


def test_gradient_check_on_real_cooccurrence():
    corpus = [("a", "b", "c"), ("c", "d", "e"), ("a", "e", "b")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    entries = matrix.items()
    rng = np.random.default_rng(3)
    # 5x2 + 5x2 + 5 + 5 = 30 parameters; each bias is its side's last column.
    w = rng.normal(0.0, 0.4, size=(5, 2))
    wt = rng.normal(0.0, 0.4, size=(5, 2))
    b = rng.normal(0.0, 0.4, size=5)
    bt = rng.normal(0.0, 0.4, size=5)
    w, wt = np.column_stack([w, b]), np.column_stack([wt, bt])

    _, g_w, g_wt = glove_loss_and_grads(w, wt, entries)

    def current():
        return glove_loss_and_grads(w, wt, entries)[0]

    for analytic in (g_w, g_wt):
        assert np.all(analytic != 0.0), "a parameter entry gets no gradient"
    assert_gradients_close(g_w, numeric_gradient(current, w))
    assert_gradients_close(g_wt, numeric_gradient(current, wt))


def sentences(rng, alphabet: int, count: int):
    """``count`` random sentences of 2 to 6 tokens over ``alphabet`` tokens,
    so windows up to 3 see distinct pairs and tokens repeat."""
    tokens = [f"t{k}" for k in range(alphabet)]
    return [
        tuple(tokens[k] for k in rng.integers(0, alphabet, size=int(rng.integers(2, 7))))
        for _ in range(count)
    ]


def assert_matches_reference(matrix, vocab, config, **weighting):
    blocked = train_glove(matrix, vocab, config, **weighting)
    sequential = reference_train_glove(matrix, vocab, config, **weighting)
    assert np.array_equal(blocked.input_vectors, sequential.input_vectors)
    assert np.array_equal(blocked.output_vectors, sequential.output_vectors)
    assert blocked.epoch_losses == sequential.epoch_losses


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_blocked_trainer_matches_sequential_reference_exactly(seed, window):
    rng = np.random.default_rng(seed)
    corpus = sentences(rng, alphabet=int(rng.integers(3, 15)), count=80)
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window)
    assert any(i == j for i, j, _ in matrix.items())  # a token within its own window
    config = TrainingConfig(
        dimension=int(rng.integers(1, 12)), window=window, epochs=3,
        initial_learning_rate=0.1, seed=seed,
    )
    # x_max 2 saturates part of the weights.
    assert_matches_reference(matrix, vocab, config, x_max=2.0 if seed % 2 else 100.0)


def test_blocked_trainer_matches_reference_when_levels_are_split():
    rng = np.random.default_rng(5)
    corpus = sentences(rng, alphabet=400, count=800)
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    config = TrainingConfig(dimension=6, epochs=3, seed=2)
    # The first epoch's shuffle, drawn as the trainer draws it.
    trainer_rng = np.random.default_rng(config.seed)
    init_input_vectors(trainer_rng, len(vocab), config.dimension)
    i, j, _ = matrix.arrays()
    order = trainer_rng.permutation(len(matrix))
    widths = np.bincount(entry_levels(i[order], j[order], len(vocab)))
    assert widths.max() > BLOCK_ENTRIES
    assert_matches_reference(matrix, vocab, config)


def test_entry_levels_follow_shared_rows():
    # (0, 1) and (2, 0) share no row; (0, 2) follows (0, 1) through w row 0,
    # and (1, 1) follows it through wt row 1.
    levels = entry_levels(np.array([0, 0, 1, 2]), np.array([1, 2, 1, 0]), size=3)
    assert levels.tolist() == [1, 2, 2, 1]


def test_entry_levels_hold_no_list_of_the_entries():
    """One call on 20,000 shuffled entries of a 1,200-token vocabulary peaks
    below 32 bytes per entry: its list of levels (small ints, all below 257,
    which Python keeps one object each of) and the array made from it, with
    no list of the rows or columns beside them."""
    rng = np.random.default_rng(4)
    corpus = sentences(rng, alphabet=1200, count=4000)
    vocab = build_vocabulary(corpus)
    i, j, _ = build_cooccurrence(corpus, vocab, window=2).arrays()
    order = rng.permutation(len(i))[:20000]
    i, j = i[order], j[order]
    tracemalloc.start()
    try:
        levels = entry_levels(i, j, len(vocab))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert levels.max() < 257
    assert peak < 32 * len(i), f"{peak / len(i):.1f} bytes per entry"


def test_arrays_follow_items_order():
    rng = np.random.default_rng(8)
    corpus = sentences(rng, alphabet=9, count=30)
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=3)
    i, j, x = matrix.arrays()
    assert list(zip(i.tolist(), j.tolist(), x.tolist())) == matrix.items()


@pytest.mark.parametrize(
    "weighting",
    [{"x_max": 0.0}, {"x_max": -5.0}, {"x_max": float("nan")}, {"x_max": float("inf")},
     {"alpha": -3.0}, {"alpha": float("nan")}, {"alpha": float("inf")}],
)
def test_bad_weighting_rejected_before_training(weighting):
    corpus = [("a", "b", "c")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    with pytest.raises(ValueError):
        train_glove(matrix, vocab, TrainingConfig(dimension=4), **weighting)


def test_single_entry_converges():
    vocab = build_vocabulary([("a", "b", "pad")])
    a, b = sorted(ids(vocab, "a", "b"))
    matrix = CooccurrenceMatrix(len(vocab), [a, b], [b, a], [4.0, 4.0])  # log target != 0
    config = TrainingConfig(dimension=5, epochs=300, initial_learning_rate=0.05, seed=1)
    # With x_max=1 every weight is 1, so the epoch loss is the mean squared
    # residual of the log-count fit; convergence within 1e-3 means the
    # residual itself is below 1e-3.
    model = train_glove(matrix, vocab, config, x_max=1.0)
    assert model.epoch_losses[0] > 1e-2
    assert model.epoch_losses[-1] < 1e-6


def test_epoch_loss_decreases_on_larger_corpus():
    rng = np.random.default_rng(17)
    corpus = random_corpus(rng, max_tokens=600)
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    config = TrainingConfig(dimension=8, epochs=10, initial_learning_rate=0.05, seed=1)
    model = train_glove(matrix, vocab, config)
    assert len(model.epoch_losses) == 10
    assert model.epoch_losses[9] < model.epoch_losses[0]


def test_same_seed_is_bitwise_identical():
    corpus = [("a", "b", "c"), ("b", "c", "d")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    config = TrainingConfig(dimension=6, epochs=5, seed=11)
    first = train_glove(matrix, vocab, config)
    second = train_glove(matrix, vocab, config)
    assert np.array_equal(first.input_vectors, second.input_vectors)
    assert np.array_equal(first.output_vectors, second.output_vectors)
    assert first.epoch_losses == second.epoch_losses


def test_trainer_state_is_float32_but_matrices_are_float64():
    corpus = [("a", "b", "c"), ("b", "c", "d")]
    vocab = build_vocabulary(corpus)
    matrix = build_cooccurrence(corpus, vocab, window=2)
    model = train_glove(matrix, vocab, TrainingConfig(dimension=6, epochs=2, seed=3))
    assert model.input_vectors.dtype == model.output_vectors.dtype == np.float64
    assert model.input_vectors.shape == model.output_vectors.shape == (len(vocab), 6)
    # Every coordinate of the context side is a float32 value widened.
    context = model.output_vectors
    assert np.array_equal(context.astype(np.float32).astype(np.float64), context)


def test_empty_matrix_rejected():
    vocab = build_vocabulary([("a", "b", "c")])
    with pytest.raises(DataError):
        train_glove(CooccurrenceMatrix(len(vocab)), vocab, TrainingConfig(dimension=4))


def test_non_positive_count_rejected():
    for weight in (-1.0, 0.0, -2.0):
        with pytest.raises(DataError, match="non-positive co-occurrence weight at"):
            CooccurrenceMatrix(3, [0, 1], [1, 0], [1.0, weight])


def test_add_ignores_non_positive_weights():
    # A zero or negative weight never becomes an entry: a lone one is refused
    # and the matrix without it stays empty.
    for weight in (0.0, -2.0):
        with pytest.raises(DataError):
            CooccurrenceMatrix(3, [0], [1], [weight])
    matrix = CooccurrenceMatrix(3)
    assert len(matrix) == 0
    assert matrix.get(0, 1) == 0.0


def test_entries_must_be_sorted_and_distinct():
    assert len(CooccurrenceMatrix(3, [0, 1, 1], [2, 0, 1], [1.0, 2.0, 3.0])) == 3
    for rows, cols in (([1, 0], [0, 1]), ([0, 0], [1, 1])):
        with pytest.raises(ValueError):
            CooccurrenceMatrix(3, rows, cols, [1.0, 1.0])
