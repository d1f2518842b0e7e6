"""Continuous bag-of-words trainer with negative sampling.

Each token position composes its in-window context into a hidden vector,
scores the center token against it through a sigmoid, and minimizes the
negative-sampling objective

    L = -log sigmoid(u_c . h) - sum_n log sigmoid(-u_n . h)

with the hidden gradient sent back to the input rows the hidden vector
came from. Training is single-threaded and bitwise deterministic for a
fixed seed.

The positions run in corpus order, in blocks of ``BLOCK_POSITIONS``
(``ns_block``). Every position of a block reads the parameters as the
previous block left them; the block's center and negative rows are scored
by one batched product, and its summed gradient is applied once: one
update of the output rows, and one per distinct context token on the
input side, as minibatch word2vec does (Ji et al. 2016, arXiv
1604.04661). On the acceptance experiment blocks of 32-128 positions give
the same accuracy; blocks of 256 overflow in ``exp`` at learning rate
0.15.

A composition is data: ``compositions[t]`` holds the input rows token
``t`` is made of and their weights, and its composed vector is
``weights @ inputs[rows]``. CBOW makes each token of its own row, weight 1
(``word_compositions``); the subword trainer adds the token's n-gram
bucket rows (``fasttext.py``). A position's hidden vector is the mean of
its context tokens' composed vectors.

The exported CBOW vector of a token is the sum of its input and output
rows, the same convention the co-occurrence trainer uses for w + w-tilde;
the sum averages out per-side sampling noise, which matters on small
corpora where each entity token is seen only a handful of times.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import DataError
from .base import (
    EmbeddingMatrix,
    TrainingConfig,
    UnigramSampler,
    distinct_counts,
    encode_corpus,
    init_input_vectors,
    linear_lr,
)

BLOCK_POSITIONS = 64  # positions per block step

# The input rows one token is composed of, and the weight of each.
Composition = tuple[np.ndarray, np.ndarray]


def word_compositions(count: int) -> list[Composition]:
    """CBOW's compositions: token ``t`` is input row ``t``, weight 1."""
    one = np.ones(1)
    return [(np.array([t]), one) for t in range(count)]


def encode_training_corpus(corpus: Iterable[Sentence], vocab: Vocabulary) -> list[np.ndarray]:
    """Encoded sentences, rejecting a corpus that leaves nothing to train."""
    sentences = list(corpus)
    if not sentences:
        raise DataError("cannot train on an empty corpus")
    if len(vocab) == 0:
        raise DataError("cannot train with an empty vocabulary")
    encoded = encode_corpus(sentences, vocab)
    if not any(len(ids) for ids in encoded):
        raise DataError("corpus and vocabulary share no tokens")
    return encoded


def position_table(
    encoded: Sequence[np.ndarray], window: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The positions of one epoch that have a context, in corpus order.

    Returns ``(positions, steps, centers, contexts, lengths)``: the number
    of positions in the corpus, then per position with a context its step
    within the epoch, its center id, its context ids left-packed (the left
    neighbours, then the right ones, each in sentence order) and their
    count. A position without context trains nothing, but still advances
    the learning-rate schedule.
    """
    ids = np.concatenate(encoded)
    sizes = np.array([len(sentence) for sentence in encoded])
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    stop = first + np.repeat(sizes, sizes)
    reach = min(window, int(sizes.max()) - 1)  # no context lies further away
    offsets = np.concatenate((np.arange(-reach, 0), np.arange(1, reach + 1)))
    neighbours = np.arange(len(ids))[:, None] + offsets
    inside = (neighbours >= first[:, None]) & (neighbours < stop[:, None])
    lengths = inside.sum(axis=1)
    steps = np.flatnonzero(lengths)
    inside = inside[steps]
    context_ids = np.where(inside, ids[np.clip(neighbours[steps], 0, len(ids) - 1)], 0)
    packed = np.take_along_axis(context_ids, np.argsort(~inside, axis=1, kind="stable"), axis=1)
    return len(ids), steps, ids[steps], packed, lengths[steps]


def _row_weights(
    ids: np.ndarray, columns: np.ndarray, weights: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` and a ``(len(distinct), width)`` matrix that sums
    each ``weights[n]`` into the row of ``ids[n]`` and column ``columns[n]``."""
    distinct, _ = distinct_counts(ids)
    flat = np.searchsorted(distinct, ids) * width + columns
    return distinct, np.bincount(flat, weights, len(distinct) * width).reshape(-1, width)


def ns_block(
    inputs: np.ndarray,
    w_out: np.ndarray,
    compositions: Sequence[Composition],
    centers: np.ndarray,
    negatives: np.ndarray,
    contexts: np.ndarray,
    lengths: np.ndarray,
    lr: float,
    into: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """One negative-sampling step over a block of positions; returns its summed loss.

    Position ``b`` scores center ``centers[b]`` and the negatives
    ``negatives[b]`` against the mean of its context tokens
    ``contexts[b, :lengths[b]]``; a negative equal to its center is masked
    out. The step subtracts ``lr`` times the gradient of the summed loss
    from ``into``, a pair shaped like ``(inputs, w_out)`` that defaults to
    them. Every read comes before the first write, so a step of -1 into
    zero arrays yields the gradient.
    """
    into_inputs, into_out = (inputs, w_out) if into is None else into
    present = np.arange(contexts.shape[1]) < lengths[:, None]
    tokens, share = _row_weights(
        contexts[present], np.nonzero(present)[0], np.repeat(1.0 / lengths, lengths), len(centers)
    )
    composed = np.empty((len(tokens), inputs.shape[1]))
    for i, token in enumerate(tokens.tolist()):
        rows, weights = compositions[token]
        composed[i] = weights @ inputs[rows]
    hidden = share.T @ composed

    targets = np.column_stack((centers, negatives))
    u = w_out[targets]  # (B, 1 + k, d): the center row, then the negative rows
    scores = np.matmul(u, hidden[:, :, None])[:, :, 0]
    kept = targets != targets[:, :1]
    kept[:, 0] = True
    signed = scores.copy()
    signed[:, 0] *= -1.0
    loss = float(np.logaddexp(0.0, signed)[kept].sum())
    coef = 1.0 / (1.0 + np.exp(-scores))  # d loss / d score: sigmoid, minus 1 at the center
    coef[:, 0] -= 1.0
    coef *= kept
    g_tokens = share @ np.matmul(coef[:, None, :], u)[:, 0]

    out_rows, g_out = _row_weights(
        targets.ravel(), np.repeat(np.arange(len(centers)), targets.shape[1]), coef.ravel(),
        len(centers),
    )
    into_out[out_rows] -= lr * (g_out @ hidden)
    g_tokens *= lr
    for token, g in zip(tokens.tolist(), g_tokens):
        rows, weights = compositions[token]
        into_inputs[rows] -= np.multiply.outer(weights, g)
    return loss


def train_negative_sampling(
    encoded: Sequence[np.ndarray],
    vocab: Vocabulary,
    config: TrainingConfig,
    rng: np.random.Generator,
    inputs: np.ndarray,
    compositions: Sequence[Composition],
) -> tuple[np.ndarray, list[float]]:
    """Train ``inputs`` in place; return the output rows and epoch losses.

    The learning rate decays linearly over ``total positions x epochs``
    down to 1e-4 of the initial rate; a block takes the rate of its first
    position. The mean per-position loss is recorded per epoch.
    """
    w_out = np.zeros((len(vocab), config.dimension))
    sampler = UnigramSampler(vocab)
    positions, steps, centers, contexts, lengths = position_table(encoded, config.window)
    total_steps = positions * config.epochs
    k = config.negative_samples

    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for start in range(0, len(steps), BLOCK_POSITIONS):
            block = slice(start, start + BLOCK_POSITIONS)
            lr = linear_lr(config.initial_learning_rate, epoch * positions + steps[start], total_steps)
            negatives = sampler.draw(rng, len(centers[block]) * k).reshape(-1, k)
            epoch_loss += ns_block(
                inputs, w_out, compositions, centers[block], negatives,
                contexts[block], lengths[block], lr,
            )
        epoch_losses.append(epoch_loss / max(len(steps), 1))
    return w_out, epoch_losses


def train_cbow(
    corpus: Iterable[Sentence], vocab: Vocabulary, config: TrainingConfig
) -> EmbeddingMatrix:
    """Train input/output vectors for every vocabulary token.

    The returned matrix serves the input + output sums and records the
    mean per-position loss of each epoch.
    """
    config.validate()
    encoded = encode_training_corpus(corpus, vocab)
    rng = np.random.default_rng(config.seed)
    w_in = init_input_vectors(rng, len(vocab), config.dimension)
    w_out, epoch_losses = train_negative_sampling(
        encoded, vocab, config, rng, w_in, word_compositions(len(vocab))
    )
    matrix = EmbeddingMatrix(w_in + w_out, w_out, vocab, epoch_losses)
    matrix.check_finite()
    return matrix
