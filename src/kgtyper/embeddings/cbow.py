"""Continuous bag-of-words trainer with negative sampling.

One stochastic gradient step per token position: the in-window context
inputs are composed into a hidden vector, the center token is scored
against it through a sigmoid, and the negative-sampling objective

    L = -log sigmoid(u_c . h) - sum_n log sigmoid(-u_n . h)

is minimized, with the hidden gradient sent back to the rows the hidden
vector came from. Training is single-threaded and bitwise deterministic
for a fixed seed.

The loop here serves both CBOW and the subword trainer, which differ only
in the input composition: CBOW averages the context words' input rows
(``WordComposition``); the subword trainer composes each word from its
word row and its character n-gram bucket rows (``fasttext.py``).

Everything a step needs that does not depend on the parameters is worked
out ahead of the steps: once per training, the step index, center and
context of every position (``position_table``); once per chunk of
``CHUNK_POSITIONS`` positions, the learning rates, the negatives, which of
them are kept and whether a kept one repeats. The per-position loop is
left with one gather of the output rows, one call of ``ns_position_grads``
and the updates; the losses are computed per chunk from the stored scores.
This gives the position-at-a-time result bit for bit:

- PCG64 takes one 64-bit draw per double, so one draw of ``m * k`` uniforms
  is the stream of ``m`` draws of ``k``;
- integer steps divide exactly as Python's true division does, so the
  array of learning rates equals the scalar ones;
- ``ns_losses`` sums each row over exactly that position's negatives, so
  each loss is the one a single position's call computes, and the epoch
  loss adds them one at a time, in position order;
- one fancy-indexed assignment equals ``np.subtract.at`` when no row
  repeats; a chunk flags the positions whose negatives repeat, and those
  use ``np.subtract.at``.

Positions are not processed in blocks that share the parameters read at
the start of the block, as minibatch word2vec does: that changes the
vectors. Nor in conflict-free levels as ``train_glove`` does: the center,
the negatives and the context of neighbouring positions overlap so often
that a level holds under two positions on the benchmark corpora.

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
    encode_corpus,
    init_input_vectors,
    linear_lr,
    ns_losses,
    ns_position_grads,
)

CHUNK_POSITIONS = 1024  # positions per precomputed schedule chunk


class WordComposition:
    """CBOW input: the mean of the context words' input rows.

    A composition holds ``params``, the input-side arrays the hidden
    vector is made from. ``hidden(context)`` composes the hidden vector;
    ``descend(into, context, g_hidden, lr)`` subtracts ``lr`` times each
    source row's share of ``g_hidden`` from the matching row of ``into``,
    a tuple shaped like ``params``. Both take the context as a sequence
    of token ids, repeats allowed.
    """

    def __init__(self, w_in: np.ndarray):
        self.params = (w_in,)

    def hidden(self, context) -> np.ndarray:
        # Adds from zero, row by row, then divides: the arithmetic of
        # ``w_in[context].mean(axis=0)`` without its fancy index.
        w_in = self.params[0]
        total = np.zeros(w_in.shape[1])
        for token in context:
            total += w_in[token]
        total /= len(context)
        return total

    def descend(self, into, context, g_hidden, lr) -> None:
        # One subtraction per occurrence, in order: ``np.subtract.at``.
        target = into[0]
        share = lr * g_hidden / len(context)
        for token in context:
            row = target[token]
            row -= share


# (center id, context ids, negative ids): one position with its negatives
# frozen, so the gradient check can recompute the loss from the same draw.
Sample = tuple[int, np.ndarray, np.ndarray]


def loss_and_grads(
    composition, w_out: np.ndarray, samples: Sequence[Sample]
) -> tuple[float, tuple[np.ndarray, ...], np.ndarray]:
    """Total loss plus dense gradients for ``composition.params`` and ``w_out``,
    from the trainer's own ``ns_position_grads`` and ``ns_losses``."""
    g_params = tuple(np.zeros_like(p) for p in composition.params)
    g_out = np.zeros_like(w_out)
    total = 0.0
    for center, context, negatives in samples:
        rows = np.concatenate(([center], negatives))
        hidden = composition.hidden(context)
        scores, g_hidden, coef = ns_position_grads(hidden, w_out[rows])
        total += float(ns_losses(scores[None], [len(negatives)])[0])
        composition.descend(g_params, context, g_hidden, -1.0)  # a step of -1 adds the gradient
        np.add.at(g_out, rows, coef[:, None] * hidden)
    return total, g_params, g_out


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


def draw_negatives(
    sampler: UnigramSampler, rng: np.random.Generator, centers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``k`` negatives for each of ``centers``, in one call.

    Returns ``(rows, counts, repeats)``: per position the output rows it
    scores (the center, then the negatives not equal to it in draw order,
    then unused entries), how many negatives it keeps, and whether a kept
    negative occurs twice.
    """
    m = len(centers)
    negatives = sampler.draw(rng, m * k).reshape(m, k)
    kept = negatives != centers[:, None]
    rows = np.empty((m, 1 + k), dtype=np.intp)
    rows[:, 0] = centers
    rows[:, 1:] = np.take_along_axis(negatives, np.argsort(~kept, axis=1, kind="stable"), axis=1)
    # Dropped negatives become distinct ids below zero, so only kept ones can pair up.
    marked = np.sort(np.where(kept, negatives, -1 - np.arange(k)), axis=1)
    repeats = (marked[:, 1:] == marked[:, :-1]).any(axis=1)
    return rows, kept.sum(axis=1), repeats


def train_negative_sampling(
    encoded: Sequence[np.ndarray],
    vocab: Vocabulary,
    config: TrainingConfig,
    rng: np.random.Generator,
    composition,
) -> tuple[np.ndarray, list[float]]:
    """Train ``composition.params`` in place; return the output rows and epoch losses.

    The learning rate decays linearly over ``total positions x epochs``
    down to 1e-4 of the initial rate. Negatives drawn equal to the center
    token are dropped for that step. The mean per-position loss is
    recorded per epoch.
    """
    w_out = np.zeros((len(vocab), config.dimension))
    sampler = UnigramSampler(vocab)
    positions, steps, centers, contexts, lengths = position_table(encoded, config.window)
    total_steps = positions * config.epochs
    hidden, descend, params = composition.hidden, composition.descend, composition.params

    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for start in range(0, len(steps), CHUNK_POSITIONS):
            chunk = slice(start, start + CHUNK_POSITIONS)
            lrs = linear_lr(
                config.initial_learning_rate, epoch * positions + steps[chunk], total_steps
            )
            rows, counts, repeats = draw_negatives(
                sampler, rng, centers[chunk], config.negative_samples
            )
            scores = np.empty(rows.shape)
            schedule = zip(
                contexts[chunk].tolist(), lengths[chunk].tolist(), lrs.tolist(),
                (counts + 1).tolist(), repeats.tolist(),
            )
            for j, (context, length, lr, end, repeat) in enumerate(schedule):
                context = context[:length]
                index = rows[j, :end]
                h = hidden(context)
                u = w_out.take(index, axis=0)
                scores[j, :end], g_hidden, coef = ns_position_grads(h, u)
                update = np.multiply.outer(coef, h)
                update *= lr  # lr * (coef * h), as products commute
                if repeat:
                    np.subtract.at(w_out, index, update)
                else:
                    u -= update
                    w_out[index] = u
                descend(params, context, g_hidden, lr)
            for loss in ns_losses(scores, counts).tolist():  # one at a time, in order
                epoch_loss += loss
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
        encoded, vocab, config, rng, WordComposition(w_in)
    )
    matrix = EmbeddingMatrix(w_in + w_out, w_out, vocab, epoch_losses)
    matrix.check_finite()
    return matrix
