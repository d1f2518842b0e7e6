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
    ns_position_grads,
)


class WordComposition:
    """CBOW input: the mean of the context words' input rows.

    A composition holds ``params``, the input-side arrays the hidden
    vector is made from. ``hidden(context)`` composes the hidden vector;
    ``descend(into, context, g_hidden, lr)`` subtracts ``lr`` times each
    source row's share of ``g_hidden`` from the matching row of ``into``,
    a tuple shaped like ``params``.
    """

    def __init__(self, w_in: np.ndarray):
        self.params = (w_in,)

    def hidden(self, context: np.ndarray) -> np.ndarray:
        return self.params[0][context].mean(axis=0)

    def descend(self, into, context, g_hidden, lr) -> None:
        np.subtract.at(into[0], context, lr * g_hidden / len(context))


# (center id, context ids, negative ids): one position with its negatives
# frozen, so the gradient check can recompute the loss from the same draw.
Sample = tuple[int, np.ndarray, np.ndarray]


def loss_and_grads(
    composition, w_out: np.ndarray, samples: Sequence[Sample]
) -> tuple[float, tuple[np.ndarray, ...], np.ndarray]:
    """Total loss plus dense gradients for ``composition.params`` and ``w_out``."""
    g_params = tuple(np.zeros_like(p) for p in composition.params)
    g_out = np.zeros_like(w_out)
    total = 0.0
    for center, context, negatives in samples:
        loss, g_hidden, g_center, g_negatives = ns_position_grads(
            composition.hidden(context), w_out, center, negatives
        )
        total += loss
        composition.descend(g_params, context, g_hidden, -1.0)  # a step of -1 adds the gradient
        g_out[center] += g_center
        np.add.at(g_out, negatives, g_negatives)
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
    total_steps = sum(len(ids) for ids in encoded) * config.epochs
    hidden, descend, params = composition.hidden, composition.descend, composition.params
    window, negatives_per_step = config.window, config.negative_samples

    step = 0
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        trained = 0
        for ids in encoded:
            n = len(ids)
            for i in range(n):
                lr = linear_lr(config.initial_learning_rate, step, total_steps)
                step += 1
                context = np.concatenate((ids[max(0, i - window) : i], ids[i + 1 : i + 1 + window]))
                if not len(context):
                    continue
                center = int(ids[i])
                negatives = sampler.draw(rng, negatives_per_step)
                negatives = negatives[negatives != center]
                loss, g_hidden, g_center, g_negatives = ns_position_grads(
                    hidden(context), w_out, center, negatives
                )
                w_out[center] -= lr * g_center
                np.subtract.at(w_out, negatives, lr * g_negatives)
                descend(params, context, g_hidden, lr)
                epoch_loss += loss
                trained += 1
        epoch_losses.append(epoch_loss / max(trained, 1))
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
