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
0.15. Each input of a block is prepared as rarely as it changes: the
context side once per run (``BlockLayout``), the negatives and targets
once per ``CHUNK_POSITIONS`` positions, the rates once per epoch.

A composition is data: token ``t`` is made of some input rows, each with
a weight, and composes to ``weights @ inputs[rows]``. CBOW makes each token
of its own row, weight 1 (``word_compositions``); the subword trainer adds
the token's n-gram bucket rows (``fasttext.py``). A position's hidden
vector is the mean of its context tokens' composed vectors. A
``CompositionTable``, built once per run, holds every token's rows: a
block composes and updates its one-row tokens that share no row (every
CBOW token) by one gather and one scatter, and the rest by a dense
(rows x tokens) mixing matrix: one product composes, one updates each row.

The exported CBOW vector of a token is the float64 sum of its input and
output rows, the same convention the co-occurrence trainer uses for w +
w-tilde; the sum averages out per-side sampling noise, which matters on
small corpora where each entity token is seen only a handful of times.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import DataError
from .base import (
    EmbeddingMatrix, TrainingConfig, UnigramSampler, init_input_vectors, linear_lr,
)

BLOCK_POSITIONS = 64  # positions per block step
CHUNK_POSITIONS = 16 * BLOCK_POSITIONS  # positions whose negatives are drawn at once


class CompositionTable:
    """Each token's input rows and weights, from flat arrays in which token
    ``t`` owns ``counts[t]`` entries of ``rows`` and ``weights`` from
    ``starts[t]``. As arrays, which tokens a block may gather at once:
    ``single[t]`` marks a token of one row, ``first_row[t]``, of weight 1,
    that no other token uses. ``slots`` holds a scratch cell per token and
    per row."""

    def __init__(self, rows: np.ndarray, weights: np.ndarray, counts: np.ndarray):
        self.rows, self.weights, self.counts = rows, weights, counts
        self.starts = np.cumsum(counts) - counts
        self.first_row, first_weight = rows[self.starts], weights[self.starts]
        self.single = (counts == 1) & (first_weight == 1.0)
        self.single &= np.bincount(rows)[self.first_row] == 1
        self.slots = np.empty(max(len(counts), rows.max(initial=-1) + 1), dtype=np.intp)

    def mixing(self, tokens: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of ``tokens`` and their ``(rows, tokens)`` weights, as ``dtype``."""
        counts = self.counts[tokens]
        ends = np.cumsum(counts)
        entries = np.arange(ends[-1]) + np.repeat(self.starts[tokens] - ends + counts, counts)
        return _row_weights(
            self.rows[entries], np.repeat(np.arange(len(tokens)), counts), self.weights[entries],
            len(tokens), self.slots, dtype,
        )


def word_compositions(count: int) -> CompositionTable:
    """CBOW's compositions: token ``t`` is input row ``t``, weight 1."""
    return CompositionTable(np.arange(count), np.ones(count), np.ones(count, dtype=np.intp))


def encode_training_corpus(
    corpus: Iterable[Sentence], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    """The corpus's in-vocabulary token ids, in corpus order, and how many
    of them each sentence holds (0 for a sentence without one); rejects a
    corpus that leaves nothing to train."""
    sentences = list(corpus)
    if not sentences:
        raise DataError("cannot train on an empty corpus")
    if len(vocab) == 0:
        raise DataError("cannot train with an empty vocabulary")
    ids = vocab.ids(chain.from_iterable(sentences))
    known = ids >= 0
    if not known.any():
        raise DataError("corpus and vocabulary share no tokens")
    sentence_of = np.repeat(np.arange(len(sentences)), [len(s) for s in sentences])
    return ids[known], np.bincount(sentence_of[known], minlength=len(sentences))


def position_table(
    ids: np.ndarray, sizes: np.ndarray, window: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The positions of one epoch that have a context, in corpus order.

    Returns ``(positions, steps, centers, contexts, lengths)``: the number
    of positions in the corpus, then per position with a context its step
    within the epoch, its center id, its context ids left-packed (the left
    neighbours, then the right ones, each in sentence order) and their
    count. A position without context trains nothing, but still advances
    the learning-rate schedule.
    """
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


def _summed(cells: np.ndarray, weights: np.ndarray, height: int, width: int, dtype) -> np.ndarray:
    """The ``(height, width)`` sums of ``weights[n]`` into flat cell ``cells[n]``, as ``dtype``."""
    sums = np.bincount(cells.ravel(), weights.ravel(), height * width)
    return sums.astype(dtype, copy=False).reshape(height, width)


def _row_weights(
    ids: np.ndarray, columns: np.ndarray, weights: np.ndarray, width: int, slots: np.ndarray, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` and a ``(len(distinct), width)`` ``dtype`` matrix that
    sums each ``weights[n]`` into row ``ids[n]``, column ``columns[n]`` (which
    may broadcast against ``ids``), using ``slots``."""
    ordered = np.sort(ids, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    slots[distinct] = np.arange(len(distinct))  # a lookup, where a binary search mispredicts
    return distinct, _summed(slots[ids] * width + columns, weights, len(distinct), width, dtype)


class BlockLayout:
    """Every block's context side, laid out once per run from ``position_table``'s
    ``contexts`` and ``lengths`` by one sort, into int32 and ``dtype`` arrays no
    longer than the context entries. Iterating yields, per block, ``(tokens,
    cells, shares, single, one_rows, several)``: its distinct context tokens,
    ascending; its share matrix's nonzero flat cells ``slot * width + column``
    and their sums of ``1 / length``; which tokens are gathered alone, their
    rows, and the other tokens' slots."""

    def __init__(
        self, compositions: CompositionTable, contexts: np.ndarray, lengths: np.ndarray, dtype
    ):
        count, width, size = len(lengths), BLOCK_POSITIONS, len(compositions.counts)
        positions = np.repeat(np.arange(count), lengths)
        keys = positions // width * size + contexts[np.arange(contexts.shape[1]) < lengths[:, None]]
        keys = keys * width + positions % width  # (block, token, column): a share-matrix cell
        del positions
        keys.sort()  # a cell's entries share a position, so a weight: their order changes no sum
        cell = np.diff(keys, prepend=-1) != 0
        pairs, columns = np.divmod(keys, width)  # (block, token) of each entry
        del keys
        shares = np.bincount(np.cumsum(cell) - 1, 1.0 / lengths[pairs // size * width + columns])
        pairs, columns = pairs[cell], columns[cell]
        del cell
        pair = np.diff(pairs, prepend=-1) != 0
        blocks, tokens = np.divmod(pairs[pair], size)
        single, cell_blocks = compositions.single[tokens], pairs // size
        bounds = np.arange(-(-count // width) + 1)
        ends = [  # of each block's pairs, cells, single pairs and other pairs
            b.searchsorted(bounds) for b in (blocks, cell_blocks, blocks[single], blocks[~single])
        ]
        slots = np.cumsum(pair) - 1 - ends[0][cell_blocks]
        cells = slots * np.minimum(width, count - cell_blocks * width) + columns  # a narrower last
        several = np.flatnonzero(~single) - ends[0][blocks[~single]]
        self.arrays = (
            tokens.astype(np.int32), cells.astype(np.int32), shares.astype(dtype), single,
            compositions.first_row[tokens[single]].astype(np.int32), several.astype(np.int32),
        )
        self.bounds = np.column_stack([ends[i] for i in (0, 1, 1, 0, 2, 3)]).tolist()

    def __iter__(self):
        for starts, ends in zip(self.bounds, self.bounds[1:]):
            yield tuple(array[a:b] for array, a, b in zip(self.arrays, starts, ends))


def target_table(centers: np.ndarray, negatives: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per block of positions, each position's center, then its negatives, and
    which of them are kept: the center and every negative other than it."""
    targets = np.column_stack((centers, negatives))
    kept = (targets != targets[:, :1]) | (np.arange(targets.shape[1]) == 0)
    return [
        (targets[r : r + BLOCK_POSITIONS], kept[r : r + BLOCK_POSITIONS])
        for r in range(0, len(targets), BLOCK_POSITIONS)
    ]


def ns_block(
    inputs: np.ndarray, w_out: np.ndarray, compositions: CompositionTable, context: tuple,
    targets: np.ndarray, kept: np.ndarray, lr: float,
    into: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """One negative-sampling step over a block of positions; returns its summed loss.

    ``context`` is the block's item of a ``BlockLayout``, ``targets`` and
    ``kept`` its item of a ``target_table``. The step subtracts ``lr`` times
    the gradient of the summed loss from ``into``, a pair shaped like
    ``(inputs, w_out)`` that defaults to them. Every read comes before the
    first write, so a step of -1 into zero arrays yields the gradient. It
    computes in ``inputs.dtype`` (float32 in training, float64 in the
    gradient checks), that of an ``lr`` scalar too.
    """
    into_inputs, into_out = (inputs, w_out) if into is None else into
    tokens, cells, shares, single, one_rows, several = context
    width, dtype = len(targets), inputs.dtype
    share = _summed(cells, shares, len(tokens), width, dtype)
    composed = np.empty((len(tokens), inputs.shape[1]), dtype=dtype)
    composed[single] = inputs[one_rows]
    if len(several):  # never for word2vec, whose tokens are all single
        in_rows, mix = compositions.mixing(tokens[several], dtype)
        composed[several] = mix.T @ inputs[in_rows]
    hidden = share.T @ composed

    u = w_out[targets]  # (B, 1 + k, d): the center row, then the negative rows
    scores = np.matmul(u, hidden[:, :, None])[:, :, 0]
    signed = scores.copy()
    signed[:, 0] *= -1.0
    loss = float(np.logaddexp(0.0, signed)[kept].sum())
    coef = 1.0 / (1.0 + np.exp(-scores))  # d loss / d score: sigmoid, minus 1 at the center
    coef[:, 0] -= 1.0
    coef *= kept
    g_tokens = share @ np.matmul(coef[:, None, :], u)[:, 0]
    del u

    out_rows, g_out = _row_weights(
        targets, np.arange(width)[:, None], coef, width, compositions.slots, dtype
    )
    delta = g_out @ hidden
    del g_out
    delta *= lr  # in place: one more temporary this size makes glibc trim and regrow the heap
    into_out[out_rows] -= delta
    g_tokens *= lr
    into_inputs[one_rows] -= g_tokens[single]
    if len(several):
        into_inputs[in_rows] -= mix @ g_tokens[several]
    return loss


def train_negative_sampling(
    encoded: tuple[np.ndarray, np.ndarray],
    vocab: Vocabulary,
    config: TrainingConfig,
    rng: np.random.Generator,
    inputs: np.ndarray,
    compositions: CompositionTable,
) -> tuple[np.ndarray, list[float]]:
    """Train ``inputs`` in place over the ``encode_training_corpus`` pair
    ``encoded``; return the output rows and epoch losses.

    The learning rate decays linearly over ``total positions x epochs``
    down to 1e-4 of the initial rate; a block takes the rate of its first
    position. The mean per-position loss is recorded per epoch.
    """
    w_out = np.zeros((len(vocab), config.dimension), dtype=inputs.dtype)
    sampler = UnigramSampler(vocab)
    positions, steps, centers, contexts, lengths = position_table(*encoded, config.window)
    layout = BlockLayout(compositions, contexts, lengths, inputs.dtype)
    del contexts, lengths
    total_steps, k = positions * config.epochs, config.negative_samples
    steps = steps[::BLOCK_POSITIONS]  # the step of each block's first position

    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        rates = linear_lr(config.initial_learning_rate, epoch * positions + steps, total_steps)
        blocks, epoch_loss = zip(layout, rates.astype(inputs.dtype)), 0.0
        for start in range(0, len(centers), CHUNK_POSITIONS):
            chunk = centers[start : start + CHUNK_POSITIONS]
            negatives = sampler.draw(rng, len(chunk) * k).reshape(-1, k)
            for (targets, kept), (context, lr) in zip(target_table(chunk, negatives), blocks):
                epoch_loss += ns_block(inputs, w_out, compositions, context, targets, kept, lr)
        epoch_losses.append(epoch_loss / max(len(centers), 1))
    return w_out, epoch_losses


def train_cbow(
    corpus: Iterable[Sentence], vocab: Vocabulary, config: TrainingConfig
) -> EmbeddingMatrix:
    """Train input/output vectors for every vocabulary token.

    The returned matrix serves the input + output sums and records the
    mean per-position loss of each epoch.
    """
    encoded = encode_training_corpus(corpus, vocab)
    rng = np.random.default_rng(config.seed)
    w_in = init_input_vectors(rng, len(vocab), config.dimension)
    w_out, epoch_losses = train_negative_sampling(
        encoded, vocab, config, rng, w_in, word_compositions(len(vocab))
    )
    matrix = EmbeddingMatrix(np.add(w_in, w_out, dtype=np.float64), vocab, epoch_losses)
    matrix.check_finite()
    return matrix
