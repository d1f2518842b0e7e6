"""Co-occurrence counting and the weighted least-squares trainer.

The co-occurrence matrix holds, for every unordered in-vocabulary token
pair within the window of each other inside one sentence, the weight
1/distance accumulated symmetrically. Counting runs on arrays, but each
weight is rounded as a loop over sentences, positions and distances
rounds it when it adds every pair, then its mirror, to a running sum:
the events are laid out in that order and ``np.bincount`` adds each
entry's events in input order, starting from 0.0. Another order of
addition (a pairwise ``np.sum`` per entry, say) can round differently
once an entry sums thirds or quarters.

The trainer then minimizes

    sum_ij f(X_ij) (w_i . wt_j + b_i + bt_j - log X_ij)^2

with f(x) = (x / x_max)^alpha below x_max and 1 above (``x_max`` and
``alpha`` from the ``TrainingConfig``), using per-parameter
adaptive-gradient (AdaGrad) steps over the shuffled nonzero entries. The
final vector of token i is w_i + wt_i, returned in float64 like the other
trainers' vectors.

The trainer keeps its state in float32: ``w``, ``wt``, their AdaGrad
accumulators, the rate, and the per-entry ``log X_ij`` and ``f(X_ij)``
(computed on arrays in float64, then cast; they equal the per-scalar
values of ``tests/conftest.py`` after the cast). Each bias is the last
column of its side, ``b`` of ``w`` and ``bt`` of ``wt``, in the
accumulators too, so one AdaGrad update per side covers vector and bias.

Each epoch's result is that of visiting the shuffled entries one at a
time in float32 (``tests/conftest.py`` spells that visit out), bit for
bit, but the updates run on blocks of entries with numpy. An entry
(i, j) reads and writes only row i of ``w`` and its accumulator and row j
of ``wt`` and its accumulator, so two entries that share neither row
commute. Walking the shuffled order, each entry gets the level one above
the last level that used its ``w`` row or its ``wt`` row. Entries of one
level share no row, and every entry sees each of its rows exactly as the
one-at-a-time visit leaves it: updated by every earlier entry that
touches it (all on lower levels) and by no later one (all on higher
levels). Each epoch lays the entries out in level order once, and the
levels run in order, each in contiguous blocks of at most
``BLOCK_ENTRIES``. A block gathers its rows with ``ndarray.take``, and
each side writes ``sqrt`` of its accumulators and its squared gradients
into two scratch arrays allocated once per run, so the AdaGrad step
makes no temporaries of its own. Every elementwise operation is the
scalar one applied per entry, each dot product is one BLAS dot per entry
as in the one-at-a-time code, and the epoch loss adds the float32 terms
to a float64 sum sequentially in shuffled order, so no rounding changes.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import DataError
from .base import EmbeddingMatrix, TrainingConfig, distinct_counts, init_input_vectors

BLOCK_ENTRIES = 128  # entries per numpy block; wider levels are split


class CooccurrenceMatrix:
    """Sparse symmetric co-occurrence weights as three arrays: one entry
    ``(rows[k], cols[k], weights[k])`` per token-id pair, sorted by
    ``(row, col)``, every weight positive."""

    def __init__(self, vocab_size: int, rows=(), cols=(), weights=()):
        self.vocab_size = vocab_size
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.weights = np.asarray(weights, dtype=np.float64)
        keys = self.rows * vocab_size + self.cols
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("co-occurrence entries must be distinct and sorted by (i, j)")
        bad = np.flatnonzero(self.weights <= 0)
        if bad.size:
            k = bad[0]
            raise DataError(
                f"non-positive co-occurrence weight at ({self.rows[k]}, {self.cols[k]}): "
                f"{self.weights[k]}"
            )

    def __len__(self) -> int:
        return len(self.weights)


def build_cooccurrence(
    corpus: Iterable[Sentence], vocab: Vocabulary, window: int
) -> CooccurrenceMatrix:
    """Count distance-weighted pairs; sentences never overlap.

    Distances are measured over the original token positions; pairs with
    an out-of-vocabulary member are ignored. The pair at positions
    p < q <= p + window adds 1/(q - p) to its entry and then, unless both
    tokens are the same, to the mirrored entry. The events are laid out
    by (p, q - p, mirror), the loop order that every weight's rounding
    follows (see the module docstring).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    sentences = list(corpus)
    ids = vocab.ids(chain.from_iterable(sentences))
    lengths = np.fromiter(map(len, sentences), np.intp, len(sentences))
    sentence_of = np.repeat(np.arange(len(sentences)), lengths)
    size = len(vocab)
    span = min(window, max(len(ids) - 1, 1))
    # keys[p, d - 1] holds the pair at positions (p, p + d) and its mirror,
    # each as i * size + j, or -1 where there is none.
    keys = np.full((len(ids), span, 2), -1, dtype=np.intp)
    for d in range(1, span + 1):
        a, b = ids[:-d], ids[d:]
        pair = (sentence_of[:-d] == sentence_of[d:]) & (a >= 0) & (b >= 0)
        keys[:-d, d - 1, 0] = np.where(pair, a * size + b, -1)
        keys[:-d, d - 1, 1] = np.where(pair & (a != b), b * size + a, -1)
    keys = keys.ravel()
    events = np.flatnonzero(keys >= 0)
    keys = keys[events]
    weights = (1.0 / np.arange(1, span + 1))[events // 2 % span]
    distinct, _ = distinct_counts(keys)
    sums = np.bincount(np.searchsorted(distinct, keys), weights=weights)
    return CooccurrenceMatrix(size, distinct // size, distinct % size, sums)


def glove_weight(x, x_max: float, alpha: float) -> np.ndarray:
    """The least-squares weighting function f, elementwise over a float or an array."""
    return np.where(x < x_max, (x / x_max) ** alpha, 1.0)


def entry_block(
    w_rows: np.ndarray, wt_rows: np.ndarray, log_x: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loss terms and gradients of the entries whose rows are ``w_rows[k]``
    and ``wt_rows[k]``, each a vector with its bias as the last column.

    Returns ``(losses, g_w, g_wt)``: ``losses[k]`` is entry k's term of the
    loss and ``g_w[k]`` / ``g_wt[k]`` its gradients with respect to the
    rows, in the same layout.
    """
    # One BLAS dot per entry, rounding exactly as ``w[i] @ wt[j]`` does.
    dots = np.matmul(w_rows[:, None, :-1], wt_rows[:, :-1, None])[:, 0, 0]
    diff = dots + w_rows[:, -1] + wt_rows[:, -1] - log_x
    losses = f * diff * diff
    coef = 2.0 * f * diff
    g_w = coef[:, None] * wt_rows
    g_wt = coef[:, None] * w_rows
    g_w[:, -1] = g_wt[:, -1] = coef
    return losses, g_w, g_wt


def entry_levels(i: np.ndarray, j: np.ndarray, size: int) -> np.ndarray:
    """Level of each entry ``(i[k], j[k])`` taken in order: one above the
    last level that used its ``w`` row ``i[k]`` or its ``wt`` row ``j[k]``."""
    last_w = [0] * size
    last_wt = [0] * size
    levels = []
    # Memoryviews hand out one int at a time, where tolist() holds them all.
    for row, col in zip(memoryview(i), memoryview(j)):
        level = 1 + (last_w[row] if last_w[row] > last_wt[col] else last_wt[col])
        last_w[row] = last_wt[col] = level
        levels.append(level)
    return np.array(levels, dtype=np.intp)


def train_glove(
    cooc: CooccurrenceMatrix, vocab: Vocabulary, config: TrainingConfig
) -> EmbeddingMatrix:
    """AdaGrad over shuffled nonzero entries for ``config.epochs`` passes.

    Accumulators start at 1.0 so the first steps are plain SGD at the
    configured rate. Mean per-entry loss is recorded per epoch.
    """
    if len(cooc) == 0:
        raise DataError("cannot train on an empty co-occurrence matrix")
    i, j, x = cooc.rows, cooc.cols, cooc.weights
    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    size = len(vocab)
    # Each row is a vector followed by its bias.
    w = np.zeros((size, dim + 1), dtype=np.float32)
    w[:, :dim] = init_input_vectors(rng, size, dim)
    wt = np.zeros_like(w)
    acc_w = np.ones_like(w)
    acc_wt = np.ones_like(w)
    lr = np.float32(config.initial_learning_rate)
    log_x = np.log(x).astype(np.float32)
    f = glove_weight(x, config.x_max, config.alpha).astype(np.float32)

    # Scratch rows for one side's sqrt(acc) and g * g in a block.
    roots = np.empty((BLOCK_ENTRIES, dim + 1), dtype=np.float32)
    squares = np.empty_like(roots)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(i))
        levels = entry_levels(i[order], j[order], size)
        # A stable order is unique; numpy radix-sorts it for keys of 8 and 16 bits.
        by_level = np.argsort(levels.astype(np.min_scalar_type(levels.max())), kind="stable")
        order = order[by_level]
        rows, cols, log_xs, fs = i[order], j[order], log_x[order], f[order]
        losses = np.empty(len(order))
        ends = np.cumsum(np.bincount(levels)).tolist()  # ends[0] == 0: levels start at 1
        for level_start, level_end in zip(ends[:-1], ends[1:]):
            for start in range(level_start, level_end, BLOCK_ENTRIES):
                block = slice(start, min(start + BLOCK_ENTRIES, level_end))
                r, c = rows[block], cols[block]
                w_r, wt_c = w.take(r, axis=0), wt.take(c, axis=0)
                losses[block], g_w, g_wt = entry_block(w_r, wt_c, log_xs[block], fs[block])
                # AdaGrad: each step divides by the squared gradients
                # accumulated before it.
                root, square = roots[:len(r)], squares[:len(r)]
                sides = ((w, acc_w, r, w_r, g_w), (wt, acc_wt, c, wt_c, g_wt))
                for param, acc, index, p, g in sides:
                    a = acc.take(index, axis=0)
                    np.sqrt(a, out=root)
                    a += np.multiply(g, g, out=square)
                    g *= lr
                    g /= root
                    p -= g
                    param[index] = p
                    acc[index] = a
        # Added up one entry at a time in shuffled order, as the one-at-a-time
        # loop does; np.sum (pairwise) and, from Python 3.12, the built-in
        # sum (compensated) round differently.
        shuffled = np.empty_like(losses)
        shuffled[by_level] = losses
        epoch_losses.append(np.add.accumulate(shuffled)[-1] / len(order))
        del order, levels, by_level, rows, cols, log_xs, fs, losses, shuffled

    vectors = np.add(w[:, :dim], wt[:, :dim], dtype=np.float64)  # cast in chunks, no float64 copy
    matrix = EmbeddingMatrix(vectors, vocab, epoch_losses)
    matrix.check_finite()
    return matrix
