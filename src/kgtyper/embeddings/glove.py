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

with f(x) = (x / x_max)^alpha below x_max and 1 above, using per-parameter
adaptive-gradient (AdaGrad) steps over the shuffled nonzero entries. The
final vector of token i is w_i + wt_i.

Each epoch's result is that of visiting the shuffled entries one at a
time, bit for bit, but the updates run on blocks of entries with numpy.
An entry (i, j) reads and writes only row i of ``w``, ``b`` and their
accumulators and row j of ``wt``, ``bt`` and theirs, so two entries that
share neither row commute. Walking the shuffled order, each entry gets
the level one above the last level that used its ``w`` row or its ``wt``
row. Entries of one level share no row, and every entry sees each of its
rows exactly as the one-at-a-time visit leaves it: updated by every
earlier entry that touches it (all on lower levels) and by no later one
(all on higher levels). The levels run in order, each in blocks of at
most ``BLOCK_ENTRIES``. Every elementwise operation is the scalar one
applied per entry, each dot product is one BLAS dot per entry as in the
one-at-a-time code, and the epoch loss is summed sequentially in shuffled
order, so no rounding changes.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import DataError
from .base import EmbeddingMatrix, TrainingConfig, distinct_counts, init_input_vectors

DEFAULT_X_MAX = 100.0
DEFAULT_ALPHA = 0.75
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

    def get(self, i: int, j: int) -> float:
        start, end = np.searchsorted(self.rows, (i, i + 1))
        k = start + int(np.searchsorted(self.cols[start:end], j))
        return float(self.weights[k]) if k < end and self.cols[k] == j else 0.0

    def __len__(self) -> int:
        return len(self.weights)

    def items(self) -> list[tuple[int, int, float]]:
        """Entries as (i, j, weight), sorted."""
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries as arrays ``(i, j, weight)`` in the order of ``items()``."""
        return self.rows, self.cols, self.weights


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
    get = vocab.token_to_id.get
    sentences = list(corpus)
    ids = np.fromiter((get(token, -1) for sentence in sentences for token in sentence), np.intp)
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


def glove_weight(x: float, x_max: float = DEFAULT_X_MAX, alpha: float = DEFAULT_ALPHA) -> float:
    """The least-squares weighting function f."""
    return (x / x_max) ** alpha if x < x_max else 1.0


def check_weighting(x_max: float, alpha: float) -> None:
    """Reject a weighting f that is not a power of x below a positive cap."""
    if not (math.isfinite(x_max) and x_max > 0):
        raise ValueError(f"x_max must be finite and > 0, got {x_max}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def _entry_constants(
    counts: Sequence[float], x_max: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry ``log X_ij`` and ``f(X_ij)``, computed one scalar at a time
    (the array versions of log and power may round differently)."""
    log_x = np.fromiter(map(math.log, counts), np.float64, len(counts))
    f = np.fromiter((glove_weight(x, x_max, alpha) for x in counts), np.float64, len(counts))
    return log_x, f


def entry_block(
    w: np.ndarray, wt: np.ndarray, b: np.ndarray, bt: np.ndarray,
    i: np.ndarray, j: np.ndarray, log_x: np.ndarray, f: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss terms and gradients of the entries ``(i[k], j[k])``.

    Returns ``(losses, coef, g_w, g_wt)``: ``losses[k]`` is entry k's term
    of the loss, ``coef[k]`` its derivative with respect to ``b[i[k]]`` and
    to ``bt[j[k]]``, and ``g_w[k]`` / ``g_wt[k]`` its gradients with respect
    to the rows ``w[i[k]]`` / ``wt[j[k]]``.
    """
    wi = w[i]
    wtj = wt[j]
    # One BLAS dot per entry, rounding exactly as ``w[i] @ wt[j]`` does.
    dots = np.matmul(wi[:, None, :], wtj[:, :, None])[:, 0, 0]
    diff = dots + b[i] + bt[j] - log_x
    losses = f * diff * diff
    coef = 2.0 * f * diff
    return losses, coef, coef[:, None] * wtj, coef[:, None] * wi


def glove_loss_and_grads(
    w: np.ndarray,
    wt: np.ndarray,
    b: np.ndarray,
    bt: np.ndarray,
    entries: list[tuple[int, int, float]],
    x_max: float = DEFAULT_X_MAX,
    alpha: float = DEFAULT_ALPHA,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss plus dense analytic gradients over the given entries."""
    i, j, x = zip(*entries)
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    log_x, f = _entry_constants(x, x_max, alpha)
    losses, coef, rows_w, rows_wt = entry_block(w, wt, b, bt, i, j, log_x, f)
    g_w = np.zeros_like(w)
    g_wt = np.zeros_like(wt)
    g_b = np.zeros_like(b)
    g_bt = np.zeros_like(bt)
    np.add.at(g_w, i, rows_w)
    np.add.at(g_wt, j, rows_wt)
    np.add.at(g_b, i, coef)
    np.add.at(g_bt, j, coef)
    return float(losses.sum()), g_w, g_wt, g_b, g_bt


def entry_levels(i: np.ndarray, j: np.ndarray, size: int) -> np.ndarray:
    """Level of each entry ``(i[k], j[k])`` taken in order: one above the
    last level that used its ``w`` row ``i[k]`` or its ``wt`` row ``j[k]``."""
    last_w = [0] * size
    last_wt = [0] * size
    levels = []
    for row, col in zip(i.tolist(), j.tolist()):
        level = 1 + (last_w[row] if last_w[row] > last_wt[col] else last_wt[col])
        last_w[row] = last_wt[col] = level
        levels.append(level)
    return np.array(levels, dtype=np.intp)


def _conflict_free_blocks(levels: np.ndarray) -> Iterator[np.ndarray]:
    """Positions of the entries, level by level, in blocks of at most
    ``BLOCK_ENTRIES``."""
    order = np.argsort(levels, kind="stable")
    ends = np.cumsum(np.bincount(levels))  # ends[0] == 0: levels start at 1
    for start, end in zip(ends[:-1].tolist(), ends[1:].tolist()):
        for first in range(start, end, BLOCK_ENTRIES):
            yield order[first:min(first + BLOCK_ENTRIES, end)]


def _adagrad_step(
    param: np.ndarray, acc: np.ndarray, rows: np.ndarray, grad: np.ndarray, lr: float
) -> None:
    """One AdaGrad step on distinct ``rows``: the step uses the squared
    gradients accumulated before this one."""
    param[rows] -= lr * grad / np.sqrt(acc[rows])
    acc[rows] += grad * grad


def train_glove(
    cooc: CooccurrenceMatrix,
    vocab: Vocabulary,
    config: TrainingConfig,
    x_max: float = DEFAULT_X_MAX,
    alpha: float = DEFAULT_ALPHA,
) -> EmbeddingMatrix:
    """AdaGrad over shuffled nonzero entries for ``config.epochs`` passes.

    Accumulators start at 1.0 so the first steps are plain SGD at the
    configured rate. Mean per-entry loss is recorded per epoch.
    """
    config.validate()
    check_weighting(x_max, alpha)
    if len(cooc) == 0:
        raise DataError("cannot train on an empty co-occurrence matrix")
    i, j, x = cooc.arrays()
    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    size = len(vocab)
    w = init_input_vectors(rng, size, dim)
    wt = np.zeros((size, dim))
    b = np.zeros(size)
    bt = np.zeros(size)
    acc_w = np.ones((size, dim))
    acc_wt = np.ones((size, dim))
    acc_b = np.ones(size)
    acc_bt = np.ones(size)
    lr = config.initial_learning_rate
    log_x, f = _entry_constants(x.tolist(), x_max, alpha)

    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(i))
        rows, cols = i[order], j[order]
        levels = entry_levels(rows, cols, size)
        per_entry = np.empty(len(order))
        for block in _conflict_free_blocks(levels):
            r, c = rows[block], cols[block]
            k = order[block]
            losses, coef, g_w, g_wt = entry_block(w, wt, b, bt, r, c, log_x[k], f[k])
            per_entry[block] = losses
            _adagrad_step(w, acc_w, r, g_w, lr)
            _adagrad_step(wt, acc_wt, c, g_wt, lr)
            _adagrad_step(b, acc_b, r, coef, lr)
            _adagrad_step(bt, acc_bt, c, coef, lr)
        # Added up one entry at a time in shuffled order, as the one-at-a-time
        # loop does; np.sum (pairwise) and, from Python 3.12, the built-in
        # sum (compensated) round differently.
        epoch_losses.append(np.add.accumulate(per_entry)[-1] / len(order))
        del order, rows, cols, levels, per_entry

    matrix = EmbeddingMatrix(w + wt, wt, vocab, epoch_losses)
    matrix.check_finite()
    return matrix
