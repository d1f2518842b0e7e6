"""Co-occurrence counting and the weighted least-squares trainer.

The co-occurrence matrix holds, for every unordered in-vocabulary token
pair within the window of each other inside one sentence, the weight
1/distance accumulated symmetrically. The trainer then minimizes

    sum_ij f(X_ij) (w_i . wt_j + b_i + bt_j - log X_ij)^2

with f(x) = (x / x_max)^alpha below x_max and 1 above, using per-parameter
adaptive-gradient (AdaGrad) steps over the shuffled nonzero entries. The
final vector of token i is w_i + wt_i.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import DataError
from .base import EmbeddingMatrix, TrainingConfig, init_input_vectors

DEFAULT_X_MAX = 100.0
DEFAULT_ALPHA = 0.75


class CooccurrenceMatrix:
    """Sparse symmetric map (token id i, token id j) -> weight."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self.entries: dict[tuple[int, int], float] = {}

    def add(self, i: int, j: int, weight: float) -> None:
        """Accumulate one unordered pair occurrence into both directions."""
        if weight <= 0:
            return
        self.entries[(i, j)] = self.entries.get((i, j), 0.0) + weight
        if i != j:
            self.entries[(j, i)] = self.entries.get((j, i), 0.0) + weight

    def get(self, i: int, j: int) -> float:
        return self.entries.get((i, j), 0.0)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> list[tuple[int, int, float]]:
        """Entries as (i, j, weight), deterministically ordered."""
        return [(i, j, w) for (i, j), w in sorted(self.entries.items())]


def build_cooccurrence(
    corpus: Iterable[Sentence], vocab: Vocabulary, window: int
) -> CooccurrenceMatrix:
    """Count distance-weighted pairs; sentences never overlap.

    Distances are measured over the original token positions; pairs with
    an out-of-vocabulary member are ignored.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    token_to_id = vocab.token_to_id
    matrix = CooccurrenceMatrix(len(vocab))
    for sentence in corpus:
        n = len(sentence)
        for i in range(n):
            id_i = token_to_id.get(sentence[i])
            if id_i is None:
                continue
            for j in range(i + 1, min(n, i + window + 1)):
                id_j = token_to_id.get(sentence[j])
                if id_j is None:
                    continue
                matrix.add(id_i, id_j, 1.0 / (j - i))
    return matrix


def glove_weight(x: float, x_max: float = DEFAULT_X_MAX, alpha: float = DEFAULT_ALPHA) -> float:
    """The least-squares weighting function f."""
    return (x / x_max) ** alpha if x < x_max else 1.0


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
    g_w = np.zeros_like(w)
    g_wt = np.zeros_like(wt)
    g_b = np.zeros_like(b)
    g_bt = np.zeros_like(bt)
    total = 0.0
    for i, j, x in entries:
        f = glove_weight(x, x_max, alpha)
        diff = w[i] @ wt[j] + b[i] + bt[j] - math.log(x)
        total += f * diff * diff
        coef = 2.0 * f * diff
        g_w[i] += coef * wt[j]
        g_wt[j] += coef * w[i]
        g_b[i] += coef
        g_bt[j] += coef
    return total, g_w, g_wt, g_b, g_bt


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
    if len(cooc) == 0:
        raise DataError("cannot train on an empty co-occurrence matrix")
    entries = cooc.items()
    for i, j, x in entries:
        if x <= 0:
            raise DataError(f"non-positive co-occurrence weight at ({i}, {j}): {x}")

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

    log_x = [math.log(x) for _, _, x in entries]
    weights = [glove_weight(x, x_max, alpha) for _, _, x in entries]

    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for index in rng.permutation(len(entries)):
            i, j, _ = entries[index]
            f = weights[index]
            diff = w[i] @ wt[j] + b[i] + bt[j] - log_x[index]
            epoch_loss += f * diff * diff
            coef = 2.0 * f * diff
            g_w = coef * wt[j]
            g_wt = coef * w[i]
            w[i] -= lr * g_w / np.sqrt(acc_w[i])
            wt[j] -= lr * g_wt / np.sqrt(acc_wt[j])
            b[i] -= lr * coef / math.sqrt(acc_b[i])
            bt[j] -= lr * coef / math.sqrt(acc_bt[j])
            acc_w[i] += g_w * g_w
            acc_wt[j] += g_wt * g_wt
            acc_b[i] += coef * coef
            acc_bt[j] += coef * coef
        epoch_losses.append(epoch_loss / len(entries))

    matrix = EmbeddingMatrix(w + wt, wt, vocab, epoch_losses)
    matrix.check_finite()
    return matrix
