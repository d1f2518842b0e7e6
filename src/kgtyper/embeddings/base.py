"""Shared pieces of the embedding trainers.

All trainers train in float32, as the reference word2vec and fastText codes
do, and return float64 vectors; the gradient checks run their block functions
in float64. Every trainer starts its input vectors uniform in [-0.5/dim,
+0.5/dim], drawn in float64 from a seeded generator and rounded to float32,
and keeps the output/context side at zero. Negative samples are drawn from
the unigram distribution raised to 3/4.

Every reader of entity vectors learns from ``EmbeddingMatrix.lookup``
which tokens have a row (those of the vocabulary) and gets those rows in
one gather; ``vector_of`` serves one token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..corpus import Vocabulary, check_min_count
from ..errors import DataError, NumericalError

LR_FLOOR_FACTOR = 1e-4  # learning rate decays linearly to 1e-4 of initial
NEGATIVE_POWER = 0.75


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of every trainer.

    The vector dimension is the headline setting; the rest are standard
    defaults for the underlying methods (a 3-token sentence is fully
    covered by window 2). ``negative_samples`` is read only by CBOW and
    fastText, the n-gram sizes and ``bucket_count`` only by fastText, and
    the weighting cap ``x_max`` and exponent ``alpha`` only by GloVe;
    ``min_count`` is the vocabulary's frequency floor. Every field is
    checked when the config is built, ``replace`` included, whichever
    trainer runs; a built config cannot be changed.
    """

    dimension: int = 100
    window: int = 2
    epochs: int = 5
    initial_learning_rate: float = 0.05
    negative_samples: int = 5
    seed: int = 1
    n_min: int = 3
    n_max: int = 6
    bucket_count: int = 2_000_000
    x_max: float = 100.0
    alpha: float = 0.75
    min_count: int = 1

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.initial_learning_rate) and self.initial_learning_rate > 0):
            raise ValueError("initial_learning_rate must be finite and > 0")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be >= 1")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.bucket_count < 1:
            raise ValueError("bucket_count must be >= 1")
        if not (math.isfinite(self.x_max) and self.x_max > 0):
            raise ValueError(f"x_max must be finite and > 0, got {self.x_max}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        check_min_count(self.min_count)


class TokenNotFoundError(DataError):
    def __init__(self, token: str):
        super().__init__(f"no vector for token: {token}")
        self.token = token


@dataclass
class EmbeddingMatrix:
    """Dense token-id -> vector map.

    ``input_vectors`` holds whatever composition the trainer exports as
    its final vectors (CBOW: input + output sums; subword: word-plus-n-gram
    compositions; co-occurrence: w plus w-tilde). The context side is a
    training by-product and is not kept.
    """

    input_vectors: np.ndarray
    vocabulary: Vocabulary
    epoch_losses: list[float] = field(default_factory=list)

    def lookup(self, tokens: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """``(known, vectors)``: a bool mask of the tokens in the vocabulary,
        and their rows in order, one gather of ``input_vectors``."""
        ids = self.vocabulary.ids(tokens)
        known = ids >= 0
        return known, self.input_vectors[ids[known]]

    def vector_of(self, token: str) -> np.ndarray:
        """One token's vector: its row, else ``vector_without_row``'s."""
        row = self.vocabulary.token_to_id.get(token)
        return self.vector_without_row(token) if row is None else self.input_vectors[row]

    def vector_without_row(self, token: str) -> np.ndarray:
        """The vector of a token not in the vocabulary: none."""
        raise TokenNotFoundError(token)

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.input_vectors)):
            raise NumericalError("embedding vectors contain non-finite values")


def init_input_vectors(
    rng: np.random.Generator, count: int, dimension: int
) -> np.ndarray:
    bound = 0.5 / dimension
    return rng.uniform(-bound, bound, size=(count, dimension)).astype(np.float32)


class UnigramSampler:
    """Negative sampler over the vocabulary's unigram^(3/4) distribution."""

    def __init__(self, vocab: Vocabulary):
        weights = np.asarray(vocab.frequency, dtype=np.float64) ** NEGATIVE_POWER
        total = weights.sum()
        if total <= 0:
            raise DataError("cannot build negative sampler over empty vocabulary")
        self._cumulative = np.cumsum(weights / total)
        self._cumulative[-1] = 1.0

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.searchsorted(self._cumulative, rng.random(count), side="right")


def distinct_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-D array and how often each occurs.

    The same as ``np.unique(values, return_counts=True)``, from a sort and
    a boundary mask; the first ``np.unique`` call imports ``numpy.ma``,
    which costs 1.2-1.6 MB of peak RSS.
    """
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(starts, append=len(ordered))


def linear_lr(initial: float, step, total_steps: int):
    """Linear decay over the whole run, floored at 1e-4 of the initial rate;
    ``step`` may be an array of steps."""
    return initial * np.maximum(LR_FLOOR_FACTOR, 1.0 - step / max(total_steps, 1))
