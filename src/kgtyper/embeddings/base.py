"""Shared pieces of the embedding trainers.

All trainers accumulate in float64 (the gradient checks demand it), start
their input vectors uniform in [-0.5/dim, +0.5/dim] from a seeded
generator, and keep the output/context side at zero. Negative samples are
drawn from the unigram distribution raised to 3/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import DataError, NumericalError

LR_FLOOR_FACTOR = 1e-4  # learning rate decays linearly to 1e-4 of initial
NEGATIVE_POWER = 0.75


@dataclass
class TrainingConfig:
    """Hyperparameters shared by all trainers.

    The vector dimension is the headline setting; the rest are standard
    defaults for the underlying methods (a 3-token sentence is fully
    covered by window 2).
    """

    dimension: int = 100
    window: int = 2
    epochs: int = 5
    initial_learning_rate: float = 0.05
    negative_samples: int = 5
    seed: int = 1

    def validate(self) -> None:
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


class TokenNotFoundError(DataError):
    def __init__(self, token: str):
        super().__init__(f"no vector for token: {token}")
        self.token = token


@dataclass
class EmbeddingMatrix:
    """Dense token-id -> vector map plus the context-side matrix.

    ``input_vectors`` holds whatever composition the trainer exports as
    its final vectors (CBOW: input + output sums; co-occurrence: w plus
    w-tilde); ``output_vectors`` keeps the raw context side for
    inspection.
    """

    input_vectors: np.ndarray
    output_vectors: np.ndarray
    vocabulary: Vocabulary
    epoch_losses: list[float] = field(default_factory=list)

    def __contains__(self, token: str) -> bool:
        return token in self.vocabulary

    def vector_of(self, token: str) -> np.ndarray:
        if token not in self.vocabulary:
            raise TokenNotFoundError(token)
        return self.input_vectors[self.vocabulary.id_of(token)]

    @property
    def dimension(self) -> int:
        return self.input_vectors.shape[1]

    def check_finite(self) -> None:
        if not (
            np.all(np.isfinite(self.input_vectors))
            and np.all(np.isfinite(self.output_vectors))
        ):
            raise NumericalError("embedding matrices contain non-finite values")


def init_input_vectors(
    rng: np.random.Generator, count: int, dimension: int
) -> np.ndarray:
    bound = 0.5 / dimension
    return rng.uniform(-bound, bound, size=(count, dimension))


class UnigramSampler:
    """Negative sampler over the vocabulary's unigram^(3/4) distribution."""

    def __init__(self, vocab: Vocabulary, power: float = NEGATIVE_POWER):
        weights = np.asarray(vocab.frequency, dtype=np.float64) ** power
        total = weights.sum()
        if total <= 0:
            raise DataError("cannot build negative sampler over empty vocabulary")
        self._cumulative = np.cumsum(weights / total)
        self._cumulative[-1] = 1.0

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.searchsorted(self._cumulative, rng.random(count), side="right")


def encode_corpus(corpus: Iterable[Sentence], vocab: Vocabulary) -> list[np.ndarray]:
    """Map sentences to id arrays, dropping out-of-vocabulary tokens."""
    token_to_id = vocab.token_to_id
    encoded = []
    for sentence in corpus:
        ids = [token_to_id[t] for t in sentence if t in token_to_id]
        encoded.append(np.asarray(ids, dtype=np.intp))
    return encoded


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
