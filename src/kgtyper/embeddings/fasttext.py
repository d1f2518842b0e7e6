"""Subword trainer: CBOW objective over word-plus-n-gram compositions.

Each token's input vector is the mean of its own word vector and the
bucket vectors of its character n-grams; the token string is wrapped in
boundary markers before extraction, so token "abc" with n=3 contributes
"<ab", "abc", "bc>". N-grams are hashed into ``bucket_count`` buckets with
FNV-1a, which keeps the mapping stable across runs and gives unseen
tokens a vector made purely of their n-gram buckets.

The bucket table holds a row only for the buckets the vocabulary's
n-grams hash into; only those rows receive gradient. Every other bucket
keeps its seeded initial vector, which an out-of-vocabulary lookup
regenerates on demand. Each value equals what a full ``bucket_count`` ×
dimension uniform table drawn at the same point would hold, and the
draws after the table are unchanged. That rests on two properties of
numpy's default generator: PCG64 can ``advance`` to any draw, and
``Generator.uniform`` takes exactly one 64-bit draw per float64. The
exactness test in ``tests/test_fasttext.py`` pins both against a
full-table reference.

Training runs the CBOW block step (``cbow.ns_block``) on one input array
that holds the word rows and, after them, the kept bucket rows. A token's
composition lists its word row with weight ``1 / (1 + n)`` and each
distinct n-gram row with weight ``multiplicity / (1 + n)``, for ``n``
n-gram occurrences; so a row whose n-gram repeats (``"aaaa"``) takes its
share once per occurrence.

N-grams run over the full IRI string, as there is no reliable way to
segment a URI into words. On synthetic graphs whose entity IRIs do not
name their class, this leaves the vectors at chance; n-grams over the
local name alone did better there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import NumericalError
from .base import (
    EmbeddingMatrix, TokenNotFoundError, TrainingConfig, distinct_counts, init_input_vectors,
)
from .cbow import Composition, encode_training_corpus, train_negative_sampling

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def fnv1a_32(text: str) -> int:
    """32-bit FNV-1a over the UTF-8 bytes of ``text``."""
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return value


def ngrams_of(token: str, n_min: int, n_max: int) -> list[str]:
    """Character n-grams of the boundary-wrapped token, duplicates kept."""
    wrapped = f"<{token}>"
    out = []
    for n in range(n_min, n_max + 1):
        for start in range(0, len(wrapped) - n + 1):
            out.append(wrapped[start : start + n])
    return out


@dataclass
class NGramConfig:
    n_min: int = 3
    n_max: int = 6
    bucket_count: int = 2_000_000

    def validate(self) -> None:
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.bucket_count < 1:
            raise ValueError("bucket_count must be >= 1")


def seeded_rows(state: dict, bucket_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill ``rows`` with the initial vectors of the sorted, distinct ``bucket_ids``.

    ``state`` is the PCG64 state at the first draw of the full table, so
    bucket ``b`` starts ``b * dimension`` draws later; one generator walks
    the ids with one ``advance`` per gap.
    """
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    rng = np.random.Generator(bit_generator)
    dimension = rows.shape[1]
    drawn = 0
    for row, bucket in enumerate(bucket_ids.tolist()):
        bit_generator.advance(bucket * dimension - drawn)
        rows[row] = init_input_vectors(rng, 1, dimension)[0]
        drawn = (bucket + 1) * dimension
    return rows


class NGramTable:
    """Bucket vectors for the n-grams of a vocabulary, plus the deterministic hash.

    ``rows[i]`` is the trainable vector of bucket ``bucket_ids[i]``. It is a
    view of ``inputs``, which holds the given ``words`` rows first, so a
    trainer can update word and bucket rows as one array. The constructor
    consumes from ``rng`` exactly the draws of a full ``bucket_count`` ×
    ``dimension`` table, whichever buckets are kept.
    """

    def __init__(
        self,
        config: NGramConfig,
        tokens: Iterable[str],
        rng: np.random.Generator,
        dimension: int,
        words: np.ndarray | None = None,
    ):
        config.validate()
        self.config = config
        self._cache: dict[str, np.ndarray] = {}
        self._initial_state = rng.bit_generator.state
        used = [self.bucket_indices(token) for token in tokens]
        self.bucket_ids, _ = distinct_counts(np.concatenate([np.empty(0, np.intp), *used]))
        words = np.empty((0, dimension)) if words is None else words
        self.inputs = np.empty((len(words) + len(self.bucket_ids), dimension))
        self.inputs[: len(words)] = words
        self.rows = seeded_rows(self._initial_state, self.bucket_ids, self.inputs[len(words) :])
        rng.bit_generator.advance(config.bucket_count * dimension)

    @property
    def n_min(self) -> int:
        return self.config.n_min

    @property
    def n_max(self) -> int:
        return self.config.n_max

    @property
    def bucket_count(self) -> int:
        return self.config.bucket_count

    def bucket_indices(self, token: str) -> np.ndarray:
        """Bucket index per n-gram occurrence of ``token`` (cached)."""
        cached = self._cache.get(token)
        if cached is None:
            grams = ngrams_of(token, self.n_min, self.n_max)
            cached = np.asarray(
                [fnv1a_32(g) % self.bucket_count for g in grams], dtype=np.intp
            )
            self._cache[token] = cached
        return cached

    def vectors(self, bucket_ids) -> np.ndarray:
        """One vector per bucket id: its row if kept, else its initial vector."""
        bucket_ids = np.asarray(bucket_ids, dtype=np.intp)
        if len(bucket_ids) and not 0 <= bucket_ids.min() <= bucket_ids.max() < self.bucket_count:
            raise IndexError(f"bucket ids must lie in [0, {self.bucket_count})")
        positions = np.searchsorted(self.bucket_ids, bucket_ids)
        kept = positions < len(self.bucket_ids)
        kept[kept] = self.bucket_ids[positions[kept]] == bucket_ids[kept]
        out = np.empty((len(bucket_ids), self.rows.shape[1]))
        out[kept] = self.rows[positions[kept]]
        if not kept.all():
            missing, _ = distinct_counts(bucket_ids[~kept])
            initial = seeded_rows(
                self._initial_state, missing, np.empty((len(missing), self.rows.shape[1]))
            )
            out[~kept] = initial[np.searchsorted(missing, bucket_ids[~kept])]
        return out

    def ngram_mean(self, token: str) -> np.ndarray:
        """Mean of the token's bucket vectors; the out-of-vocabulary vector."""
        buckets = self.bucket_indices(token)
        if not len(buckets):
            raise TokenNotFoundError(token)
        return self.vectors(buckets).mean(axis=0)


@dataclass
class FastTextEmbeddings:
    """Trained word matrix together with its n-gram bucket table."""

    matrix: EmbeddingMatrix
    ngrams: NGramTable

    @property
    def vocabulary(self) -> Vocabulary:
        return self.matrix.vocabulary

    @property
    def dimension(self) -> int:
        return self.matrix.dimension

    @property
    def epoch_losses(self) -> list[float]:
        return self.matrix.epoch_losses

    def __contains__(self, token: str) -> bool:
        return token in self.vocabulary

    def vector_of(self, token: str) -> np.ndarray:
        """Word-plus-n-gram mean in vocabulary, pure n-gram mean otherwise."""
        if token in self.vocabulary:
            word = self.matrix.input_vectors[self.vocabulary.id_of(token)]
            buckets = self.ngrams.bucket_indices(token)
            return (word + self.ngrams.vectors(buckets).sum(axis=0)) / (1 + len(buckets))
        return self.ngrams.ngram_mean(token)


def subword_compositions(table: NGramTable, tokens: Sequence[str]) -> list[Composition]:
    """Token ``t``'s composition: word row ``t`` with weight ``1 / (1 + n)``,
    then each distinct n-gram row with weight ``multiplicity / (1 + n)``; the
    bucket rows follow the ``len(tokens)`` word rows in ``table.inputs``."""
    compositions = []
    for t, token in enumerate(tokens):
        buckets = table.bucket_indices(token)
        rows, counts = distinct_counts(np.searchsorted(table.bucket_ids, buckets))
        weights = np.concatenate(([1.0], counts)) / (1 + len(buckets))
        compositions.append((np.concatenate(([t], len(tokens) + rows)), weights))
    return compositions


def train_fasttext(
    corpus: Iterable[Sentence],
    vocab: Vocabulary,
    config: TrainingConfig,
    ngram_config: NGramConfig | None = None,
) -> FastTextEmbeddings:
    """Same objective and schedule as the CBOW trainer, with composed inputs.

    Gradients on a composed context vector distribute to the word vector
    and every constituent bucket vector, scaled by the composition mean.
    """
    config.validate()
    ngram_config = ngram_config or NGramConfig()
    ngram_config.validate()
    encoded = encode_training_corpus(corpus, vocab)
    rng = np.random.default_rng(config.seed)
    w_word = init_input_vectors(rng, len(vocab), config.dimension)
    tokens = [vocab.token_of(i) for i in range(len(vocab))]
    table = NGramTable(ngram_config, tokens, rng, config.dimension, words=w_word)
    w_out, epoch_losses = train_negative_sampling(
        encoded, vocab, config, rng, table.inputs, subword_compositions(table, tokens)
    )
    matrix = EmbeddingMatrix(table.inputs[: len(vocab)], w_out, vocab, epoch_losses)
    matrix.check_finite()
    if not np.all(np.isfinite(table.rows)):
        raise NumericalError("n-gram bucket vectors contain non-finite values")
    return FastTextEmbeddings(matrix, table)
