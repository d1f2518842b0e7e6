"""Subword trainer: CBOW objective over word-plus-n-gram compositions.

Each token's input vector is the mean of its own word vector and the
bucket vectors of its character n-grams; the token string is wrapped in
boundary markers before extraction, so token "abc" with n=3 contributes
"<ab", "abc", "bc>". N-grams are hashed into ``bucket_count`` buckets with
FNV-1a over their UTF-8 bytes (``ngram_buckets``, on arrays), which keeps
the mapping stable across runs and gives unseen tokens a vector made
purely of their n-gram buckets.

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
share once per occurrence; ``subword_compositions`` lays them out in one
``cbow.CompositionTable`` per run. A token's exported vector is that same
mean; ``FastTextEmbeddings.vocabulary_vectors`` builds all of them at once.

N-grams run over the full IRI string, as there is no reliable way to
segment a URI into words. On synthetic graphs whose entity IRIs do not
name their class, this leaves the vectors at chance; n-grams over the
local name alone did better there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..corpus import Sentence, Vocabulary
from ..errors import NumericalError
from .base import (
    EmbeddingMatrix, TokenNotFoundError, TrainingConfig, distinct_counts, init_input_vectors,
)
from .cbow import CompositionTable, encode_training_corpus, train_negative_sampling

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


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


def ngram_buckets(tokens: Sequence[str], config: NGramConfig) -> tuple[np.ndarray, np.ndarray]:
    """The bucket of every n-gram of ``tokens``, and the number of n-grams per token.

    A token's n-grams are the substrings of ``f"<{token}>"`` by size, then
    start, duplicates kept; a bucket is the FNV-1a hash of the UTF-8 bytes
    modulo ``bucket_count`` (a lone surrogate raises ``UnicodeEncodeError``).
    The hashes from all start positions grow by one code point at a time,
    byte by byte; those of n-grams that cross a token boundary go unread.
    """
    wrapped = [f"<{token}>" for token in tokens]
    data = np.frombuffer("".join(wrapped).encode("utf-8") + bytes(4), dtype=np.uint8)
    offsets = np.flatnonzero((data[:-4] & 0xC0) != 0x80)  # where each code point starts
    count = len(offsets)
    offsets = np.append(offsets, [len(data) - 4] * config.n_max)
    widths = np.diff(offsets, append=len(data) - 4)
    running = np.full(count, _FNV_OFFSET, dtype=np.uint32)
    hashes = np.empty((config.n_max - config.n_min + 1, count), dtype=np.intp)
    for n in range(1, config.n_max + 1):
        lo, width = offsets[n - 1 : n - 1 + count], widths[n - 1 : n - 1 + count]
        for byte in range(width.max(initial=0)):
            np.bitwise_xor(running, data[lo + byte], out=running, where=width > byte)
            np.multiply(running, np.uint32(_FNV_PRIME), out=running, where=width > byte)
        if n >= config.n_min:
            hashes[n - config.n_min] = running
    lengths = np.array([len(w) for w in wrapped], dtype=np.intp)
    sizes = np.arange(config.n_min, config.n_max + 1)
    grams = np.maximum(lengths[:, None] - sizes + 1, 0)  # per token and size, in output order
    first = (np.cumsum(lengths) - lengths)[:, None] + (sizes - config.n_min) * count
    index = np.repeat(first.ravel() - np.cumsum(grams) + grams.ravel(), grams.ravel())
    index += np.arange(len(index))
    hashes %= min(config.bucket_count, 1 << 32)  # a hash lies below 2**32
    buckets = hashes.ravel()[index]
    return buckets, grams.sum(axis=1)


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
        tokens = list(tokens)
        buckets, counts = ngram_buckets(tokens, config)
        self._cache = dict(zip(tokens, np.split(buckets, np.cumsum(counts)[:-1])))
        self._initial_state = rng.bit_generator.state
        self.bucket_ids, _ = distinct_counts(buckets)
        words = np.empty((0, dimension)) if words is None else words
        self.inputs = np.empty((len(words) + len(self.bucket_ids), dimension))
        self.inputs[: len(words)] = words
        self.rows = seeded_rows(self._initial_state, self.bucket_ids, self.inputs[len(words) :])
        rng.bit_generator.advance(config.bucket_count * dimension)

    @property
    def bucket_count(self) -> int:
        return self.config.bucket_count

    def bucket_indices(self, token: str) -> np.ndarray:
        """Bucket index per n-gram occurrence of ``token`` (cached)."""
        cached = self._cache.get(token)
        if cached is None:
            cached = self._cache[token] = ngram_buckets([token], self.config)[0]
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


@dataclass
class FastTextEmbeddings:
    """Trained word matrix together with its n-gram bucket table, which keeps
    a row for every n-gram of the vocabulary."""

    matrix: EmbeddingMatrix
    ngrams: NGramTable
    _composed: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def vocabulary(self) -> Vocabulary:
        return self.matrix.vocabulary

    @property
    def epoch_losses(self) -> list[float]:
        return self.matrix.epoch_losses

    def __contains__(self, token: str) -> bool:
        return token in self.vocabulary

    def vocabulary_vectors(self) -> np.ndarray:
        """Row ``i``: token ``i``'s word row plus its ``n`` bucket vectors, over
        ``1 + n``, added from 0.0 in occurrence order as ``sum(axis=0)`` adds
        rows (except at dimension 1, where numpy sums pairwise); computed once."""
        if self._composed is None:
            buckets = [self.ngrams.bucket_indices(t) for t in self.vocabulary.id_to_token]
            counts = np.array([len(b) for b in buckets], dtype=np.intp)
            rows = np.searchsorted(
                self.ngrams.bucket_ids, np.concatenate([np.empty(0, np.intp), *buckets])
            )
            order = np.argsort(-counts, kind="stable")  # those with a k-th n-gram come first
            starts = (np.cumsum(counts) - counts)[order]
            sums = np.zeros((len(counts), self.matrix.dimension))
            for k in range(counts.max(initial=0)):
                has = np.count_nonzero(counts > k)
                sums[:has] += self.ngrams.rows[rows[starts[:has] + k]]
            del rows  # before the output is allocated, which keeps the peak RSS down
            sums += self.matrix.input_vectors[order]
            sums /= (1 + counts[order])[:, None]
            self._composed = np.empty_like(sums)
            self._composed[order] = sums
        return self._composed

    def vector_of(self, token: str) -> np.ndarray:
        """Word-plus-n-gram mean in vocabulary, pure n-gram mean otherwise."""
        if token in self.vocabulary:
            return self.vocabulary_vectors()[self.vocabulary.id_of(token)]
        buckets = self.ngrams.bucket_indices(token)
        if not len(buckets):
            raise TokenNotFoundError(token)
        return self.ngrams.vectors(buckets).mean(axis=0)


def subword_compositions(table: NGramTable, tokens: Sequence[str]) -> CompositionTable:
    """Token ``t``'s composition: word row ``t`` with weight ``1 / (1 + n)``,
    then each distinct n-gram row with weight ``multiplicity / (1 + n)``; the
    bucket rows follow the ``len(tokens)`` word rows in ``table.inputs``."""
    parts = []
    for t, token in enumerate(tokens):
        buckets = table.bucket_indices(token)
        rows, counts = distinct_counts(np.searchsorted(table.bucket_ids, buckets))
        weights = np.concatenate(([1.0], counts)) / (1 + len(buckets))
        parts.append((np.concatenate(([t], len(tokens) + rows)), weights))
    return CompositionTable(parts)


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
