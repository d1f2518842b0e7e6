"""Subword trainer: CBOW objective over word-plus-n-gram compositions.

Each token's input vector is the mean of its own word vector and the
bucket vectors of its character n-grams. N-grams run over the token's
local name, the text after its last ``/`` or ``#`` (the whole token if it
has neither), wrapped in boundary markers, so local name "abc" with n=3
contributes "<ab", "abc", "bc>". A URI has no reliable word boundaries,
and the local name is the nearest thing it has to a word (Bojanowski et
al. 2017, arXiv 1607.04606, define subwords over words); over the whole
IRI, the n-grams of a shared scheme, host and path swamp each token's
own. N-grams of ``n_min`` to ``n_max`` code points are hashed into
``bucket_count`` buckets, all three fields of the ``TrainingConfig``, with
FNV-1a over their UTF-8 bytes (``ngram_buckets``, on arrays), which keeps
the mapping stable across runs and gives unseen tokens a vector made
purely of their n-gram buckets.

The bucket table holds a row only for the buckets the vocabulary's
n-grams hash into, drawn in one call right after the word rows; only
those rows receive gradient. An out-of-vocabulary token's vector is the
mean of its n-grams' rows, leaving out every n-gram whose bucket has no
row: such a row would be an untrained random draw, only noise. A token
with no n-gram in a kept bucket has no vector.

Training runs the CBOW block step (``cbow.ns_block``) on one float32 input
array that holds the word rows and, after them, the kept bucket rows. A
token's composition lists its word row with weight ``1 / (1 + n)`` and each
distinct n-gram row with weight ``multiplicity / (1 + n)``, for ``n``
n-gram occurrences; so a row whose n-gram repeats (``"aaaa"``) takes its
share once per occurrence; ``subword_compositions`` lays them out in one
``cbow.CompositionTable`` per run. The trained model is an
``EmbeddingMatrix`` (``FastTextEmbeddings``) whose vectors are those same
compositions, each formed once at the end of training by its own float32
``weights @ inputs[rows]``, widened: the block step sums them in another order.

As for every matrix, ``lookup`` admits exactly the vocabulary's tokens,
those a ``vectors.txt`` of the model holds, so both prediction routes
leave any other entity unranked; only ``vector_of`` of one token goes on
to the n-gram vector. Every vector the model serves is float64.
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


def ngram_buckets(tokens: Sequence[str], config: TrainingConfig) -> tuple[np.ndarray, np.ndarray]:
    """The bucket of every n-gram of ``tokens``, and the number of n-grams per token.

    A token's n-grams are the substrings of ``f"<{name}>"`` of sizes
    ``config.n_min`` to ``config.n_max``, by size, then start, duplicates
    kept, where ``name`` is the text after the token's last ``/`` or ``#``;
    a bucket is the FNV-1a hash of the UTF-8 bytes modulo
    ``config.bucket_count`` (a lone surrogate raises ``UnicodeEncodeError``).
    The hashes from all start positions grow by one code point at a time,
    byte by byte; those of n-grams that cross a token boundary go unread.
    """
    wrapped = [f"<{token[max(token.rfind('/'), token.rfind('#')) + 1 :]}>" for token in tokens]
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


class NGramTable:
    """Bucket vectors for the n-grams of a vocabulary, plus the deterministic hash.

    ``buckets`` and ``counts`` are ``ngram_buckets`` of the given tokens, and
    ``rows[i]`` is the trainable vector of bucket ``bucket_ids[i]``, of
    ``config.dimension``. It is a view of ``inputs``, which holds the given
    ``words`` rows first, so a trainer can update word and bucket rows as
    one array. The constructor draws every row from ``rng`` in one call.
    """

    def __init__(
        self,
        config: TrainingConfig,
        tokens: Sequence[str],
        rng: np.random.Generator,
        words: np.ndarray | None = None,
    ):
        self.config = config
        self.buckets, self.counts = ngram_buckets(tokens, config)
        self._cache = dict(zip(tokens, np.split(self.buckets, np.cumsum(self.counts)[:-1])))
        self.bucket_ids, _ = distinct_counts(self.buckets)
        rows = init_input_vectors(rng, len(self.bucket_ids), config.dimension)
        words = np.empty((0, config.dimension), dtype=rows.dtype) if words is None else words
        self.inputs = np.concatenate((words, rows))
        self.rows = self.inputs[len(words) :]

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
        """The rows of the kept buckets among ``bucket_ids``, in order; a
        bucket without a row is left out."""
        bucket_ids = np.asarray(bucket_ids, dtype=np.intp)
        if len(bucket_ids) and not 0 <= bucket_ids.min() <= bucket_ids.max() < self.bucket_count:
            raise IndexError(f"bucket ids must lie in [0, {self.bucket_count})")
        positions = np.searchsorted(self.bucket_ids, bucket_ids)
        kept = positions < len(self.bucket_ids)
        kept[kept] = self.bucket_ids[positions[kept]] == bucket_ids[kept]
        return self.rows[positions[kept]]


@dataclass
class FastTextEmbeddings(EmbeddingMatrix):
    """Vectors whose rows are the vocabulary's word-plus-n-gram compositions,
    plus the n-gram table behind ``vector_of`` of an out-of-vocabulary token."""

    ngrams: NGramTable = field(kw_only=True)

    def vector_without_row(self, token: str) -> np.ndarray:
        """The mean of the rows of the token's n-grams whose bucket is kept."""
        rows = self.ngrams.vectors(self.ngrams.bucket_indices(token))
        if not len(rows):
            raise TokenNotFoundError(token)
        return rows.mean(axis=0).astype(np.float64)


def subword_compositions(table: NGramTable) -> CompositionTable:
    """Token ``t``'s composition: word row ``t`` with weight ``1 / (1 + n)``,
    then each distinct n-gram row with weight ``multiplicity / (1 + n)``, for
    the ``n`` n-grams of the table's token ``t``; the bucket rows follow the
    word rows in ``table.inputs``, whose dtype the weights take."""
    size = len(table.counts)
    span = size + len(table.bucket_ids)  # token t's row r has the key t * span + r
    keys = np.repeat(np.arange(size) * span + size, table.counts)
    keys += np.searchsorted(table.bucket_ids, table.buckets)
    keys, multiplicity = distinct_counts(np.concatenate((np.arange(size) * (span + 1), keys)))
    tokens, rows = np.divmod(keys, span)
    weights = (multiplicity / (1 + table.counts[tokens])).astype(table.inputs.dtype)
    return CompositionTable(rows, weights, np.bincount(tokens, minlength=size))


def train_fasttext(
    corpus: Iterable[Sentence], vocab: Vocabulary, config: TrainingConfig
) -> FastTextEmbeddings:
    """Same objective and schedule as the CBOW trainer, with composed inputs
    over the n-grams and buckets that ``config`` sets.

    Gradients on a composed context vector distribute to the word vector
    and every constituent bucket vector, scaled by the composition mean.
    """
    encoded = encode_training_corpus(corpus, vocab)
    rng = np.random.default_rng(config.seed)
    w_word = init_input_vectors(rng, len(vocab), config.dimension)
    table = NGramTable(config, vocab.id_to_token, rng, words=w_word)
    compositions = subword_compositions(table)
    w_out, epoch_losses = train_negative_sampling(
        encoded, vocab, config, rng, table.inputs, compositions
    )
    # Every word and kept bucket row weighs in some composition, so a
    # non-finite row shows in the composed vectors; the output rows do not.
    if not np.all(np.isfinite(w_out)):
        raise NumericalError("output vectors contain non-finite values")
    composed = np.array([weights @ table.inputs[rows] for rows, weights in compositions.parts])
    model = FastTextEmbeddings(composed.astype(np.float64), vocab, epoch_losses, ngrams=table)
    model.check_finite()
    return model
