"""Token embedding trainers: CBOW, subword (character n-gram), and
co-occurrence weighted least squares. All train 100-dimensional vectors by
default and share the text persistence format in :mod:`.io`."""

from .base import EmbeddingMatrix, TokenNotFoundError, TrainingConfig
from .cbow import train_cbow
from .fasttext import FastTextEmbeddings, NGramTable, train_fasttext
from .glove import CooccurrenceMatrix, build_cooccurrence, glove_weight, train_glove
from .io import load_embeddings, save_embeddings

__all__ = [
    "CooccurrenceMatrix",
    "EmbeddingMatrix",
    "FastTextEmbeddings",
    "NGramTable",
    "TokenNotFoundError",
    "TrainingConfig",
    "build_cooccurrence",
    "glove_weight",
    "load_embeddings",
    "save_embeddings",
    "train_cbow",
    "train_fasttext",
    "train_glove",
]
