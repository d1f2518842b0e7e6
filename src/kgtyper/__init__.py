"""Fine-grained entity typing for RDF knowledge graphs.

Triples are serialized as three-token sentences, token vectors are trained
with word-embedding models (CBOW negative sampling, character n-gram
subwords, or co-occurrence weighted least squares), and entities are
assigned fine-grained classes either by a multi-label classifier (a bank
of full-width filters) over the entity vector or by cosine similarity against
mean-of-member class vectors restricted to the subtree below the entity's
coarse type.
"""

from .cnn import CnnConfig, CnnModel, train_cnn
from .corpus import Vocabulary, build_vocabulary, read_corpus, triples_to_corpus, write_corpus
from .embeddings import (
    CooccurrenceMatrix,
    EmbeddingMatrix,
    FastTextEmbeddings,
    TrainingConfig,
    build_cooccurrence,
    load_embeddings,
    save_embeddings,
    train_cbow,
    train_fasttext,
    train_glove,
)
from .errors import DataError, KgTyperError, NumericalError, StageError
from .evaluation import (
    LabeledDataset,
    OverlapReport,
    accuracy,
    build_dataset,
    external_overlap,
    hits_at_k,
    most_specific_class,
    split,
)
from .graph import (
    DEFAULT_ROOTS,
    ClassHierarchy,
    KnowledgeGraph,
    build_hierarchy,
)
from .ntriples import (
    OWL_THING,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    Iri,
    Literal,
    NTriplesError,
    Triple,
    parse_ntriples,
    parse_ntriples_file,
    write_ntriples,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .prediction import Prediction, ScoreMatrix
from .similarity import (
    build_class_vectors,
    cosine_similarity,
    fine_grained_candidates,
    similarity_rank,
)
from .synth import generate_synthetic_kg

__version__ = "0.1.0"

__all__ = [
    "ClassHierarchy",
    "CnnConfig",
    "CnnModel",
    "CooccurrenceMatrix",
    "DEFAULT_ROOTS",
    "DataError",
    "EmbeddingMatrix",
    "FastTextEmbeddings",
    "Iri",
    "KgTyperError",
    "KnowledgeGraph",
    "LabeledDataset",
    "Literal",
    "NTriplesError",
    "NumericalError",
    "OWL_THING",
    "OverlapReport",
    "RDF_TYPE",
    "RDFS_SUBCLASSOF",
    "PipelineConfig",
    "PipelineResult",
    "Prediction",
    "ScoreMatrix",
    "StageError",
    "TrainingConfig",
    "Triple",
    "Vocabulary",
    "accuracy",
    "build_class_vectors",
    "build_cooccurrence",
    "build_dataset",
    "build_hierarchy",
    "build_vocabulary",
    "cosine_similarity",
    "external_overlap",
    "fine_grained_candidates",
    "generate_synthetic_kg",
    "hits_at_k",
    "load_embeddings",
    "most_specific_class",
    "parse_ntriples",
    "parse_ntriples_file",
    "read_corpus",
    "run_pipeline",
    "save_embeddings",
    "similarity_rank",
    "split",
    "train_cbow",
    "train_cnn",
    "train_fasttext",
    "train_glove",
    "triples_to_corpus",
    "write_corpus",
    "write_ntriples",
]
