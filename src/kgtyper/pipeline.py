"""End-to-end orchestration: ingest through metrics report.

Every stage writes a plain-text artifact (N-Triples, sentence corpus,
vector text, TSV, JSON) and downstream stages consume the persisted file,
so each stage is independently inspectable and the whole run is resumable.
Identical config and seed give byte-identical artifacts.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .cnn import CnnConfig, CnnModel, train_cnn
from .corpus import Vocabulary, build_vocabulary, read_corpus, triples_to_corpus, write_corpus
from .embeddings import (
    NGramConfig,
    TrainingConfig,
    build_cooccurrence,
    load_embeddings,
    save_embeddings,
    train_cbow,
    train_fasttext,
    train_glove,
)
from .errors import DataError, StageError
from .evaluation import (
    LabeledDataset,
    accuracy,
    align_predictions,
    build_dataset,
    hits_at_k,
    most_specific_class,
    read_labels,
    split,
    write_labels,
    write_rankings,
)
from .graph import DEFAULT_ROOTS, KnowledgeGraph, build_hierarchy
from .ntriples import RDF_TYPE, ParseStats, parse_ntriples_file
from .prediction import Prediction
from .similarity import build_class_vectors, fine_grained_candidates, similarity_rank

logger = logging.getLogger(__name__)

TRAINERS = ("word2vec", "fasttext", "glove")


@dataclass
class PipelineConfig:
    """Paths, stage settings, and the global seed for one pipeline run."""

    input_nt: Path
    out_dir: Path
    trainer: str = "word2vec"
    roots: tuple[str, ...] = tuple(sorted(DEFAULT_ROOTS))
    strict: bool = True
    hold_out_type_triples: bool = True
    min_count: int = 1
    embedding: TrainingConfig = field(default_factory=TrainingConfig)
    ngram: NGramConfig = field(default_factory=NGramConfig)
    x_max: float = 100.0
    alpha: float = 0.75
    cnn: CnnConfig = field(default_factory=CnnConfig)
    num_classes: int = 10
    entities_per_class: int = 50
    train_fraction: float = 0.8
    seed: int = 1
    resume: bool = False

    def __post_init__(self):
        self.input_nt = Path(self.input_nt)
        self.out_dir = Path(self.out_dir)
        if self.trainer not in TRAINERS:
            raise ValueError(f"unknown trainer {self.trainer!r}; choose from {TRAINERS}")
        # One seed drives every seeded component.
        self.embedding.seed = self.seed
        self.cnn.seed = self.seed

    def path(self, name: str) -> Path:
        return self.out_dir / name


@dataclass
class PipelineResult:
    metrics: dict
    paths: dict[str, Path]

    def report_text(self) -> str:
        lines = []
        for method in sorted(self.metrics):
            if not isinstance(self.metrics[method], dict):
                continue
            for metric in sorted(self.metrics[method]):
                lines.append(f"{method}\t{metric}\t{self.metrics[method][metric]:.4f}")
        return "\n".join(lines)


def _stage(name: str):
    def decorate(fn):
        def wrapped(*args, **kwargs):
            logger.info("stage %s", name)
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(name, exc) from exc

        return wrapped

    return decorate


@_stage("ingest")
def _ingest(config: PipelineConfig) -> tuple[KnowledgeGraph, object]:
    if not config.input_nt.exists():
        raise DataError(f"input dump not found: {config.input_nt}")
    stats = ParseStats()
    kg = KnowledgeGraph.from_triples(
        parse_ntriples_file(config.input_nt, strict=config.strict, stats=stats)
    )
    if stats.skipped:
        logger.warning("skipped %d malformed lines", stats.skipped)
    hierarchy = build_hierarchy(kg, roots=config.roots)
    return kg, hierarchy


@_stage("corpus")
def _corpus(config: PipelineConfig, kg: KnowledgeGraph) -> list:
    path = config.path("corpus.txt")
    if config.resume and path.exists():
        return read_corpus(path)
    exclude = {RDF_TYPE} if config.hold_out_type_triples else frozenset()
    build = triples_to_corpus(kg, exclude_predicates=exclude)
    logger.info(
        "%d sentences (%d literal-object triples skipped, %d held out)",
        len(build),
        build.skipped_literals,
        build.skipped_excluded,
    )
    write_corpus(path, build.sentences)
    return build.sentences


def train_embeddings(
    trainer: str,
    sentences: list,
    vocab: Vocabulary,
    embedding: TrainingConfig,
    ngram: NGramConfig,
    x_max: float,
    alpha: float,
):
    """Train the embedding model named by ``trainer`` (one of ``TRAINERS``)."""
    if trainer == "word2vec":
        return train_cbow(sentences, vocab, embedding)
    if trainer == "fasttext":
        return train_fasttext(sentences, vocab, embedding, ngram)
    cooc = build_cooccurrence(sentences, vocab, embedding.window)
    return train_glove(cooc, vocab, embedding, x_max, alpha)


@_stage("embed")
def _embed(config: PipelineConfig, sentences: list):
    path = config.path("vectors.txt")
    if not (config.resume and path.exists()):
        vocab = build_vocabulary(sentences, min_count=config.min_count)
        model = train_embeddings(
            config.trainer, sentences, vocab, config.embedding, config.ngram,
            config.x_max, config.alpha,
        )
        save_embeddings(model, path)
    # Downstream stages consume the persisted text format, resumed or not.
    return load_embeddings(path)


@_stage("dataset")
def _dataset(config: PipelineConfig, kg: KnowledgeGraph, hierarchy) -> LabeledDataset:
    dataset = build_dataset(
        kg, hierarchy, config.num_classes, config.entities_per_class, config.seed
    )
    dataset = split(dataset, config.train_fraction, config.seed)
    for entity, gold in dataset.examples:
        candidates = fine_grained_candidates(hierarchy, gold)
        if gold not in candidates:
            raise DataError(
                f"gold class {gold} of {entity} is outside its refinement candidates"
            )
    write_labels(config.path("dataset.tsv"), dataset.examples)
    write_labels(config.path("train.tsv"), dataset.train_examples())
    write_labels(config.path("test.tsv"), dataset.test_examples())
    return dataset


@_stage("train")
def _train(config: PipelineConfig, embeddings) -> CnnModel:
    path = config.path("model.bin")
    if config.resume and path.exists():
        return CnnModel.load(path)
    train_examples = read_labels(config.path("train.tsv"))
    model = train_cnn(train_examples, embeddings, config.cnn)
    model.save(path)
    return model


@_stage("predict")
def _predict(
    config: PipelineConfig,
    kg: KnowledgeGraph,
    hierarchy,
    embeddings,
    model: CnnModel,
) -> tuple[list[Prediction], list[Prediction]]:
    test_examples = read_labels(config.path("test.tsv"))
    train_examples = read_labels(config.path("train.tsv"))

    cnn_predictions = []
    for entity, _ in test_examples:
        if entity in embeddings:
            cnn_predictions.append(model.predict(entity, embeddings.vector_of(entity)))
        else:
            cnn_predictions.append(Prediction(entity))  # no vector: counts as wrong

    members_by_class: dict[str, list[str]] = {}
    for entity, class_iri in train_examples:
        members_by_class.setdefault(class_iri, []).append(entity)
    class_vectors = build_class_vectors(members_by_class, embeddings)

    similarity_predictions = []
    for entity, _ in test_examples:
        coarse = most_specific_class(kg.type_assertions.get(entity, ()), hierarchy)
        if coarse is None or entity not in embeddings:
            similarity_predictions.append(Prediction(entity))
            continue
        candidates = fine_grained_candidates(hierarchy, coarse)
        scored = candidates & set(class_vectors)
        if not scored:
            similarity_predictions.append(Prediction(entity))
            continue
        similarity_predictions.append(
            similarity_rank(entity, scored, class_vectors, embeddings)
        )

    write_rankings(config.path("pred_cnn.tsv"), cnn_predictions)
    write_rankings(config.path("pred_similarity.tsv"), similarity_predictions)
    return cnn_predictions, similarity_predictions


@_stage("evaluate")
def _evaluate(
    config: PipelineConfig,
    cnn_predictions: list[Prediction],
    similarity_predictions: list[Prediction],
) -> dict:
    gold = dict(read_labels(config.path("test.tsv")))
    metrics: dict = {}
    for method, predictions in (
        ("cnn", cnn_predictions),
        ("similarity", similarity_predictions),
    ):
        aligned = align_predictions(gold, predictions)
        metrics[method] = {
            "accuracy": accuracy(aligned, gold),
            "hits@1": hits_at_k(aligned, gold, 1),
            "hits@3": hits_at_k(aligned, gold, 3),
        }
    metrics["test_entities"] = len(gold)
    with open(config.path("metrics.json"), "w", encoding="utf-8") as handle:
        json.dump(metrics, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return metrics


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute ingest -> corpus -> embed -> dataset -> train -> predict -> evaluate."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    kg, hierarchy = _ingest(config)
    sentences = _corpus(config, kg)
    embeddings = _embed(config, sentences)
    _dataset(config, kg, hierarchy)
    model = _train(config, embeddings)
    cnn_predictions, similarity_predictions = _predict(
        config, kg, hierarchy, embeddings, model
    )
    metrics = _evaluate(config, cnn_predictions, similarity_predictions)
    paths = {
        name: config.path(name)
        for name in (
            "corpus.txt",
            "vectors.txt",
            "dataset.tsv",
            "train.tsv",
            "test.tsv",
            "model.bin",
            "pred_cnn.tsv",
            "pred_similarity.tsv",
            "metrics.json",
        )
    }
    return PipelineResult(metrics, paths)
