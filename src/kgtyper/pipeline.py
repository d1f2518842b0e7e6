"""End-to-end orchestration: ingest through metrics report.

Every stage writes a plain-text artifact (N-Triples, sentence corpus,
vector text, TSV, JSON) and downstream stages consume what the file holds,
so each stage is independently inspectable and the whole run is resumable.
Identical config and seed give byte-identical artifacts. Each stage is a
public function with explicit arguments, which the CLI's stage subcommands
call too. Stages call each layer through the name imported into this
module, so a profiler that replaces ``kgtyper.pipeline.<name>`` sees every
layer call. The predict stage scores every test entity in one call per
route, ``CnnModel.predict`` and ``similarity_rank``, into one ``ScoreMatrix``
per route, which ``ScoreMatrix.predictions`` ranks.
"""

from __future__ import annotations

import json
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cnn import CnnConfig, CnnModel, train_cnn
from .corpus import build_vocabulary, read_corpus, triples_to_corpus, write_corpus
from .embeddings import (
    TrainingConfig, build_cooccurrence, load_embeddings, save_embeddings, train_cbow,
    train_fasttext, train_glove,
)
from .errors import DataError, StageError
from .evaluation import (
    LabeledDataset, accuracy, align_predictions, build_dataset, check_sample_sizes,
    check_train_fraction, hits_at_k, most_specific_class, read_labels, split, write_labels,
    write_rankings,
)
from .graph import DEFAULT_ROOTS, ClassHierarchy, KnowledgeGraph, build_hierarchy
from .ntriples import RDF_TYPE, ParseStats, parse_ntriples_file
from .prediction import Prediction, ScoreMatrix
from .similarity import build_class_vectors, fine_grained_candidates, similarity_rank

logger = logging.getLogger(__name__)

TRAINERS = ("word2vec", "fasttext", "glove")
DEFAULT_METRICS = ("accuracy", "hits@1", "hits@3")
ARTIFACTS = (
    "corpus.txt", "vectors.txt", "dataset.tsv", "train.tsv", "test.tsv", "model.bin",
    "pred_cnn.tsv", "pred_similarity.tsv", "metrics.json",
)


@dataclass
class PipelineConfig:
    """Paths, stage settings, and the global seed for one pipeline run."""

    input_nt: Path
    out_dir: Path
    trainer: str = "word2vec"
    roots: tuple[str, ...] = tuple(sorted(DEFAULT_ROOTS))
    strict: bool = True
    hold_out_type_triples: bool = True
    embedding: TrainingConfig = field(default_factory=TrainingConfig)
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
        # Refused before any stage writes a file.
        check_sample_sizes(self.num_classes, self.entities_per_class)
        check_train_fraction(self.train_fraction)
        # One seed drives every seeded component; copies leave the caller's
        # configs as they were, so configs may share them.
        self.embedding = replace(self.embedding, seed=self.seed)
        self.cnn = replace(self.cnn, seed=self.seed)

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


@contextmanager
def _stage(name: str):
    """Log the stage and report any failure inside it as a ``StageError``."""
    logger.info("stage %s", name)
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def load_graph(path, strict: bool, roots) -> tuple[KnowledgeGraph, ClassHierarchy, ParseStats]:
    """Parse an N-Triples dump into a graph and its subclass hierarchy."""
    if not Path(path).exists():
        raise DataError(f"input dump not found: {path}")
    stats = ParseStats()
    kg = KnowledgeGraph.from_triples(parse_ntriples_file(path, strict=strict, stats=stats))
    if stats.skipped:
        logger.warning("skipped %d malformed lines", stats.skipped)
    return kg, build_hierarchy(kg, roots=roots), stats


def write_sentences(kg: KnowledgeGraph, path, hold_out_type_triples: bool):
    """Write one sentence per IRI-object triple to ``path``, the ``rdf:type``
    triples held out if asked; returns the ``CorpusBuild``."""
    exclude = {RDF_TYPE} if hold_out_type_triples else frozenset()
    build = triples_to_corpus(kg, exclude_predicates=exclude)
    logger.info(
        "%d sentences (%d literal-object triples skipped, %d held out)",
        len(build),
        build.skipped_literals,
        build.skipped_excluded,
    )
    write_corpus(path, build.sentences)
    return build


def train_embeddings(trainer: str, sentences: list, path, embedding: TrainingConfig):
    """Train the model named by ``trainer`` (one of ``TRAINERS``) over the
    tokens seen at least ``embedding.min_count`` times, save its vectors to
    ``path``, and return them as the file holds them (see ``save_embeddings``)."""
    vocab = build_vocabulary(sentences, min_count=embedding.min_count)
    if trainer == "word2vec":
        model = train_cbow(sentences, vocab, embedding)
    elif trainer == "fasttext":
        model = train_fasttext(sentences, vocab, embedding)
    else:
        cooc = build_cooccurrence(sentences, vocab, embedding.window)
        model = train_glove(cooc, vocab, embedding)
    return save_embeddings(model, path)


def write_dataset(
    kg: KnowledgeGraph, hierarchy: ClassHierarchy, out_dir, num_classes: int,
    entities_per_class: int, train_fraction: float, seed: int,
) -> LabeledDataset:
    """Sample the labelled dataset, split it per class, and write
    ``dataset.tsv``, ``train.tsv`` and ``test.tsv`` into ``out_dir``."""
    dataset = build_dataset(kg, hierarchy, num_classes, entities_per_class, seed)
    dataset = split(dataset, train_fraction, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_labels(out_dir / "dataset.tsv", dataset.examples)
    write_labels(out_dir / "train.tsv", dataset.train_examples())
    write_labels(out_dir / "test.tsv", dataset.test_examples())
    return dataset


def cnn_scores(entities: Iterable[str], model: CnnModel, embeddings) -> ScoreMatrix:
    """The classifier's scores of each entity, from one ``predict`` over those
    with a row in ``embeddings``; one without a row is left unranked."""
    entities = list(entities)
    known, vectors = embeddings.lookup(entities)
    values = np.zeros((len(entities), model.num_classes))
    values[known] = model.predict(vectors)
    ranked = np.repeat(known[:, None], model.num_classes, axis=1)
    return ScoreMatrix(entities, model.classes, values, ranked)


def similarity_scores(
    entities: Iterable[str], train_examples: Iterable[tuple[str, str]],
    kg: KnowledgeGraph, hierarchy: ClassHierarchy, embeddings,
) -> ScoreMatrix:
    """Score each entity's refinement candidates by cosine against the mean
    vector of each class's training members, in one ``similarity_rank``.

    An entity's candidates are the classes with a class vector below the
    coarse ancestor of its asserted type, one pool per ancestor. An entity
    without a row, a known asserted type, or a candidate is left unranked.
    """
    entities = list(entities)
    members_by_class: dict[str, list[str]] = {}
    for entity, class_iri in train_examples:
        members_by_class.setdefault(class_iri, []).append(entity)
    class_vectors = build_class_vectors(members_by_class, embeddings)
    pools: dict[str, frozenset] = {}  # by coarse ancestor
    candidates = []
    for entity in entities:
        coarse = most_specific_class(kg.type_assertions.get(entity, ()), hierarchy)
        pool = frozenset()
        if coarse is not None:
            ancestor = hierarchy.coarse_ancestor(coarse)
            if ancestor not in pools:
                below = fine_grained_candidates(hierarchy, ancestor)
                pools[ancestor] = frozenset(below & class_vectors.keys())
            pool = pools[ancestor]
        candidates.append(pool)
    return similarity_rank(entities, candidates, class_vectors, embeddings)


def score(
    gold: Mapping[str, str], predictions: Sequence[Prediction],
    metrics: Iterable[str] = DEFAULT_METRICS,
) -> dict[str, float]:
    """Each named metric of the predictions against ``gold``: ``accuracy``, or
    ``hits@k`` for ``k`` >= 1 in ASCII digits; a gold entity without a
    prediction counts as wrong."""
    ks = {}  # by metric name, the k of hits@k, or None for accuracy
    for name in metrics:
        hits = re.fullmatch("hits@([0-9]+)", name)
        if name != "accuracy" and not (hits and int(hits[1]) >= 1):
            raise ValueError(f"unknown metric {name!r}")
        ks[name] = int(hits[1]) if hits else None
    aligned = align_predictions(gold, predictions)
    return {
        name: accuracy(aligned, gold) if k is None else hits_at_k(aligned, gold, k)
        for name, k in ks.items()
    }


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute ingest -> corpus -> embed -> dataset -> train -> predict -> evaluate.

    With ``config.resume``, an existing corpus, vector file or model is
    reused rather than rebuilt.
    """
    path = config.path
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with _stage("ingest"):
        kg, hierarchy, _ = load_graph(config.input_nt, config.strict, config.roots)
    with _stage("corpus"):
        if config.resume and path("corpus.txt").exists():
            sentences = read_corpus(path("corpus.txt"))
        else:
            build = write_sentences(kg, path("corpus.txt"), config.hold_out_type_triples)
            sentences = build.sentences
    with _stage("embed"):
        # Downstream stages see the vectors as the file holds them, resumed or
        # not: a fresh run's are the ones it wrote, with no re-reading.
        if config.resume and path("vectors.txt").exists():
            embeddings = load_embeddings(path("vectors.txt"))
        else:
            embeddings = train_embeddings(
                config.trainer, sentences, path("vectors.txt"), config.embedding
            )
    with _stage("dataset"):
        write_dataset(
            kg, hierarchy, config.out_dir, config.num_classes,
            config.entities_per_class, config.train_fraction, config.seed,
        )
    with _stage("train"):
        train = read_labels(path("train.tsv"))
        if config.resume and path("model.bin").exists():
            classifier = CnnModel.load(path("model.bin"))
        else:
            classifier = train_cnn(train, embeddings, config.cnn)
            classifier.save(path("model.bin"))
    with _stage("predict"):
        test = read_labels(path("test.tsv"))
        entities = [entity for entity, _ in test]
        predictions = {
            "cnn": cnn_scores(entities, classifier, embeddings).predictions(),
            "similarity": similarity_scores(
                entities, train, kg, hierarchy, embeddings
            ).predictions(),
        }
        for method, rows in predictions.items():
            write_rankings(path(f"pred_{method}.tsv"), rows)
    with _stage("evaluate"):
        gold = dict(test)
        metrics: dict = {method: score(gold, rows) for method, rows in predictions.items()}
        metrics["test_entities"] = len(gold)
        with open(path("metrics.json"), "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return PipelineResult(metrics, {name: path(name) for name in ARTIFACTS})
