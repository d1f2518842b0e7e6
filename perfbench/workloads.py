"""The benchmark's workloads: a synthetic graph shape plus pipeline settings.

All three keep dimension 100, window 2 and batch 32. Epoch counts are
scaled down from the one-off probe configurations (acceptance: 30
embedding and 300 classifier epochs, about 100 s per pipeline) so that
one pipeline takes a few seconds and a timed run holds several of them;
the layer each workload loads is unchanged by the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from kgtyper import CnnConfig, PipelineConfig, TrainingConfig, generate_synthetic_kg


CNN_LEARNING_RATE = 0.2  # the acceptance experiment's rate, kept for all three


@dataclass(frozen=True)
class Workload:
    num_classes: int
    entities_per_class: int
    predicates_per_class: int
    noise: float
    trainer: str
    embedding_epochs: int
    embedding_lr: float
    cnn_epochs: int
    dataset_entities: int  # per class; the dataset takes every class


WORKLOADS = {
    # The paper's experiment graph and learning rates: the classifier
    # dominates, CBOW is the embedding layer.
    "acceptance": Workload(10, 50, 3, 0.1, "word2vec", 3, 0.15, 15, 50),
    # fastText with the default 2M-row bucket table: the subword
    # negative-sampling loop and a table far larger than the vocabulary.
    "subword": Workload(12, 25, 4, 0.2, "fasttext", 1, 0.05, 5, 20),
    # GloVe over a graph five times wider: co-occurrence counting, entry
    # fitting, vector-file I/O and 400 similarity rankings.
    "large-glove": Workload(50, 60, 4, 0.2, "glove", 4, 0.2, 1, 40),
}


def generate_graph(name: str, out_dir: Path, seed: int):
    """Write the workload's synthetic ``kg.nt`` (and gold labels) for ``seed``."""
    w = WORKLOADS[name]
    return generate_synthetic_kg(
        out_dir,
        num_classes=w.num_classes,
        entities_per_class=w.entities_per_class,
        predicates_per_class=w.predicates_per_class,
        noise_fraction=w.noise,
        seed=seed,
    )


def pipeline_config(name: str, kg_path: Path, out_dir: Path, seed: int):
    """The ``PipelineConfig`` one benchmark pipeline runs with."""
    w = WORKLOADS[name]
    return PipelineConfig(
        input_nt=kg_path,
        out_dir=out_dir,
        trainer=w.trainer,
        embedding=TrainingConfig(
            dimension=100,
            window=2,
            epochs=w.embedding_epochs,
            initial_learning_rate=w.embedding_lr,
        ),
        cnn=CnnConfig(batch_size=32, epochs=w.cnn_epochs, learning_rate=CNN_LEARNING_RATE),
        num_classes=w.num_classes,
        entities_per_class=w.dataset_entities,
        seed=seed,
    )
