"""End-to-end pipeline: artifacts, determinism, resume, stage errors."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kgtyper
from kgtyper.cnn import CnnConfig
from kgtyper.embeddings import TrainingConfig
from kgtyper.errors import StageError
from kgtyper.ntriples import RDF_TYPE
from kgtyper.pipeline import PipelineConfig, run_pipeline, score
from kgtyper.prediction import Prediction
from kgtyper.synth import generate_synthetic_kg

ARTIFACTS = [
    "corpus.txt",
    "vectors.txt",
    "dataset.tsv",
    "train.tsv",
    "test.tsv",
    "model.bin",
    "pred_cnn.tsv",
    "pred_similarity.tsv",
    "metrics.json",
]


def small_config(tmp_path, run_name: str = "run", **overrides) -> PipelineConfig:
    synth_dir = tmp_path / "synth"
    if not (synth_dir / "kg.nt").exists():
        generate_synthetic_kg(
            synth_dir, num_classes=3, entities_per_class=8, predicates_per_class=2,
            noise_fraction=0.0, seed=3,
        )
    defaults = dict(
        input_nt=synth_dir / "kg.nt",
        out_dir=tmp_path / run_name,
        embedding=TrainingConfig(
            dimension=12, window=2, epochs=8, initial_learning_rate=0.1
        ),
        cnn=CnnConfig(
            filters_per_width=8, hidden_units=16, batch_size=8, epochs=60, learning_rate=0.3,
        ),
        num_classes=3,
        entities_per_class=8,
        train_fraction=0.75,
        seed=5,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_happy_path_writes_every_artifact(tmp_path):
    config = small_config(tmp_path)
    result = run_pipeline(config)
    for name in ARTIFACTS:
        assert (config.out_dir / name).exists(), name
        assert result.paths[name] == config.out_dir / name

    for method in ("cnn", "similarity"):
        for metric in ("accuracy", "hits@1", "hits@3"):
            value = result.metrics[method][metric]
            assert 0.0 <= value <= 1.0
        assert result.metrics[method]["hits@1"] <= result.metrics[method]["hits@3"]
    assert result.metrics["test_entities"] == 6  # 2 held out per class

    on_disk = json.loads((config.out_dir / "metrics.json").read_text())
    assert on_disk == result.metrics


def test_report_text_lists_method_metric_value(tmp_path):
    config = small_config(tmp_path)
    result = run_pipeline(config)
    lines = result.report_text().splitlines()
    assert len(lines) == 6
    first = lines[0].split("\t")
    assert first[0] == "cnn" and first[1] == "accuracy"
    float(first[2])  # numeric


@pytest.mark.parametrize(
    "name,value",
    [
        ("accuracy", 0.5), ("hits@1", 0.5), ("hits@2", 1.0), ("hits@02", 1.0),
        ("hits@ 2", None), ("hits@\uff12", None), ("hits@0", None), ("hits@", None),
        ("hits@-1", None), ("Accuracy", None), ("bogus", None),
    ],
)
def test_score_reads_only_accuracy_and_hits_at_ascii_k(name, value):
    gold = {"a": "X", "b": "Y"}
    predictions = [Prediction("a", ranking=["X", "Y"]), Prediction("b", ranking=["X", "Y"])]
    if value is None:
        with pytest.raises(ValueError, match=re.escape(f"unknown metric {name!r}")):
            score(gold, predictions, ["accuracy", name])
    else:
        assert score(gold, predictions, [name]) == {name: value}


def test_missing_input_fails_in_ingest_stage(tmp_path):
    config = small_config(tmp_path, input_nt=tmp_path / "nowhere.nt")
    with pytest.raises(StageError) as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "ingest"
    assert "ingest" in str(excinfo.value)


def test_same_seed_reruns_byte_identically(tmp_path):
    first = small_config(tmp_path, "run_a")
    second = small_config(tmp_path, "run_b")
    run_pipeline(first)
    run_pipeline(second)
    for name in ARTIFACTS:
        assert (first.out_dir / name).read_bytes() == (
            second.out_dir / name
        ).read_bytes(), name


def test_different_seed_changes_vectors(tmp_path):
    first = small_config(tmp_path, "run_a", seed=5)
    second = small_config(
        tmp_path, "run_b", seed=6,
        embedding=TrainingConfig(dimension=12, window=2, epochs=8, initial_learning_rate=0.1),
        cnn=CnnConfig(filters_per_width=8, hidden_units=16, batch_size=8, epochs=60,
                      learning_rate=0.3),
    )
    run_pipeline(first)
    run_pipeline(second)
    assert (first.out_dir / "vectors.txt").read_bytes() != (
        second.out_dir / "vectors.txt"
    ).read_bytes()


def test_configs_sharing_stage_configs_keep_their_own_seeds(tmp_path):
    embedding = TrainingConfig(dimension=12)
    cnn = CnnConfig(hidden_units=16)
    first = small_config(tmp_path, "run_a", seed=5, embedding=embedding, cnn=cnn)
    second = small_config(tmp_path, "run_b", seed=6, embedding=embedding, cnn=cnn)
    assert (first.embedding.seed, first.cnn.seed) == (5, 5)
    assert (second.embedding.seed, second.cnn.seed) == (6, 6)
    assert (first.embedding.dimension, first.cnn.hidden_units) == (12, 16)
    assert (embedding.seed, cnn.seed) == (1, 1)  # the caller's objects are left as they were


@pytest.mark.parametrize("trainer", ["word2vec", "fasttext", "glove"])
def test_resume_reuses_persisted_artifacts(tmp_path, trainer):
    # A fresh run goes on with the vectors it saved, a resumed one with the
    # vectors it reads from vectors.txt; the classifier, retrained on the
    # latter, and every later artifact must come out the same.
    config = small_config(tmp_path, trainer=trainer)
    fresh = run_pipeline(config)
    before = {name: (config.out_dir / name).read_bytes() for name in ARTIFACTS}
    for name in ("model.bin", "pred_cnn.tsv", "pred_similarity.tsv", "metrics.json"):
        (config.out_dir / name).unlink()

    resumed = run_pipeline(small_config(tmp_path, trainer=trainer, resume=True))
    after = {name: (config.out_dir / name).read_bytes() for name in ARTIFACTS}
    assert [name for name in ARTIFACTS if after[name] != before[name]] == []
    assert resumed.metrics == fresh.metrics


def test_resume_reads_back_an_iri_that_holds_unicode_whitespace(tmp_path):
    # Iri refuses only ASCII space, tab, CR, LF, '<', '>' and '"'; corpus.txt
    # and vectors.txt separate fields by spaces, so no other whitespace in an
    # IRI may split its token on the way back in.
    config = small_config(tmp_path)
    kg_path = config.input_nt
    entity = "http://example.org/entity/c000_e0000"
    odd = entity + "\u00a0\u2028\x85\x0b\x1c\x1f"
    text = kg_path.read_text(encoding="utf-8")
    assert f"<{entity}>" in text
    kg_path.write_text(text.replace(f"<{entity}>", f"<{odd}>"), encoding="utf-8")
    run_pipeline(config)
    before = {name: (config.out_dir / name).read_bytes() for name in ARTIFACTS}
    assert odd.encode() in before["corpus.txt"] and odd.encode() in before["vectors.txt"]
    for name in ("model.bin", "pred_cnn.tsv", "pred_similarity.tsv", "metrics.json"):
        (config.out_dir / name).unlink()

    run_pipeline(small_config(tmp_path, resume=True))
    after = {name: (config.out_dir / name).read_bytes() for name in ARTIFACTS}
    assert [name for name in ARTIFACTS if after[name] != before[name]] == []


def test_resume_skips_embedding_training(tmp_path, monkeypatch):
    config = small_config(tmp_path)
    run_pipeline(config)

    def explode(*args, **kwargs):
        raise AssertionError("resume must not retrain embeddings")

    monkeypatch.setattr("kgtyper.pipeline.train_cbow", explode)
    resumed = small_config(tmp_path, resume=True)
    run_pipeline(resumed)  # completes because vectors.txt is reused


def test_seed_propagates_to_every_seeded_component(tmp_path):
    config = small_config(tmp_path, seed=77)
    assert config.embedding.seed == 77
    assert config.cnn.seed == 77


def test_unknown_trainer_rejected(tmp_path):
    with pytest.raises(ValueError):
        small_config(tmp_path, trainer="svd")


@pytest.mark.parametrize("weighting", [{"x_max": 0.0}, {"alpha": float("nan")}])
def test_bad_glove_weighting_rejected_before_any_stage(tmp_path, weighting):
    with pytest.raises(ValueError):
        small_config(tmp_path, trainer="glove", embedding=TrainingConfig(**weighting))


def test_type_triples_held_out_by_default(tmp_path):
    config = small_config(tmp_path)
    run_pipeline(config)
    corpus = (config.out_dir / "corpus.txt").read_text()
    assert RDF_TYPE not in corpus


def test_type_triples_kept_when_requested(tmp_path):
    config = small_config(tmp_path, hold_out_type_triples=False)
    run_pipeline(config)
    corpus = (config.out_dir / "corpus.txt").read_text()
    assert RDF_TYPE in corpus


def test_fasttext_and_glove_trainers_run_end_to_end(tmp_path):
    for trainer in ("fasttext", "glove"):
        config = small_config(
            tmp_path, f"run_{trainer}", trainer=trainer,
            embedding=TrainingConfig(
                dimension=12, window=2, epochs=8, initial_learning_rate=0.1,
                n_min=3, n_max=4, bucket_count=211,
            ),
        )
        result = run_pipeline(config)
        assert "cnn" in result.metrics and "similarity" in result.metrics


NUMPY_MA_PROBE = """
import sys
from pathlib import Path
from kgtyper.cnn import CnnConfig
from kgtyper.embeddings import TrainingConfig
from kgtyper.pipeline import PipelineConfig, run_pipeline, score
from kgtyper.prediction import Prediction
from kgtyper.synth import generate_synthetic_kg
out, trainer = Path(sys.argv[1]), sys.argv[2]
generate_synthetic_kg(out / "synth", num_classes=3, entities_per_class=6,
                      predicates_per_class=2, noise_fraction=0.0, seed=3)
run_pipeline(PipelineConfig(
    input_nt=out / "synth" / "kg.nt", out_dir=out / "run", trainer=trainer,
    embedding=TrainingConfig(dimension=8, epochs=2, n_min=3, n_max=4, bucket_count=211),
    cnn=CnnConfig(filters_per_width=4, hidden_units=8, batch_size=4, epochs=2),
    num_classes=3, entities_per_class=6,
))
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("trainer", ["word2vec", "fasttext", "glove"])
def test_pipeline_does_not_import_numpy_ma(tmp_path, trainer):
    """``np.unique`` imports ``numpy.ma`` on its first call, which costs
    1.2-1.6 MB of peak RSS; no trainer's pipeline needs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(kgtyper.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, str(tmp_path), trainer],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
