"""Tests of the benchmark's own checks: each must be able to fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]  # before the imports below

import check
import tracing
from kgtyper import (
    CnnConfig,
    PipelineConfig,
    TrainingConfig,
    generate_synthetic_kg,
    run_pipeline,
)
from kgtyper.evaluation import read_labels


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    """A small real pipeline run (seconds, not minutes)."""
    root = tmp_path_factory.mktemp("bench")
    synth = generate_synthetic_kg(
        root / "kg",
        num_classes=4,
        entities_per_class=10,
        predicates_per_class=2,
        noise_fraction=0.1,
        seed=3,
    )
    config = PipelineConfig(
        input_nt=synth.kg_path,
        out_dir=root / "run",
        embedding=TrainingConfig(dimension=16, epochs=3),
        cnn=CnnConfig(filters_per_width=8, hidden_units=8, epochs=3, learning_rate=0.2),
        num_classes=4,
        entities_per_class=10,
        seed=3,
    )
    run_pipeline(config)
    return root / "run"


def _copy(run_dir: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    return copy


def test_untouched_run_passes(run_dir, tmp_path):
    assert check.check_run(run_dir).problems == []
    assert check.digests(_copy(run_dir, tmp_path)) == check.digests(run_dir)


def test_corrupted_prediction_line_is_rejected(run_dir, tmp_path):
    copy = _copy(run_dir, tmp_path)
    gold = dict(read_labels(copy / "test.tsv"))
    path = copy / "pred_similarity.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # The first line of an entity is its top-ranked class; corrupt a correct one.
    seen = set()
    for index, line in enumerate(lines):
        entity, class_iri = line.rstrip("\n").split("\t")
        if entity not in seen and gold[entity] == class_iri:
            lines[index] = f"{entity}\thttp://example.org/ontology/NotAClass\n"
            break
        seen.add(entity)
    else:
        pytest.fail("no correct top-ranked similarity prediction to corrupt")
    path.write_text("".join(lines), encoding="utf-8")

    problems = check.check_run(copy).problems
    assert len(problems) == 1 and "re-scored" in problems[0]
    assert check.digests(copy)["pred_similarity.tsv"] != check.digests(run_dir)["pred_similarity.tsv"]


def test_missing_test_entity_is_rejected(run_dir, tmp_path):
    copy = _copy(run_dir, tmp_path)
    path = copy / "pred_cnn.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = lines[0].split("\t")[0]
    path.write_text("".join(l for l in lines if not l.startswith(dropped + "\t")), encoding="utf-8")

    outcome = check.check_run(copy)
    assert any("1 test entities missing" in problem for problem in outcome.problems)
    assert outcome.untyped == 1


def _span(name, parent, start, end):
    return {"name": name, "parent": parent, "start": start, "end": end, "counts": {}}


def test_self_times_add_up_to_the_pipeline_span():
    spans = [
        _span(tracing.ROOT_SPAN, None, 0.0, 10.0),
        _span("cnn.train", 0, 1.0, 7.0),
        _span("cnn.step", 1, 2.0, 3.0),
        _span("cnn.step", 1, 3.0, 5.0),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["pipeline.self_s"] == pytest.approx(4.0)
    assert metrics["cnn.train_s"] == pytest.approx(6.0)
    assert metrics["cnn.step_ms"] == pytest.approx(1500.0)
    assert sum(tracing.self_times(spans)) == pytest.approx(metrics["pipeline.traced_s"])


def test_overlapping_spans_are_rejected():
    spans = [
        _span(tracing.ROOT_SPAN, None, 0.0, 10.0),
        _span("cnn.step", 0, 1.0, 8.0),
        _span("cnn.step", 0, 5.0, 9.0),
    ]
    with pytest.raises(tracing.TraceError):
        tracing.layer_metrics(spans)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "acceptance", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
