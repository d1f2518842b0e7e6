"""Output check of one pipeline's run directory.

A run passes when every test entity has a ranking in both prediction
files, no other entity does, and re-scoring the files against
``test.tsv`` with ``kgtyper.evaluation`` reproduces ``metrics.json``
exactly. Determinism is checked by the caller, which compares the
``digests`` of repeated runs at one seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from kgtyper.evaluation import accuracy, align_predictions, hits_at_k, read_labels, read_rankings

ARTIFACTS = ("vectors.txt", "model.bin", "pred_cnn.tsv", "pred_similarity.tsv", "metrics.json")
ROUTES = {"cnn": "pred_cnn.tsv", "similarity": "pred_similarity.tsv"}


@dataclass
class RunCheck:
    problems: list[str]
    metrics: dict
    test_entities: int
    untyped: int  # test entities without a ranking from at least one route


def digests(run_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def check_run(run_dir: Path) -> RunCheck:
    metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
    gold = dict(read_labels(run_dir / "test.tsv"))
    problems = []
    if metrics.get("test_entities") != len(gold):
        problems.append(
            f"metrics.json counts {metrics.get('test_entities')} test entities, test.tsv {len(gold)}"
        )
    untyped: set[str] = set()
    for route, filename in ROUTES.items():
        predictions = read_rankings(run_dir / filename)
        ranked = {prediction.entity for prediction in predictions}
        missing = sorted(gold.keys() - ranked)
        extra = sorted(ranked - gold.keys())
        untyped.update(missing)
        if missing:
            problems.append(f"{filename}: {len(missing)} test entities missing, first {missing[0]}")
        if extra:
            problems.append(f"{filename}: {len(extra)} entities not in test.tsv, first {extra[0]}")
        aligned = align_predictions(gold, predictions)
        rescored = {
            "accuracy": accuracy(aligned, gold),
            "hits@1": hits_at_k(aligned, gold, 1),
            "hits@3": hits_at_k(aligned, gold, 3),
        }
        if rescored != metrics.get(route):
            problems.append(f"{filename}: re-scored {rescored}, metrics.json has {metrics.get(route)}")
    return RunCheck(problems, metrics, len(gold), len(untyped))
