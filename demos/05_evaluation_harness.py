"""Run the evaluation harness: metrics, coarse statistics, external overlap,
and the one-call pipeline.

The pipeline chains every stage (ingest, corpus, embeddings, dataset,
classifier, predictions, metrics) into one seeded, resumable run whose
artifacts are all plain text.
"""

import tempfile
from pathlib import Path

import numpy as np

from kgtyper import (
    CnnConfig,
    PipelineConfig,
    ScoreMatrix,
    TrainingConfig,
    accuracy,
    external_overlap,
    generate_synthetic_kg,
    hits_at_k,
    run_pipeline,
)

# Metrics on a hand-made fixture: gold class "A" for both entities, one
# prediction ranks it first, the other second.
gold = {"e1": "A", "e2": "A"}
scores = ScoreMatrix(["e1", "e2"], ["A", "B"], np.array([[0.9, 0.1], [0.4, 0.6]]),
                     np.ones((2, 2), dtype=bool))
predictions = scores.predictions()
print(f"accuracy {accuracy(predictions, gold):.2f}, "
      f"hits@1 {hits_at_k(predictions, gold, 1):.2f}, "
      f"hits@2 {hits_at_k(predictions, gold, 2):.2f}")

# Overlap against an "external" typing of the same entities.
ours = {"e1": "A", "e2": "A", "e3": "B"}
theirs = {"e2": "A", "e3": "C", "e4": "D"}
report = external_overlap(ours, theirs)
print(f"external overlap: {report.intersection} shared entities of {report.our_entities} ours; "
      f"{report.matching_types} agree on the type")

# Full pipeline on a synthetic KG.
with tempfile.TemporaryDirectory(prefix="kgtyper_demo_") as work:
    work = Path(work)
    synth = generate_synthetic_kg(work / "kg", num_classes=3, entities_per_class=10,
                                  predicates_per_class=2, noise_fraction=0.0, seed=3)
    config = PipelineConfig(
        input_nt=synth.kg_path,
        out_dir=work / "run",
        embedding=TrainingConfig(dimension=16, window=2, epochs=15,
                                 initial_learning_rate=0.15, seed=1),
        cnn=CnnConfig(filters_per_width=16, hidden_units=24, batch_size=8, epochs=80,
                      learning_rate=0.3, seed=1),
        num_classes=3,
        entities_per_class=10,
        train_fraction=0.8,
        seed=1,
    )
    result = run_pipeline(config)
    print("\npipeline report:")
    print(result.report_text())
    print(f"artifacts in {config.out_dir}:")
    for path in sorted(config.out_dir.iterdir()):
        print(f"  {path.name}")
