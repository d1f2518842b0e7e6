"""Type entities by both routes: filter-bank classifier and vector similarity.

A synthetic knowledge graph provides ground truth. After training CBOW
vectors, the classifier (a bank of filters as wide as the vector, a hidden
layer and a sigmoid head) learns class scores from labeled entity vectors,
while the similarity route represents each class by the mean vector of its
training members and scores the fine-grained candidates below the entity's
coarse ancestor by cosine. Each route gives one score matrix over all the
test entities, and ``ScoreMatrix.predictions`` ranks its rows.
"""

import tempfile
from pathlib import Path

from kgtyper import (
    RDF_TYPE,
    CnnConfig,
    KnowledgeGraph,
    TrainingConfig,
    build_dataset,
    build_hierarchy,
    build_vocabulary,
    generate_synthetic_kg,
    parse_ntriples_file,
    split,
    train_cbow,
    train_cnn,
    triples_to_corpus,
)
from kgtyper.pipeline import cnn_scores, similarity_scores

with tempfile.TemporaryDirectory(prefix="kgtyper_demo_") as out_dir:
    synth = generate_synthetic_kg(
        Path(out_dir), num_classes=4, entities_per_class=12, predicates_per_class=2,
        noise_fraction=0.0, seed=5,
    )
    triples = list(parse_ntriples_file(synth.kg_path))
kg = KnowledgeGraph.from_triples(triples)
hierarchy = build_hierarchy(kg, roots={synth.root})

corpus = triples_to_corpus(kg, exclude_predicates={RDF_TYPE})
vocab = build_vocabulary(corpus)
emb = train_cbow(corpus, vocab, TrainingConfig(dimension=24, window=2, epochs=25,
                                               initial_learning_rate=0.15, seed=1))

dataset = build_dataset(kg, hierarchy, num_classes=4, entities_per_class=12, seed=1)
dataset = split(dataset, train_fraction=0.75, seed=1)
train, test = dataset.train_examples(), dataset.test_examples()
print(f"dataset: {len(train)} train / {len(test)} test entities over 4 classes")

model = train_cnn(train, emb, CnnConfig(filters_per_width=16, hidden_units=24, batch_size=16,
                                        epochs=120, learning_rate=0.3, seed=1))
print(f"classifier trained; epoch loss {model.epoch_losses[0]:.4f} -> {model.epoch_losses[-1]:.4f}")



def short(iri: str) -> str:
    return iri.rsplit("/", 1)[-1]


entities = [entity for entity, _ in test]
matrices = {
    "cnn": cnn_scores(entities, model, emb),
    # The similarity route refines a known coarse type: take the entity's
    # asserted class, collect the candidates below its coarse ancestor,
    # and score them by cosine against the mean vectors of the classes'
    # training members.
    "similarity": similarity_scores(entities, train, kg, hierarchy, emb),
}
predictions = {method: matrix.predictions() for method, matrix in matrices.items()}
correct = {
    method: sum(p.ranking[:1] == [gold] for p, (_, gold) in zip(rows, test))
    for method, rows in predictions.items()
}

entity, gold = test[0]
print(f"\nexample entity {short(entity)} (gold {short(gold)}):")
for method, matrix in matrices.items():
    row = dict(zip(matrix.classes, matrix.values[0]))
    top2 = [(short(c), round(float(row[c]), 3)) for c in predictions[method][0].ranking[:2]]
    print(f"  {method + ' top-2:':<18}{top2}")

print(f"\ntest accuracy — cnn: {correct['cnn']}/{len(test)}, "
      f"similarity: {correct['similarity']}/{len(test)}")
