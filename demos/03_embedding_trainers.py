"""Train all three embedding models on the same corpus and compare them.

The corpus comes from a small synthetic knowledge graph in which each
class stamps its entities with characteristic predicate/object pairs, so
entities of the same class should end up near each other in vector
space. We check that with a quick same-class vs. cross-class cosine
comparison for every trainer, and show FastText composing a vector for a
token it never saw.
"""

import tempfile
from pathlib import Path

import numpy as np

from kgtyper import (
    RDF_TYPE,
    KnowledgeGraph,
    TrainingConfig,
    build_cooccurrence,
    build_vocabulary,
    cosine_similarity,
    generate_synthetic_kg,
    parse_ntriples_file,
    train_cbow,
    train_fasttext,
    train_glove,
    triples_to_corpus,
)

with tempfile.TemporaryDirectory(prefix="kgtyper_demo_") as out_dir:
    synth = generate_synthetic_kg(
        Path(out_dir), num_classes=3, entities_per_class=10, predicates_per_class=2,
        noise_fraction=0.0, seed=11,
    )
    kg = KnowledgeGraph.from_triples(parse_ntriples_file(synth.kg_path))
    gold_lines = Path(synth.gold_path).read_text().splitlines()
corpus = triples_to_corpus(kg, exclude_predicates={RDF_TYPE})
vocab = build_vocabulary(corpus)
gold = {}
for line in gold_lines:
    entity, class_iri = line.split("\t")
    gold[entity] = class_iri
entities = sorted(gold)

# One config serves all three trainers; each reads the settings of its own
# method (the n-gram sizes and hash buckets are fastText's alone).
config = TrainingConfig(
    dimension=16, window=2, epochs=20, initial_learning_rate=0.1, seed=1,
    n_min=3, n_max=6, bucket_count=5000,
)


def class_separation(model) -> tuple[float, float]:
    """Mean cosine between same-class and cross-class entity pairs."""
    same, cross = [], []
    for i, a in enumerate(entities):
        for b in entities[i + 1:]:
            sim = cosine_similarity(model.vector_of(a), model.vector_of(b))
            (same if gold[a] == gold[b] else cross).append(sim)
    return float(np.mean(same)), float(np.mean(cross))


cbow = train_cbow(corpus, vocab, config)
fasttext = train_fasttext(corpus, vocab, config)
matrix = build_cooccurrence(corpus, vocab, window=2)
glove = train_glove(matrix, vocab, config)

print(f"{'trainer':<10} {'same-class':>11} {'cross-class':>12}")
for name, model in (("word2vec", cbow), ("fasttext", fasttext), ("glove", glove)):
    same, cross = class_separation(model)
    print(f"{name:<10} {same:>11.3f} {cross:>12.3f}")
print("""\
word2vec separates the classes cleanly. FastText's n-grams run over each
IRI's local name, but these local names (c000_e0000, c001_e0003, ...)
differ in a few digits only, so entities of every class share most of
their n-grams and all look alike; same-class pairs still score slightly
higher than cross-class ones. Subword sharing helps morphology-rich words,
not near-identical names. GloVe's
absolute similarities are small on a corpus this tiny, but the same-class
signal is still an order of magnitude above cross-class.""")

unseen = entities[0] + "_variant"
vector = fasttext.vector_of(unseen)
print(f"\nFastText composes a vector for the unseen token ...{unseen[-18:]}")
print(f"from its character n-gram buckets; cosine to the seen original: "
      f"{cosine_similarity(vector, fasttext.vector_of(entities[0])):.3f}")
