"""Serialize a knowledge graph as a sentence corpus and build its vocabulary.

Each triple whose object is an IRI becomes one three-token sentence
"subject predicate object". Literal-object triples are skipped (their
objects are prose, not graph nodes), and rdf:type triples are held out
by default so that the class a typing model must recover never appears
verbatim in its training text.
"""

import tempfile
from pathlib import Path

from kgtyper import (
    RDF_TYPE,
    KnowledgeGraph,
    build_vocabulary,
    generate_synthetic_kg,
    parse_ntriples_file,
    triples_to_corpus,
)

with tempfile.TemporaryDirectory(prefix="kgtyper_demo_") as out_dir:
    synth = generate_synthetic_kg(
        Path(out_dir), num_classes=3, entities_per_class=5, predicates_per_class=2,
        noise_fraction=0.0, seed=7,
    )
    print(f"synthetic KG: {synth.num_triples} triples, {synth.num_entities} entities "
          f"-> {synth.kg_path}")
    kg = KnowledgeGraph.from_triples(parse_ntriples_file(synth.kg_path))

corpus = triples_to_corpus(kg, exclude_predicates={RDF_TYPE})
print(f"\nheld-out corpus: {len(corpus)} sentences "
      f"({corpus.skipped_excluded} rdf:type triples held out); the first three:")
for sentence in corpus.sentences[:3]:
    print("  " + " ".join(token.rsplit('/', 1)[-1] for token in sentence))

kept = triples_to_corpus(kg)
print(f"keeping rdf:type triples instead would give {len(kept)} sentences")

vocab = build_vocabulary(corpus)
print(f"\nvocabulary: {len(vocab)} distinct tokens over {vocab.total_tokens} occurrences")
print(f"most frequent token: {vocab.token_of(0).rsplit('/', 1)[-1]} (x{vocab.frequency[0]})")
