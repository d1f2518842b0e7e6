"""Triple-as-sentence corpus and vocabulary construction.

Every triple whose object is an IRI becomes one three-token sentence
(subject, predicate, object), tokens being the full IRI strings. Literal
objects carry no trainable token and are skipped. Sentences are never
concatenated across triples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import AbstractSet, Iterable, Sequence

from .errors import DataError
from .graph import KnowledgeGraph

Sentence = tuple[str, ...]


@dataclass
class CorpusBuild:
    """Sentences plus the bookkeeping counters for skipped triples."""

    sentences: list[Sentence] = field(default_factory=list)
    skipped_literals: int = 0
    skipped_excluded: int = 0

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)


def triples_to_corpus(
    kg: KnowledgeGraph, exclude_predicates: AbstractSet[str] = frozenset()
) -> CorpusBuild:
    """One sentence per IRI-object triple, in input order.

    ``exclude_predicates`` drops whole triples from the corpus (used to
    hold out ``rdf:type`` statements so evaluation labels never leak into
    the embedding space).
    """
    build = CorpusBuild()
    for triple in kg.triples:
        if not triple.object_is_iri:
            build.skipped_literals += 1
            continue
        if triple.predicate.value in exclude_predicates:
            build.skipped_excluded += 1
            continue
        build.sentences.append(
            (triple.subject.value, triple.predicate.value, triple.object.value)
        )
    return build


class Vocabulary:
    """Token table with dense ids ordered by descending frequency.

    Ties are broken lexicographically so that the id assignment is a pure
    function of the corpus. ``total_tokens`` counts every token occurrence
    in the corpus, including occurrences of tokens dropped by
    ``min_count``.
    """

    def __init__(self, tokens_with_counts: Sequence[tuple[str, int]], total_tokens: int):
        self.id_to_token: list[str] = [t for t, _ in tokens_with_counts]
        self.token_to_id: dict[str, int] = {
            t: i for i, (t, _) in enumerate(tokens_with_counts)
        }
        self.frequency: list[int] = [c for _, c in tokens_with_counts]
        self.total_tokens = total_tokens
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        try:
            return self.token_to_id[token]
        except KeyError:
            raise DataError(f"token not in vocabulary: {token}") from None

    def token_of(self, token_id: int) -> str:
        return self.id_to_token[token_id]


def build_vocabulary(corpus: Iterable[Sentence], min_count: int = 1) -> Vocabulary:
    """Count tokens and keep those occurring at least ``min_count`` times."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(chain.from_iterable(corpus))
    kept = sorted(
        ((t, c) for t, c in counts.items() if c >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    return Vocabulary(kept, sum(counts.values()))


def split_fields(line: str) -> list[str]:
    """The fields of one line of a corpus or vector file: the runs of text
    between ASCII spaces and tabs, without the line break. ``str.split()``
    would also split at U+00A0, U+2028 and the other whitespace an IRI may
    hold. A line with single spaces between its fields, as the writers put
    them, takes one ``split``."""
    fields = line.rstrip("\n").split(" ")
    if "" in fields or "\t" in line:  # a run of spaces, an edge space, or a tab
        return [part for part in line.rstrip("\n").replace("\t", " ").split(" ") if part]
    return fields


def write_corpus(path, sentences: Iterable[Sentence]) -> int:
    """Write one sentence per line, space-separated IRI tokens."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            handle.write(" ".join(sentence) + "\n")
            count += 1
    return count


def read_corpus(path) -> list[Sentence]:
    """Read a corpus file back; each line must hold exactly three tokens."""
    sentences: list[Sentence] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            tokens = tuple(split_fields(line))
            if not tokens:
                continue
            if len(tokens) != 3:
                raise DataError(
                    f"{path}: line {line_number}: expected 3 tokens, got {len(tokens)}"
                )
            sentences.append(tokens)
    return sentences
