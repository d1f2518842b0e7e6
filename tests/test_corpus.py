"""Sentence serialization and vocabulary construction."""

from __future__ import annotations

import collections
import re

import pytest
from hypothesis import given, strategies as st

from kgtyper.corpus import (
    Vocabulary,
    build_vocabulary,
    read_corpus,
    split_fields,
    triples_to_corpus,
    write_corpus,
)
from kgtyper.errors import DataError
from kgtyper.graph import KnowledgeGraph
from kgtyper.ntriples import RDF_TYPE, parse_ntriples


def kg_of(lines):
    return KnowledgeGraph.from_triples(parse_ntriples(lines))


def test_einstein_sentence():
    kg = kg_of(
        [
            "<http://dbpedia.org/resource/Albert_Einstein> "
            "<http://dbpedia.org/ontology/birthPlace> "
            "<http://dbpedia.org/resource/Ulm> ."
        ]
    )
    build = triples_to_corpus(kg)
    assert build.sentences == [
        (
            "http://dbpedia.org/resource/Albert_Einstein",
            "http://dbpedia.org/ontology/birthPlace",
            "http://dbpedia.org/resource/Ulm",
        )
    ]


def test_empty_graph_empty_corpus():
    build = triples_to_corpus(kg_of([]))
    assert build.sentences == [] and build.skipped_literals == 0


def test_literal_objects_skipped_and_counted():
    kg = kg_of(
        [
            "<http://a> <http://p> <http://b> .",
            '<http://a> <http://q> "literal" .',
        ]
    )
    build = triples_to_corpus(kg)
    assert len(build.sentences) == 1
    assert build.skipped_literals == 1
    # |corpus| + skipped counts add back up to the graph size
    assert len(build.sentences) + build.skipped_literals == kg.num_triples


def test_excluded_predicates_held_out_and_counted():
    kg = kg_of(
        [
            f"<http://e> <{RDF_TYPE}> <http://C> .",
            "<http://e> <http://p> <http://v> .",
        ]
    )
    build = triples_to_corpus(kg, exclude_predicates=frozenset({RDF_TYPE}))
    assert build.sentences == [("http://e", "http://p", "http://v")]
    assert build.skipped_excluded == 1
    assert len(build.sentences) + build.skipped_literals + build.skipped_excluded == 2


def test_corpus_preserves_input_order():
    lines = [f"<http://s{i}> <http://p> <http://o{i}> ." for i in range(10)]
    build = triples_to_corpus(kg_of(lines))
    assert [s[0] for s in build.sentences] == [f"http://s{i}" for i in range(10)]


class TestVocabulary:
    CORPUS = [("a", "b", "c"), ("a", "b", "d")]

    def test_min_count_one_counts_every_token(self):
        vocab = build_vocabulary(self.CORPUS, min_count=1)
        assert {t: vocab.frequency[vocab.id_of(t)] for t in "abcd"} == {
            "a": 2,
            "b": 2,
            "c": 1,
            "d": 1,
        }
        assert vocab.total_tokens == 6

    def test_min_count_two_filters_but_total_still_counts_corpus(self):
        vocab = build_vocabulary(self.CORPUS, min_count=2)
        assert set(vocab.token_to_id) == {"a", "b"}
        assert vocab.total_tokens == 6

    def test_empty_corpus(self):
        vocab = build_vocabulary([], min_count=1)
        assert len(vocab) == 0 and vocab.total_tokens == 0

    def test_ids_contiguous_by_descending_frequency_then_lexicographic(self):
        corpus = [("z", "z", "z"), ("m", "z", "a"), ("m", "a", "q")]
        vocab = build_vocabulary(corpus)
        # z:4, a:2, m:2, q:1 -> ids 0..3 with the a/m tie broken lexically
        assert [vocab.token_of(i) for i in range(4)] == ["z", "a", "m", "q"]

    def test_bijection(self):
        vocab = build_vocabulary(self.CORPUS)
        for token, token_id in vocab.token_to_id.items():
            assert vocab.token_of(token_id) == token

    def test_unknown_token_raises(self):
        vocab = build_vocabulary(self.CORPUS)
        with pytest.raises(DataError):
            vocab.id_of("nope")

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(self.CORPUS, min_count=0)


@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcdef"),
            st.sampled_from("pq"),
            st.sampled_from("uvwxyz"),
        ),
        max_size=60,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_vocabulary_matches_brute_force_recount(sentences, min_count):
    vocab = build_vocabulary(sentences, min_count=min_count)
    counts = collections.Counter(t for s in sentences for t in s)
    expected = {t: n for t, n in counts.items() if n >= min_count}
    assert {t: vocab.frequency[i] for t, i in vocab.token_to_id.items()} == expected
    assert vocab.total_tokens == sum(counts.values())


def test_corpus_file_round_trip(tmp_path):
    sentences = [("a", "b", "c"), ("d", "e", "f")]
    path = tmp_path / "corpus.txt"
    write_corpus(path, sentences)
    assert read_corpus(path) == sentences
    assert path.read_text(encoding="utf-8") == "a b c\nd e f\n"


def test_corpus_round_trip_keeps_unicode_whitespace_inside_tokens(tmp_path):
    # Fields are separated by ASCII spaces (tabs are read too); an IRI may
    # hold any other whitespace character.
    odd = "http://a\u00a0b\u2028c\x85d\x0be\x1cf\x1fg\u3000h"
    path = tmp_path / "corpus.txt"
    write_corpus(path, [(odd, "http://p", "http://o")])
    assert read_corpus(path) == [(odd, "http://p", "http://o")]
    path.write_text(f"  {odd}\thttp://p \t http://o\t\n", encoding="utf-8")
    assert read_corpus(path) == [(odd, "http://p", "http://o")]


@given(st.text("ab \t\xa0\u2028\x0b\r", max_size=12), st.sampled_from(["", "\n"]))
def test_split_fields_splits_at_ascii_spaces_and_tabs_only(body, ending):
    # Both the one-split path (single spaces) and the filtering one must
    # give the runs between spaces, tabs and the line break.
    assert split_fields(body + ending) == re.findall(r"[^ \t\n]+", body + ending)


def test_read_corpus_rejects_wrong_token_count(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n", encoding="utf-8")
    with pytest.raises(DataError) as excinfo:
        read_corpus(path)
    assert "line 1" in str(excinfo.value)
