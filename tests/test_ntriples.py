"""Parser conformance: positive fixtures, positioned errors, round-trip."""

from __future__ import annotations

import io

import pytest

from kgtyper.ntriples import (
    Iri,
    Literal,
    NTriplesError,
    ParseStats,
    Triple,
    parse_ntriples,
    parse_ntriples_file,
    write_ntriples,
)

# Each positive fixture: (input line, expected triple).
POSITIVE = [
    (
        "<http://a> <http://b> <http://c> .",
        Triple(Iri("http://a"), Iri("http://b"), Iri("http://c")),
    ),
    (
        '<http://a> <http://b> "Ulm" .',
        Triple(Iri("http://a"), Iri("http://b"), Literal("Ulm")),
    ),
    (
        '<http://a> <http://b> "Ulm"@de .',
        Triple(Iri("http://a"), Iri("http://b"), Literal("Ulm", language="de")),
    ),
    (
        '<http://a> <http://b> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        Triple(
            Iri("http://a"),
            Iri("http://b"),
            Literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        ),
    ),
    (
        '<http://a> <http://b> "line\\nbreak \\"q\\" tab\\t" .',
        Triple(Iri("http://a"), Iri("http://b"), Literal('line\nbreak "q" tab\t')),
    ),
    (
        '<http://a> <http://b> "caf\\u00E9 \\U0001F600" .',
        Triple(Iri("http://a"), Iri("http://b"), Literal("café \U0001f600")),
    ),
    (
        "  <http://a>\t<http://b>   <http://c>  .  ",
        Triple(Iri("http://a"), Iri("http://b"), Iri("http://c")),
    ),
    (
        "<http://a> <http://b> <http://c> . # trailing comment",
        Triple(Iri("http://a"), Iri("http://b"), Iri("http://c")),
    ),
]

# Each negative fixture: (input line, reason fragment expected in the error).
NEGATIVE = [
    ("<http://a> <http://b> <http://c>", "missing terminal"),
    ("<http://a> <http://b> <http://c .", "unbalanced '<'"),
    ('<http://a> <http://b> "unterminated .', "missing closing quote"),
    ("<http://a> <http://b> _:b0 .", "blank node"),
    ("_:b0 <http://b> <http://c> .", "blank node"),
    ("<http://a> <http://b> <http://c> . junk", "trailing"),
    ("<http://a> <http://b> 42 .", "expected IRI or literal"),
    ("<> <http://b> <http://c> .", "non-empty"),
    ("<http://a a> <http://b> <http://c> .", "forbidden character"),
    ('<http://a> <http://b> "bad\\qescape" .', "unknown escape"),
    ('<http://a> <http://b> "trunc\\u00" .', "truncated"),
    ("<http://a\\uD800b> <http://b> <http://c> .", "invalid \\u escape in IRI"),
    ('<http://a> <http://b> "x\\uDFFF" .', "invalid \\u escape in literal"),
    ('<http://a> <http://b> "x\\U0000DC00" .', "invalid \\U escape in literal"),
    ("http://a <http://b> <http://c> .", "expected '<'"),
]


@pytest.mark.parametrize("line,expected", POSITIVE)
def test_positive_fixture(line, expected):
    assert list(parse_ntriples([line])) == [expected]


@pytest.mark.parametrize("line,_reason", NEGATIVE)
def test_negative_fixture_strict_raises_with_line_number(line, _reason):
    with pytest.raises(NTriplesError) as excinfo:
        list(parse_ntriples(["<http://x> <http://y> <http://z> .", line]))
    assert excinfo.value.line_number == 2
    assert _reason in str(excinfo.value)


@pytest.mark.parametrize("line,reason", NEGATIVE)
def test_negative_fixture_lenient_skips_and_counts(line, reason):
    stats = ParseStats()
    triples = list(
        parse_ntriples(
            ["<http://x> <http://y> <http://z> .", line], strict=False, stats=stats
        )
    )
    assert len(triples) == 1
    assert stats.triples == 1
    assert stats.skipped == 1
    assert stats.errors[0][0] == 2
    assert reason in stats.errors[0][1]


def test_empty_input():
    assert list(parse_ntriples([])) == []


def test_comments_and_blank_lines_skipped():
    lines = ["# header", "", "   ", "<http://a> <http://b> <http://c> ."]
    assert len(list(parse_ntriples(lines))) == 1


def test_file_order_preserved():
    lines = [f"<http://s{i}> <http://p> <http://o> ." for i in range(20)]
    parsed = list(parse_ntriples(lines))
    assert [t.subject.value for t in parsed] == [f"http://s{i}" for i in range(20)]


@pytest.mark.parametrize("line,expected", POSITIVE)
def test_round_trip_normalized(line, expected):
    """serialize(parse(x)) == normalize(x): stable after one round."""
    once = list(parse_ntriples([line]))
    buffer = io.StringIO()
    write_ntriples(once, buffer)
    again = list(parse_ntriples(buffer.getvalue().splitlines()))
    assert once == again
    second = io.StringIO()
    write_ntriples(again, second)
    assert buffer.getvalue() == second.getvalue()


def test_object_tag_is_explicit():
    iri_t, lit_t = list(
        parse_ntriples(
            ["<http://a> <http://b> <http://c> .", '<http://a> <http://b> "x" .']
        )
    )
    assert iri_t.object_is_iri and not lit_t.object_is_iri


def test_literal_rejects_language_and_datatype_together():
    with pytest.raises(ValueError):
        Literal("x", language="en", datatype="http://dt")


def test_parse_byte_stream():
    raw = io.BytesIO('<http://a> <http://b> "café" .\n'.encode("utf-8"))
    (triple,) = list(parse_ntriples(raw))
    assert triple.object.lexical == "café"


def test_parse_file_strict_and_lenient(tmp_path):
    path = tmp_path / "in.nt"
    path.write_text(
        "<http://a> <http://b> <http://c> .\nBAD LINE\n", encoding="utf-8"
    )
    with pytest.raises(NTriplesError):
        list(parse_ntriples_file(path))
    stats = ParseStats()
    triples = list(parse_ntriples_file(path, strict=False, stats=stats))
    assert len(triples) == 1 and stats.skipped == 1


def test_line_counter_includes_comments_and_blanks():
    lines = ["# c", "", "<http://a> <http://b> <http://c>"]
    with pytest.raises(NTriplesError) as excinfo:
        list(parse_ntriples(lines))
    assert excinfo.value.line_number == 3


def test_write_ntriples_returns_count():
    triples = list(parse_ntriples(["<http://a> <http://b> <http://c> ."]))
    buffer = io.StringIO()
    assert write_ntriples(triples, buffer) == 1
    assert buffer.getvalue() == "<http://a> <http://b> <http://c> .\n"


@pytest.mark.parametrize("character", list(' \t\n\r<>"'))
def test_iri_rejects_each_forbidden_character(character):
    value = f"http://example.org/a{character}b"
    with pytest.raises(ValueError) as excinfo:
        Iri(value)
    assert str(excinfo.value) == f"IRI contains forbidden character: {value!r}"


def test_iri_accepts_other_characters():
    value = "http://example.org/a%20b{c}|d\\e^f`g\x0bh\x0ci\u00e9"
    assert Iri(value).value == value
