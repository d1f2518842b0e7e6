"""Parser conformance: positive fixtures, positioned errors, round-trip."""

from __future__ import annotations

import io
from itertools import product

import pytest
from conftest import reference_parse
from hypothesis import given, settings, strategies as st

from kgtyper.ntriples import (
    _IRI_STATEMENT,
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
    (
        '<http://a> <http://b> "x"@en-US .',
        Triple(Iri("http://a"), Iri("http://b"), Literal("x", language="en-US")),
    ),
    (
        '<http://a> <http://b> "x"@de-CH-1996 .',
        Triple(Iri("http://a"), Iri("http://b"), Literal("x", language="de-CH-1996")),
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
    # Language tags follow N-Triples' LANGTAG: [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*
    ('<http://a> <http://b> "x"@- .', "invalid language tag '-'"),
    ('<http://a> <http://b> "x"@en- .', "invalid language tag 'en-'"),
    ('<http://a> <http://b> "x"@1 .', "invalid language tag '1'"),
    ('<http://a> <http://b> "x"@dé .', "invalid language tag 'dé'"),
    ('<http://a> <http://b> "x"@en--US .', "invalid language tag 'en--US'"),
    # A \u or \U escape takes hex digits only; int(..., 16) would also take
    # a sign, surrounding spaces and underscores.
    ('<http://a> <http://b> "x\\u 0e9" .', "invalid \\u escape in literal"),
    ('<http://a> <http://b> "x\\u+0e9" .', "invalid \\u escape in literal"),
    ("<http://a\\u0_e9> <http://b> <http://c> .", "invalid \\u escape in IRI"),
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


def test_recurring_iris_share_one_object_each():
    """Lines that repeat k IRIs yield exactly k distinct ``Iri`` objects,
    and the triples the reference scanner reads."""
    names = [f"<http://example.org/r{k}>" for k in range(4)]
    lines = [f"{s} {p} {o} ." for s, p, o in product(names, repeat=3)]
    triples = list(parse_ntriples(lines))
    assert (triples, []) == reference_parse(lines)
    terms = {id(term) for t in triples for term in (t.subject, t.predicate, t.object)}
    assert len(terms) == len(names)


# Lines of the three-IRI statement shape, which one match reads whole (one
# holding '"' is read term by term instead): the spacing and comments it
# allows, escapes, and IRI texts that the shape takes but Iri or the
# unescaping refuses.
IRI_STATEMENTS = [
    "<http://a><http://b><http://c>.",
    "<http://a>\t<http://b>\t\t<http://c>\t.\t",
    " \t<http://a> <http://b> <http://c>.",
    "<http://a> <http://b> <http://c> .#c",
    "<http://a> <http://b> <http://c> . # c",
    "<http://a> <http://b> <http://c>.# c <http://d> .",
    "<http://caf\\u00E9> <http://b> <http://\\U0001F600> .",
    "<http://a b> <http://b> <http://c> .",
    "<http://a> <http://b\\q> <http://c> .",
    "<http://a> <http://b> <http://c\\u00> .",
    "<http://a> <http://b> <http://c\\uD800> .",
    '<http://a> <http://b> <http://"c"> .',
    "<http://a> <http://<b> <http://c> .",
    "<http://a> <> <http://c> .",
    "<http://a\\> <http://b> <http://c> .",
]


@pytest.mark.parametrize("line", IRI_STATEMENTS)
@pytest.mark.parametrize("ending", ["", "\n", "\r\n"])
def test_iri_statement_reads_as_the_reference_does(line, ending):
    lines = ["<http://x> <http://y> <http://z> .", line + ending]
    assert _IRI_STATEMENT.fullmatch(lines[1])
    stats = ParseStats()
    triples = list(parse_ntriples(lines, strict=False, stats=stats))
    assert (triples, stats.errors) == reference_parse(lines)


# Near misses of that shape, which the per-term reading must refuse or read.
NEAR_IRI_STATEMENTS = [
    "<http://a> <http://b> <http://c> .\x0b",
    "<http://a> <http://b> <http://c> .\x0c# c",
    "<http://a> <http://b> <http://c>\x0b.",
    "\x0b<http://a> <http://b> <http://c> .",
    "<http://a> <http://b> <http://c> .\r.",
    "<http://a> <http://b> <http://c> . junk",
    "<http://a> <http://b> <http://c> ..",
    "<http://a> <http://b> <http://c>",
    "<http://a> <http://b> <http://c .",
    "<http://a> <http://b> <http://c> .\n# c\n",
]


@pytest.mark.parametrize("line", NEAR_IRI_STATEMENTS)
def test_near_iri_statement_reads_as_the_reference_does(line):
    lines = ["<http://x> <http://y> <http://z> .", line]
    stats = ParseStats()
    triples = list(parse_ntriples(lines, strict=False, stats=stats))
    assert (triples, stats.errors) == reference_parse(lines)


def test_iri_statement_shape_names_each_error_as_the_reference_does():
    stats = ParseStats()
    triples = list(parse_ntriples(IRI_STATEMENTS, strict=False, stats=stats))
    assert (triples, stats.errors) == reference_parse(IRI_STATEMENTS)
    assert [line for line, _ in stats.errors] == list(range(8, 16))
    assert triples[-1] == Triple(Iri("http://café"), Iri("http://b"), Iri("http://\U0001f600"))


def test_crlf_file_without_final_newline(tmp_path):
    path = tmp_path / "in.nt"
    lines = ["<http://a> <http://b> <http://c> .\r\n", "# c\r\n", "\r\n",
             '<http://a> <http://b> "x" .\r\n', "<http://a> <http://b> <http://d> ."]
    path.write_bytes("".join(lines).encode("utf-8"))
    stats = ParseStats()
    triples = list(parse_ntriples_file(path, strict=False, stats=stats))
    assert (triples, stats.errors) == reference_parse(lines)
    assert [t.object for t in triples] == [Iri("http://c"), Literal("x"), Iri("http://d")]


# Generated lines: each part is well formed nine times in ten, so that
# most lines reach their object and terminal, and otherwise one of the
# inputs that steer the scanner: escapes (surrogates, truncated, unknown, a
# backslash before the closing quote), blank nodes, tabs and mid-line
# carriage returns, comments, missing or doubled terminals, trailing junk,
# and language tags that break N-Triples' LANGTAG rule.
def _mostly(good, bad):
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def _text(good, bad):
    return st.lists(_mostly(st.sampled_from(good), st.sampled_from(bad)), max_size=5).map("".join)


_GOOD_IRIS = [
    "<http://a>", "<http://b/é>", "<http://c#x>", "<http://d\\u00E9>", "<http://e\\U0001F600>"
]
_BAD_IRI = st.builds(
    "<{}{}".format,
    _text(["http://a", "b", "é", "#", ".", "\\u00E9", "\\U0001F600"],
          [" ", "\t", "\r", '"', "\\", "\\uD800", "\\U0000DC00", "\\u00", "\\n", "\\q", "\\>"]),
    st.sampled_from([">", ">", ""]),
)
_IRI = _mostly(st.sampled_from(_GOOD_IRIS), _BAD_IRI)
_LITERAL = st.builds(
    '"{}{}{}'.format,
    _text(["x", "é", " ", "\t", "#", "<", ">", "@", ".", '\\"', "\\\\", "\\u00e9", "\\U0001F600",
           "\\t"],
          ["\r", "\\", '"', "\\uDFFF", "\\U0000DC00", "\\u12", "\\q"]),
    _mostly(st.just('"'), st.sampled_from(["", "\\"])),
    st.one_of(
        st.just(""),
        st.sampled_from(["en", "en-US", "de-CH-1996", "EN", "x-1", "en_US", "-", "en-", "1", "dé",
                         "en--US", "ру", "٣", "", "en- US"]).map("@{}".format),
        _mostly(_IRI, st.sampled_from([" <http://t>", "x", "<http://t", ""])).map("^^{}".format),
    ),
)
_JUNK = st.sampled_from(["_:b0", "_:", "x", "", "<>", "42", '"x'])
_SPACE = _mostly(st.sampled_from([" ", " ", "\t", "", " \t "]), st.sampled_from(["\r", "\x0b"]))
_END = _mostly(
    st.sampled_from([".", " .", ". ", ". # c", ".#", " .\t"]),
    st.sampled_from([". junk", "..", "", "\r", ".\r.", ".\x0b", ".\r"]),
)
_LINE = _mostly(
    st.builds(
        "{}{}{}{}{}{}{}{}{}".format,
        _SPACE, _mostly(_IRI, _JUNK),
        _SPACE, _mostly(_IRI, _JUNK),
        _SPACE, _mostly(st.one_of(_IRI, _LITERAL), _JUNK),
        _SPACE, _END, st.sampled_from(["", "\n", "\r\n"]),
    ),
    st.sampled_from(["", "\n", "  \t", "# comment", "  # indented", "\x0b# c", "\x0b<http://a>"]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_LINE, min_size=1, max_size=8))
def test_parser_agrees_with_reference_scanner(lines):
    """Every generated line gives the reference's triple, or its
    ``(line_number, reason)``; IRIs recur across the lines of one parse."""
    stats = ParseStats()
    triples = list(parse_ntriples(lines, strict=False, stats=stats))
    assert (triples, stats.errors) == reference_parse(lines)
