"""Streaming N-Triples reader and writer.

Covers the line-oriented subset needed for DBpedia-style dumps: IRI
subjects and predicates, IRI or literal objects (language tags and
datatype IRIs are retained), comment lines, blank lines. Blank nodes are
rejected in strict mode and skipped in lenient mode; the embedding
pipeline only consumes IRIs.

No external RDF library is used: the dumps we care about are plain
line-per-statement files, and the dependency footprint stays at zero. A
statement of three IRIs (every line of the benchmark's generated graphs)
is read with one compiled regular expression match for the whole line.
Any other line (a literal object, a blank node, an error) is read with
one match per term (subject, predicate, object, terminal '.'), and every
error names its line; a line holding '"' goes there without trying the
whole-line match. One parse keeps one ``Iri`` per distinct IRI text,
so the triples of a dump where IRIs recur hold each IRI once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

from .errors import DataError

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
OWL_THING = "http://www.w3.org/2002/07/owl#Thing"
DBO_AGENT = "http://dbpedia.org/ontology/Agent"

_IRI_FORBIDDEN = re.compile(r'[ \t\n\r<>"]')
# A statement of three IRIs, whole, with its line break. It accepts only lines
# that the per-term reading below accepts, with the same three IRI texts.
_IRI_STATEMENT = re.compile(
    r"[ \t]*<([^>]*)>[ \t]*<([^>]*)>[ \t]*<([^>]*)>[ \t]*\.[ \t]*(?:#.*)?[\r\n]*"
)
# Any other statement line is read with one match per term, each starting
# where the last ended and skipping spaces and tabs first. A term that does
# not match is looked at again only to name the error.
_SKIPPED_LINE = re.compile(r"\s*(?:#|\Z)")  # blank or comment
_SPACE = re.compile(r"[ \t]*")
_IRI_TERM = re.compile(r"[ \t]*<([^>]*)>")
# An IRI, or a literal (a backslash escapes any next character) with a
# language tag (the characters str.isalnum accepts, and '-') or a datatype.
_OBJECT_TERM = re.compile(
    r'[ \t]*(?:<([^>]*)>|"([^"\\]*(?:\\.[^"\\]*)*)"(?:@((?:[^\W_]|-)*)|\^\^<([^>]*)>)?)', re.S
)
_TERMINAL = re.compile(r"[ \t]*\.[ \t]*")
_LANGTAG = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")  # N-Triples' LANGTAG, after the '@'


class NTriplesError(DataError):
    """Malformed N-Triples input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.reason = message


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI, stored without the surrounding angle brackets."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise ValueError("IRI must be non-empty")
        if _IRI_FORBIDDEN.search(self.value):
            raise ValueError(f"IRI contains forbidden character: {self.value!r}")

    def serialized(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal object with its lexical form and optional tag."""

    lexical: str
    language: str | None = None
    datatype: str | None = None

    def __post_init__(self):
        if self.language is not None and self.datatype is not None:
            raise ValueError("literal cannot carry both language and datatype")

    def serialized(self) -> str:
        out = f'"{escape_literal(self.lexical)}"'
        if self.language is not None:
            out += f"@{self.language}"
        elif self.datatype is not None:
            out += f"^^<{self.datatype}>"
        return out


RdfObject = Union[Iri, Literal]


@dataclass(frozen=True, slots=True)
class Triple:
    """One subject/predicate/object statement."""

    subject: Iri
    predicate: Iri
    object: RdfObject

    @property
    def object_is_iri(self) -> bool:
        return isinstance(self.object, Iri)

    def serialized(self) -> str:
        return (
            f"{self.subject.serialized()} {self.predicate.serialized()} "
            f"{self.object.serialized()} ."
        )


@dataclass
class ParseStats:
    """Counters filled in while parsing; errors only accumulate in lenient mode."""

    triples: int = 0
    skipped: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)


_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_SERIALIZE_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def escape_literal(text: str) -> str:
    return "".join(_SERIALIZE_ESCAPES.get(c, c) for c in text)


def _unescape(raw: str, what: str, line_number: int) -> str:
    if "\\" not in raw:
        return raw
    out, done = [], 0
    while (i := raw.find("\\", done)) >= 0:
        out.append(raw[done:i])
        tag = raw[i + 1 : i + 2]
        width = {"u": 4, "U": 8}.get(tag, 0)
        hexpart = raw[i + 2 : i + 2 + width]
        done = i + 2 + width
        if not tag:
            raise NTriplesError(f"dangling escape in {what}", line_number)
        if tag in _ESCAPES:
            out.append(_ESCAPES[tag])
        elif not width:
            raise NTriplesError(f"unknown escape '\\{tag}' in {what}", line_number)
        elif len(hexpart) != width:
            raise NTriplesError(f"truncated \\{tag} escape in {what}", line_number)
        else:
            try:
                # int() would also take a sign, spaces, "_" and non-ASCII digits
                if hexpart.strip("0123456789abcdefABCDEF"):
                    raise ValueError(hexpart)
                char = chr(int(hexpart, 16))
                char.encode("utf-8")  # refuses a surrogate code point
            except ValueError:  # UnicodeEncodeError included
                raise NTriplesError(f"invalid \\{tag} escape in {what}", line_number) from None
            out.append(char)
    return "".join(out) + raw[done:]


def _iri(raw: str, line_number: int, iris: dict[str, Iri]) -> Iri:
    """The ``Iri`` of ``raw`` (the text between the brackets), made once per
    distinct ``raw`` of a parse and kept in ``iris`` once checked."""
    iri = iris.get(raw)
    if iri is None:
        value = _unescape(raw, "IRI", line_number)
        try:
            iri = Iri(value)
        except ValueError as exc:
            raise NTriplesError(str(exc), line_number) from None
        iris[raw] = iri
    return iri


def _iri_error(line: str, pos: int, line_number: int) -> NTriplesError:
    """Why no ``<...>`` starts at ``pos``."""
    if line.startswith("<", pos):
        return NTriplesError("unbalanced '<': missing closing '>'", line_number)
    return NTriplesError("expected '<'", line_number)


def _term_error(line: str, pos: int, line_number: int, term: str) -> NTriplesError:
    """Why the subject, predicate or object term does not match at ``pos``."""
    pos = _SPACE.match(line, pos).end()
    if term != "predicate" and line.startswith("_:", pos):
        return NTriplesError("blank node not supported", line_number)
    if term == "object":
        if line.startswith('"', pos):
            return NTriplesError("unbalanced '\"': missing closing quote", line_number)
        if not line.startswith("<", pos):
            return NTriplesError("expected IRI or literal object", line_number)
    return _iri_error(line, pos, line_number)


def _parse_line(line: str, line_number: int, iris: dict[str, Iri]) -> Triple | None:
    """Parse one statement line; returns None for blank/comment lines."""
    # A '"' starts a literal object (or sits in a comment, or in an IRI that
    # _iri refuses): such a line skips the statement match, which would fail
    # only after reading the subject and predicate.
    m = None if '"' in line else _IRI_STATEMENT.fullmatch(line)
    if m is not None:  # never a blank or comment line: it starts with '<'
        s, p, o = m.groups()
        get = iris.get
        return Triple(
            get(s) or _iri(s, line_number, iris),
            get(p) or _iri(p, line_number, iris),
            get(o) or _iri(o, line_number, iris),
        )
    if _SKIPPED_LINE.match(line):
        return None
    line = line.rstrip("\n\r")
    m = _IRI_TERM.match(line)
    if m is None:
        raise _term_error(line, 0, line_number, "subject")
    subject = _iri(m[1], line_number, iris)
    end = m.end()
    m = _IRI_TERM.match(line, end)
    if m is None:
        raise _term_error(line, end, line_number, "predicate")
    predicate = _iri(m[1], line_number, iris)
    end = m.end()
    m = _OBJECT_TERM.match(line, end)
    if m is None:
        raise _term_error(line, end, line_number, "object")
    iri, lexical, language, datatype = m.groups()
    if iri is not None:
        obj = _iri(iri, line_number, iris)
    else:
        lexical = _unescape(lexical, "literal", line_number)
        if language == "":
            raise NTriplesError("empty language tag", line_number)
        if language is not None and not _LANGTAG.fullmatch(language):
            raise NTriplesError(f"invalid language tag {language!r}", line_number)
        if datatype is not None:
            datatype = _iri(datatype, line_number, iris).value
        elif language is None and line.startswith("^^", m.end()):
            raise _iri_error(line, m.end() + 2, line_number)  # no <...> after the '^^'
        obj = Literal(lexical, language=language, datatype=datatype)
    end = m.end()
    m = _TERMINAL.match(line, end)
    if m is None:
        raise NTriplesError("missing terminal '.'", line_number)
    trailing = line[m.end() :]
    if trailing and not trailing.startswith("#"):
        raise NTriplesError(f"unexpected trailing content: {trailing!r}", line_number)
    return Triple(subject, predicate, obj)


def parse_ntriples(
    source: Iterable[str],
    strict: bool = True,
    stats: ParseStats | None = None,
) -> Iterator[Triple]:
    """Parse N-Triples statements from lines or a text stream.

    Yields triples in file order. Malformed lines raise
    :class:`NTriplesError` in strict mode; in lenient mode they are skipped
    and recorded in ``stats``. Triples share one ``Iri`` per distinct IRI.
    """
    iris: dict[str, Iri] = {}
    for line_number, line in enumerate(source, start=1):
        try:
            triple = _parse_line(line, line_number, iris)
        except NTriplesError as exc:
            if strict:
                raise
            if stats is not None:
                stats.skipped += 1
                stats.errors.append((line_number, exc.reason))
            continue
        if triple is not None:
            if stats is not None:
                stats.triples += 1
            yield triple


def parse_ntriples_file(
    path, strict: bool = True, stats: ParseStats | None = None
) -> Iterator[Triple]:
    """Parse a ``.nt`` file; the file handle lives as long as the iterator."""
    with open(path, encoding="utf-8") as handle:
        yield from parse_ntriples(handle, strict=strict, stats=stats)


def write_ntriples(triples: Iterable[Triple], handle: IO) -> int:
    """Serialize triples one statement per line; returns the line count."""
    count = 0
    for triple in triples:
        handle.write(triple.serialized() + "\n")
        count += 1
    return count
