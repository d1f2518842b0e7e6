"""Streaming N-Triples reader and writer.

Covers the line-oriented subset needed for DBpedia-style dumps: IRI
subjects and predicates, IRI or literal objects (language tags and
datatype IRIs are retained), comment lines, blank lines. Blank nodes are
rejected in strict mode and skipped in lenient mode; the embedding
pipeline only consumes IRIs.

No external RDF library is used: the dumps we care about are plain
line-per-statement files, and a hand-rolled scanner keeps error positions
exact and the dependency footprint at zero.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

from .errors import DataError

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
OWL_THING = "http://www.w3.org/2002/07/owl#Thing"
DBO_AGENT = "http://dbpedia.org/ontology/Agent"

_WS = " \t"
_IRI_FORBIDDEN = re.compile(r'[ \t\n\r<>"]')


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


class _LineScanner:
    """Cursor over a single statement line."""

    def __init__(self, line: str, line_number: int):
        self.line = line
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> NTriplesError:
        return NTriplesError(message, self.line_number)

    def skip_ws(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in _WS:
            self.pos += 1

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def _unescape(self, raw: str, what: str) -> str:
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
                raise self.error(f"dangling escape in {what}")
            if tag in _ESCAPES:
                out.append(_ESCAPES[tag])
            elif not width:
                raise self.error(f"unknown escape '\\{tag}' in {what}")
            elif len(hexpart) != width:
                raise self.error(f"truncated \\{tag} escape in {what}")
            else:
                try:
                    char = chr(int(hexpart, 16))
                    char.encode("utf-8")  # refuses a surrogate code point
                except ValueError:  # UnicodeEncodeError included
                    raise self.error(f"invalid \\{tag} escape in {what}") from None
                out.append(char)
        return "".join(out) + raw[done:]

    def read_iri(self) -> Iri:
        if self.peek() != "<":
            raise self.error("expected '<'")
        end = self.line.find(">", self.pos + 1)
        if end < 0:
            raise self.error("unbalanced '<': missing closing '>'")
        raw = self.line[self.pos + 1 : end]
        self.pos = end + 1
        value = self._unescape(raw, "IRI")
        try:
            return Iri(value)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def read_literal(self) -> Literal:
        # Scan to the closing quote, honouring backslash escapes.
        assert self.peek() == '"'
        i = self.pos + 1
        while i < len(self.line):
            c = self.line[i]
            if c == "\\":
                i += 2
                continue
            if c == '"':
                break
            i += 1
        if i >= len(self.line):
            raise self.error("unbalanced '\"': missing closing quote")
        lexical = self._unescape(self.line[self.pos + 1 : i], "literal")
        self.pos = i + 1
        language = None
        datatype = None
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.line) and (
                self.line[self.pos].isalnum() or self.line[self.pos] == "-"
            ):
                self.pos += 1
            if self.pos == start:
                raise self.error("empty language tag")
            language = self.line[start : self.pos]
        elif self.line.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.read_iri().value
        return Literal(lexical, language=language, datatype=datatype)

    def read_object(self) -> RdfObject:
        c = self.peek()
        if c == "<":
            return self.read_iri()
        if c == '"':
            return self.read_literal()
        if self.line.startswith("_:", self.pos):
            raise self.error("blank node not supported")
        raise self.error("expected IRI or literal object")


def _parse_line(line: str, line_number: int) -> Triple | None:
    """Parse one statement line; returns None for blank/comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    scanner = _LineScanner(line.rstrip("\n\r"), line_number)
    scanner.skip_ws()
    if scanner.line.startswith("_:", scanner.pos):
        raise scanner.error("blank node not supported")
    subject = scanner.read_iri()
    scanner.skip_ws()
    predicate = scanner.read_iri()
    scanner.skip_ws()
    obj = scanner.read_object()
    scanner.skip_ws()
    if scanner.peek() != ".":
        raise scanner.error("missing terminal '.'")
    scanner.pos += 1
    scanner.skip_ws()
    trailing = scanner.line[scanner.pos :]
    if trailing and not trailing.startswith("#"):
        raise scanner.error(f"unexpected trailing content: {trailing!r}")
    return Triple(subject, predicate, obj)


def _iter_lines(source: Iterable[str] | IO) -> Iterator[str]:
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        source = io.TextIOWrapper(source, encoding="utf-8")
    for line in source:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        yield line


def parse_ntriples(
    source: Iterable[str] | IO,
    strict: bool = True,
    stats: ParseStats | None = None,
) -> Iterator[Triple]:
    """Parse N-Triples statements from lines, a text stream, or a byte stream.

    Yields triples in file order. Malformed lines raise
    :class:`NTriplesError` in strict mode; in lenient mode they are skipped
    and recorded in ``stats``.
    """
    for line_number, line in enumerate(_iter_lines(source), start=1):
        try:
            triple = _parse_line(line, line_number)
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
