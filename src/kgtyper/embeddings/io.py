"""Text persistence for trained vectors.

Line 1 is ``<vocab_size> <dimension>``; every following line is the token
string and its components as space-separated decimals, each printed as
``"%.6f"`` prints it. Six decimal places keep the files diffable, and the
round trip is exact: ``save_embeddings`` returns the values that
``load_embeddings`` reads back from its file, bit for bit. Non-finite
values are refused at save time.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from ..corpus import Vocabulary, split_fields
from ..errors import DataError, NumericalError
from .base import EmbeddingMatrix

ROWS_PER_CHUNK = 32


class EmbeddingFormatError(DataError):
    """Malformed vector file; names the file and carries the 1-based line number."""

    def __init__(self, path, message: str, line_number: int):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number


def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words of a component's text, which takes three: its sign and
    integer part, right aligned after NUL bytes; the point and three
    fraction digits; three fraction digits and the separator that follows.

    Returns the first words, at row ``n + 1000 * negative`` for integer
    part ``n < 1000``, then the second and the third, at row ``n`` for
    three fraction digits ``n``.
    """
    n = np.arange(1000)
    digits = (n[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    integer = np.zeros((2, 1000, 4), dtype=np.uint8)
    integer[:, :, 1:] = np.where(n[:, None] >= [100, 10, 0], digits, 0)
    integer[1, n, 2 - (n >= 10) - (n >= 100)] = ord("-")
    point = np.column_stack([np.full(1000, ord("."), dtype=np.uint8), digits])
    last = np.column_stack([digits, np.full(1000, ord(" "), dtype=np.uint8)])
    return tuple(np.ascontiguousarray(t).view("<u4").reshape(-1) for t in (integer, point, last))


def _text_chunks(tokens: list[str], vectors: np.ndarray, values: np.ndarray):
    """The file's lines for ``tokens`` and the rows of ``vectors``, as one
    bytes object per chunk of rows; sets ``values`` to the values printed.

    A component ``x`` prints the integer ``k = round(x * 1e6)`` with the
    point six digits from the right. Where ``|x| < 999``, so that the
    integer part has at most three digits, the float64 product ``x * 1e6``
    is below 2**30 and errs by less than 6e-8; ``np.rint`` of it is then
    ``k`` unless the product lies within 1e-6 of a half-integer. A row with
    any other component is printed by ``"%.6f"``, component by component.
    The value of the printed ``k`` is ``k / 1e6``: both are the float
    nearest to the same rational.
    """
    integer_words, point_words, last_words = _text_tables()
    words = np.empty((ROWS_PER_CHUNK, vectors.shape[1], 3), dtype="<u4")
    for start in range(0, len(tokens), ROWS_PER_CHUNK):
        block = vectors[start:start + ROWS_PER_CHUNK]
        rows = len(block)
        small = np.abs(block) < 999.0
        scaled = np.where(small, block, 0.0)
        scaled *= 1e6
        k = np.rint(scaled)
        exact = np.abs(scaled - k) < 0.5 - 1e-6
        exact &= small
        magnitude = np.abs(k).astype(np.intp)
        integer = magnitude // 1_000_000
        fraction = magnitude - integer * 1_000_000
        high = fraction // 1000
        np.add(integer, 1000, out=integer, where=np.signbit(block))
        words[:rows, :, 0] = integer_words[integer]
        words[:rows, :, 1] = point_words[high]
        words[:rows, :, 2] = last_words[fraction - high * 1000]
        text = words[:rows].view(np.uint8)
        text[:, -1, -1] = ord("\n")
        text = text[text != 0]
        ends = (np.flatnonzero(text == ord("\n")) + 1).tolist()
        text = memoryview(text)
        lines = [text[begin:end] for begin, end in zip([0, *ends], ends)]
        chunk_values = values[start:start + rows]
        np.divide(k, 1e6, out=chunk_values)
        for row in np.flatnonzero(~exact.all(axis=1)).tolist():
            texts = ["%.6f" % x for x in block[row].tolist()]
            lines[row] = (" ".join(texts) + "\n").encode()
            chunk_values[row] = [float(x) for x in texts]
        yield b"".join(
            part for token, line in zip(tokens[start:start + rows], lines)
            for part in (f"{token} ".encode(), line)
        )


def _parse_rows(fail, out: np.ndarray, pending: list[tuple[int, list[str]]]) -> None:
    """Set ``out`` to the components of the ``(line number, components)`` rows
    in ``pending``, each read as ``float()`` reads it, and empty ``pending``;
    raises ``fail(message, line number)`` at a non-numeric component."""
    try:  # numpy converts a str to float64 by float()
        out[:] = np.array([row for _, row in pending], dtype=np.float64).reshape(out.shape)
    except ValueError:
        for line_number, row in pending:
            try:
                [float(x) for x in row]
            except ValueError:
                raise fail("non-numeric component", line_number) from None
        raise
    pending.clear()


def save_embeddings(model, path) -> EmbeddingMatrix:
    """Write one vector per vocabulary token, row ``i`` of ``model.input_vectors``
    for token ``i`` (a subword model's rows are its compositions).

    Returns the matrix the file holds, over the model's vocabulary: the
    values that ``load_embeddings`` reads back, so that a caller need not
    read the file. They are a new array; the model's are left as they were.
    """
    tokens = model.vocabulary.id_to_token
    vectors = np.asarray(model.input_vectors, dtype=np.float64)
    dimension = vectors.shape[1]
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise NumericalError(f"non-finite vector for token {tokens[np.argmin(finite)]}")
    # Not the model's array rounded in place: a caller that keeps that and
    # drops the model keeps the trainer's last allocation, above the ones it
    # freed, so the heap cannot shrink (1-2 MB more peak RSS on large-glove).
    values = np.empty((len(tokens), dimension))
    with open(path, "wb") as handle:
        handle.write(f"{len(tokens)} {dimension}\n".encode())
        handle.writelines(_text_chunks(tokens, vectors, values))
    return EmbeddingMatrix(values, model.vocabulary)


def load_embeddings(path) -> EmbeddingMatrix:
    """Read a vector file back into a matrix.

    Frequencies are not stored in the format, so the reconstructed
    vocabulary keeps the file's token order with unit counts.
    """
    fail = functools.partial(EmbeddingFormatError, path)
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        parts = split_fields(header)
        if len(parts) != 2:
            raise fail("header must be '<vocab_size> <dimension>'", 1)
        try:
            vocab_size, dimension = int(parts[0]), int(parts[1])
        except ValueError:
            raise fail("non-integer header fields", 1) from None
        if vocab_size < 0 or dimension < 1:
            raise fail("header counts out of range", 1)
        if handle.seekable() and 2 * vocab_size * dimension > os.fstat(handle.fileno()).st_size:
            raise fail("header declares more components than the file can hold", 1)
        first_line: dict[str, int] = {}  # line of each token, in file order
        vectors = np.empty((vocab_size, dimension))
        row = 0
        pending: list[tuple[int, list[str]]] = []  # (line, components) of rows to convert
        line_number = 1
        try:
            for line_number, line in enumerate(handle, start=2):
                fields = split_fields(line)
                if not fields:
                    continue
                if row >= vocab_size:
                    raise fail(f"more rows than the declared {vocab_size}", line_number)
                if len(fields) != dimension + 1:
                    raise fail(
                        f"expected {dimension} components, got {len(fields) - 1}", line_number
                    )
                pending.append((line_number, fields[1:]))
                row += 1
                token = fields[0]
                if token in first_line:
                    raise fail(
                        f"duplicate token {token!r}, first on line {first_line[token]}", line_number
                    )
                first_line[token] = line_number
                if len(pending) == ROWS_PER_CHUNK:
                    _parse_rows(fail, vectors[row - len(pending):row], pending)
        finally:  # also on an error, which a non-numeric component before it replaces
            _parse_rows(fail, vectors[row - len(pending):row], pending)
        if row != vocab_size:
            raise fail(
                f"header declared {vocab_size} rows but file has {row}", line_number if row else 1
            )
    vocab = Vocabulary([(token, 1) for token in first_line], total_tokens=row)
    return EmbeddingMatrix(vectors, vocab)
