"""Text persistence for trained vectors.

Line 1 is ``<vocab_size> <dimension>``; every following line is the token
string and its components as space-separated decimals. Six decimal places
keep the save/load round trip within 1e-6 per component while the files
stay diffable. Non-finite values are refused at save time.
"""

from __future__ import annotations

import numpy as np

from ..corpus import Vocabulary
from ..errors import DataError, NumericalError
from .base import EmbeddingMatrix


class EmbeddingFormatError(DataError):
    """Malformed vector file; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def save_embeddings(model, path) -> None:
    """Write one vector per vocabulary token, row ``i`` of ``model.input_vectors``
    for token ``i`` (a subword model's rows are its compositions)."""
    tokens = model.vocabulary.id_to_token
    vectors = model.input_vectors
    dimension = vectors.shape[1]
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise NumericalError(f"non-finite vector for token {tokens[np.argmin(finite)]}")
    # One %-format per row; "%.6f" prints a float as f"{x:.6f}" does.
    line = "%s " + " ".join(["%.6f"] * dimension) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(tokens)} {dimension}\n")
        handle.writelines(line % (token, *vector.tolist()) for token, vector in zip(tokens, vectors))


def load_embeddings(path) -> EmbeddingMatrix:
    """Read a vector file back into a lookup-only matrix.

    Frequencies are not stored in the format, so the reconstructed
    vocabulary keeps the file's token order with unit counts; the output
    side is zero-filled.
    """
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError("header must be '<vocab_size> <dimension>'", 1)
        try:
            vocab_size, dimension = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError("non-integer header fields", 1) from None
        if vocab_size < 0 or dimension < 1:
            raise EmbeddingFormatError("header counts out of range", 1)
        first_line: dict[str, int] = {}  # line of each token, in file order
        vectors = np.empty((vocab_size, dimension))
        row = 0
        line_number = 1
        for line_number, line in enumerate(handle, start=2):
            fields = line.split()
            if not fields:
                continue
            if row >= vocab_size:
                raise EmbeddingFormatError(
                    f"more rows than the declared {vocab_size}", line_number
                )
            if len(fields) != dimension + 1:
                raise EmbeddingFormatError(
                    f"expected {dimension} components, got {len(fields) - 1}",
                    line_number,
                )
            try:
                vectors[row] = [float(x) for x in fields[1:]]
            except ValueError:
                raise EmbeddingFormatError("non-numeric component", line_number) from None
            token = fields[0]
            if token in first_line:
                raise EmbeddingFormatError(
                    f"duplicate token {token!r}, first on line {first_line[token]}", line_number
                )
            first_line[token] = line_number
            row += 1
        if row != vocab_size:
            raise EmbeddingFormatError(
                f"header declared {vocab_size} rows but file has {row}",
                line_number if row else 1,
            )
    vocab = Vocabulary([(token, 1) for token in first_line], total_tokens=row)
    return EmbeddingMatrix(vectors, np.zeros_like(vectors), vocab)
