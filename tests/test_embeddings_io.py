"""Vector file format: round trips and malformed-input diagnostics."""

from __future__ import annotations

import os
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import embedding_matrix, reference_load_rows
from hypothesis import given
from hypothesis import strategies as st

from kgtyper.corpus import build_vocabulary
from kgtyper.embeddings import (
    TrainingConfig,
    load_embeddings,
    save_embeddings,
    train_cbow,
    train_fasttext,
)
from kgtyper.embeddings.io import EmbeddingFormatError
from kgtyper.errors import NumericalError


def test_written_file_layout(tmp_path):
    model = embedding_matrix({"a": [1.0, 2.0], "b": [0.125, -3.5]})
    path = tmp_path / "vectors.txt"
    save_embeddings(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2"
    assert lines[1] == "a 1.000000 2.000000"
    assert lines[2] == "b 0.125000 -3.500000"


def test_rows_print_as_per_component_format(tmp_path):
    rng = np.random.default_rng(9)
    edge = [-0.0, 0.0, -4e-7, 4e-7, -5e-7, 5e-7, 1e6, -1e6, 0.1234565, 1e-300, 123456789.1234567]
    vectors = {f"tok{k:02d}": rng.normal(0.0, 10.0 ** (k % 7 - 3), size=len(edge)).tolist()
               for k in range(12)}
    vectors["edge"] = edge
    model = embedding_matrix(vectors)
    path = tmp_path / "vectors.txt"
    save_embeddings(model, path)
    expected = f"{len(vectors)} {len(edge)}\n" + "".join(
        token + " " + " ".join(f"{x:.6f}" for x in model.vector_of(token)) + "\n"
        for token in model.vocabulary.id_to_token
    )
    assert " -0.000000 " in expected and " 1000000.000000 " in expected
    assert path.read_bytes() == expected.encode("utf-8")


def half_way(m: int) -> st.SearchStrategy[float]:
    """The float nearest to (m + 0.5) / 1e6, or one of its two neighbours."""
    x = (m + 0.5) / 1e6
    return st.sampled_from([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


COMPONENTS = st.one_of(
    st.integers(-(10**9), 10**9).flatmap(half_way),
    st.integers(-999, 999).flatmap(half_way),
    st.sampled_from([0.0, -0.0, -4e-7, -5e-7, 5e-7, 1e3, -1e3, 999.0, 999.9999995]),
    st.floats(-5e-7, -1e-300),  # prints -0.000000
    st.floats(-2.3e-308, 2.3e-308),  # subnormals among them
    st.floats(-2e3, 2e3),  # both sides of the writer's 999 bound
    st.floats(-123456789.1234567, 123456789.1234567),
    st.floats(allow_nan=False, allow_infinity=False),
)
TOKENS = st.text(st.characters(categories=("L", "N")), min_size=1, max_size=6)


@given(
    rows=st.lists(
        st.tuples(TOKENS, st.lists(COMPONENTS, min_size=3, max_size=3)),
        min_size=1, max_size=70, unique_by=lambda row: row[0],
    ),
)
def test_saved_text_and_values_are_exact(tmp_path_factory, rows):
    tokens = [token for token, _ in rows]
    vectors = np.array([components for _, components in rows])
    path = tmp_path_factory.mktemp("exact") / "vectors.txt"
    saved = save_embeddings(embedding_matrix(dict(zip(tokens, vectors))), path)
    expected = f"{len(rows)} 3\n" + "".join(
        token + " " + " ".join(f"{x:.6f}" for x in components) + "\n"
        for token, components in rows
    )
    assert path.read_bytes() == expected.encode("utf-8")
    loaded = load_embeddings(path)
    assert loaded.vocabulary.id_to_token == saved.vocabulary.id_to_token == tokens
    assert saved.input_vectors.tobytes() == loaded.input_vectors.tobytes()


def test_save_holds_no_matrix_sized_temporary(tmp_path):
    # The large-glove workload's vocabulary at the benchmark's dimension.
    rows, dimension = 3454, 100
    vectors = np.random.default_rng(5).normal(0.0, 0.5, size=(rows, dimension))
    model = embedding_matrix({f"http://example.org/resource/e{i}": v for i, v in enumerate(vectors)})
    tracemalloc.start()
    try:
        saved = save_embeddings(model, tmp_path / "vectors.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beyond = peak - saved.input_vectors.nbytes  # the returned matrix itself
    assert beyond < 1_000_000, f"{beyond / 1e6:.2f} MB beyond the returned matrix"


def test_load_small_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 3\nalpha 0.1 0.2 0.3\nbeta -1 -2 -3\n")
    matrix = load_embeddings(path)
    assert len(matrix.vocabulary) == 2
    assert matrix.input_vectors.shape[1] == 3
    assert np.allclose(matrix.vector_of("alpha"), [0.1, 0.2, 0.3])
    assert np.allclose(matrix.vector_of("beta"), [-1, -2, -3])


def test_round_trip_within_1e6(tmp_path):
    rng = np.random.default_rng(4)
    vectors = {f"tok{i}": rng.normal(0, 1, size=5).tolist() for i in range(10)}
    model = embedding_matrix(vectors)
    path = tmp_path / "vectors.txt"
    save_embeddings(model, path)
    loaded = load_embeddings(path)
    for token, original in vectors.items():
        assert np.abs(loaded.vector_of(token) - np.asarray(original)).max() <= 1e-6


def test_round_trip_of_trained_cbow(tmp_path):
    corpus = [("a", "b", "c"), ("b", "c", "d"), ("a", "c", "d")] * 5
    vocab = build_vocabulary(corpus)
    matrix = train_cbow(corpus, vocab, TrainingConfig(dimension=6, epochs=2, seed=1))
    path = tmp_path / "vectors.txt"
    save_embeddings(matrix, path)
    loaded = load_embeddings(path)
    for token in vocab.id_to_token:
        assert np.abs(loaded.vector_of(token) - matrix.vector_of(token)).max() <= 1e-6


def test_subword_composition_is_baked_into_saved_vectors(tmp_path):
    corpus = [("ab", "cd", "ef"), ("cd", "ef", "gh")] * 5
    vocab = build_vocabulary(corpus)
    config = TrainingConfig(dimension=4, epochs=1, seed=1, n_min=2, n_max=3, bucket_count=53)
    model = train_fasttext(corpus, vocab, config)
    path = tmp_path / "vectors.txt"
    save_embeddings(model, path)
    loaded = load_embeddings(path)
    for token in vocab.id_to_token:
        assert np.abs(loaded.vector_of(token) - model.vector_of(token)).max() <= 1e-6
        # The composed vector, not the raw word row, is what persists.
        raw = model.ngrams.inputs[vocab.token_to_id[token]]
        assert not np.allclose(loaded.vector_of(token), raw)


def test_loaded_vocabulary_keeps_file_order(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("3 1\nzebra 1\napple 2\nmango 3\n")
    matrix = load_embeddings(path)
    assert matrix.vocabulary.id_to_token == ["zebra", "apple", "mango"]


def test_non_finite_vector_refused(tmp_path):
    model = embedding_matrix({"a": [1.0, float("nan")]})
    with pytest.raises(NumericalError):
        save_embeddings(model, tmp_path / "vectors.txt")


def test_token_with_unicode_whitespace_round_trips(tmp_path):
    odd = "http://a\u00a0b\u2028c\x85d\x0be\x1cf"
    matrix = embedding_matrix({odd: [0.5, -1.0], "b": [2.0, 0.25]})
    path = tmp_path / "vectors.txt"
    saved = save_embeddings(matrix, path)
    loaded = load_embeddings(path)
    assert loaded.vocabulary.id_to_token == [odd, "b"]
    assert np.array_equal(loaded.input_vectors, saved.input_vectors)
    path.write_text(f"2\t2\n{odd}\t0.5  -1\nb 2\t0.25\n", encoding="utf-8")
    assert np.array_equal(load_embeddings(path).input_vectors, saved.input_vectors)


def test_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 2\na 1 2\n\nb 3 4\n\n")
    matrix = load_embeddings(path)
    assert np.allclose(matrix.vector_of("b"), [3, 4])


@pytest.mark.parametrize(
    "content,bad_line",
    [
        ("2\n", 1),  # header missing the dimension
        ("x y\n", 1),  # non-integer header
        ("1 0\n", 1),  # zero dimension
        ("2 2\na 1 2\n", 2),  # fewer rows than declared: last line read
        ("1 2\na 1 2\nb 3 4\n", 3),  # more rows than declared
        ("1 2\na 1\n", 2),  # ragged row: too few components
        ("1 2\na 1 2 3\n", 2),  # ragged row: too many components
        ("1 2\na 1 oops\n", 2),  # non-numeric component
        ("1000000000000 100\na 1\n", 1),  # 10^12 rows of 100 cannot fit in the file
        ("3 2\na 1 2\n", 1),  # 6 components take at least 12 bytes, the file has 10
    ],
)
def test_malformed_files_name_the_line(tmp_path, content, bad_line):
    path = tmp_path / "vectors.txt"
    path.write_text(content)
    with pytest.raises(EmbeddingFormatError) as excinfo:
        load_embeddings(path)
    assert excinfo.value.line_number == bad_line
    assert str(excinfo.value).startswith(f"{path}: line {bad_line}: ")


# Spellings that float() reads (some of them unusual) and some it refuses.
READABLE = ["0.125000", "-0.000000", "1_0", "inf", "-Infinity", "nan", "-nan", "\u0661\u0662",
            "1e-320", "+.5", "5.", "1E5"]
REFUSED = ["0x10", "1e", "nan1", "--1", "1__0", "\u00b2", "."]


@pytest.mark.parametrize("seed", range(60))
def test_load_matches_per_component_reference(tmp_path, seed):
    """Values, and the first error's line and message, equal those of a
    loader that calls float() once per component, across chunk boundaries."""
    rng = np.random.default_rng(seed)
    dimension = int(rng.integers(1, 5))
    rows = int(rng.integers(0, 90))
    lines = []
    for i in range(rows):
        width = dimension + (int(rng.integers(-1, 2)) if rng.random() < 0.01 else 0)
        pool = REFUSED if rng.random() < 0.01 else READABLE
        components = [pool[int(rng.integers(len(pool)))] if rng.random() < 0.2
                      else f"{rng.normal():.6f}" for _ in range(width)]
        token = f"t{int(rng.integers(rows)) if rng.random() < 0.005 else i}"
        lines += [" ".join([token, *components])] + [""] * int(rng.random() < 0.05)
    declared = rows + (int(rng.integers(-2, 3)) if rng.random() < 0.2 else 0)
    path = tmp_path / "vectors.txt"
    path.write_text(f"{max(declared, 0)} {dimension}\n" + "\n".join(lines) + "\n", encoding="utf-8")
    try:
        tokens, vectors = reference_load_rows(path)
    except EmbeddingFormatError as expected:
        with pytest.raises(EmbeddingFormatError) as got:
            load_embeddings(path)
        assert (got.value.line_number, str(got.value)) == (expected.line_number, str(expected))
        return
    loaded = load_embeddings(path)
    assert loaded.vocabulary.id_to_token == tokens
    assert loaded.input_vectors.tobytes() == vectors.tobytes()


def test_header_row_count_mismatch_message(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("3 2\na 1 2\nb 3 4\n")
    with pytest.raises(EmbeddingFormatError) as excinfo:
        load_embeddings(path)
    assert "declared 3" in str(excinfo.value)


def test_repeated_token_names_its_line_and_first_line(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("3 1\na 1\nb 2\n\na 3\n")
    with pytest.raises(EmbeddingFormatError) as excinfo:
        load_embeddings(path)
    assert excinfo.value.line_number == 5
    assert str(excinfo.value) == f"{path}: line 5: duplicate token 'a', first on line 2"


def test_vector_file_read_through_a_pipe_loads(tmp_path):
    """A pipe has no size to check the header against, so its rows are read
    as a file's are."""
    fifo = tmp_path / "vectors.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("2 2\na 1 2\nb 3 4\n",), daemon=True)
    writer.start()
    matrix = load_embeddings(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(matrix.input_vectors, [[1.0, 2.0], [3.0, 4.0]])
