"""Shared fixtures: tiny graphs, corpora, and embedding stand-ins."""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pytest
from hypothesis import settings

from kgtyper.embeddings import EmbeddingMatrix
from kgtyper.embeddings.base import distinct_counts, init_input_vectors
from kgtyper.embeddings.cbow import ns_block
from kgtyper.embeddings.glove import DEFAULT_ALPHA, DEFAULT_X_MAX, entry_block, glove_weight
from kgtyper.graph import KnowledgeGraph, build_hierarchy
from kgtyper.ntriples import Iri, Literal, NTriplesError, Triple, parse_ntriples

# Derandomized examples, so that a CI failure reproduces locally: --hypothesis-profile ci
settings.register_profile("ci", derandomize=True)

ACCEPTANCE_LINES: list[str] = []


def acceptance(ok: bool, line: str) -> None:
    """Record one acceptance-criterion outcome; shown in the run summary."""
    full = f"{'PASS' if ok else 'FAIL'}: {line}"
    ACCEPTANCE_LINES.append(full)
    print(full)
    assert ok, full


def acceptance_report(line: str) -> None:
    """Record a reported-only (never failing) acceptance line."""
    full = f"REPORT: {line}"
    ACCEPTANCE_LINES.append(full)
    print(full)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True, scope="session")
def _without_kgtyper_environment():
    """Run every test, and every shared fixture, without the caller's
    ``KGTYPER_*`` settings; a test sets the ones it checks itself."""
    with pytest.MonkeyPatch.context() as patch:
        for name in [name for name in os.environ if name.startswith("KGTYPER_")]:
            patch.delenv(name)
        yield


OWL_THING = "http://www.w3.org/2002/07/owl#Thing"
AGENT = "http://dbpedia.org/ontology/Agent"
ORGANISATION = "http://dbpedia.org/ontology/Organisation"
COMPANY = "http://dbpedia.org/ontology/Company"
LAWFIRM = "http://dbpedia.org/ontology/LawFirm"
PERSON = "http://dbpedia.org/ontology/Person"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
SUBCLASS = "http://www.w3.org/2000/01/rdf-schema#subClassOf"

LAWFIRM_NT = f"""\
<{LAWFIRM}> <{SUBCLASS}> <{COMPANY}> .
<{COMPANY}> <{SUBCLASS}> <{ORGANISATION}> .
<{ORGANISATION}> <{SUBCLASS}> <{AGENT}> .
<{PERSON}> <{SUBCLASS}> <{AGENT}> .
<http://dbpedia.org/resource/Baker_McKenzie> <{RDF_TYPE}> <{LAWFIRM}> .
<http://dbpedia.org/resource/Baker_McKenzie> <http://dbpedia.org/ontology/location> <http://dbpedia.org/resource/Chicago> .
"""


@pytest.fixture
def lawfirm_kg() -> KnowledgeGraph:
    return KnowledgeGraph.from_triples(parse_ntriples(LAWFIRM_NT.splitlines()))


@pytest.fixture
def lawfirm_hierarchy(lawfirm_kg):
    return build_hierarchy(lawfirm_kg)


class FixedVectors:
    """Embedding stand-in over a plain dict of precomputed vectors."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        self.vectors = {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()}

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def vector_of(self, token: str) -> np.ndarray:
        return self.vectors[token]


@pytest.fixture
def fixed_vectors():
    return FixedVectors


def reference_fnv1a_32(text: str) -> int:
    """32-bit FNV-1a over the UTF-8 bytes of ``text``, one byte at a time."""
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x01000193) % 2**32
    return value


def reference_ngrams(token: str, n_min: int, n_max: int) -> list[str]:
    """Character n-grams of the boundary-wrapped token, by length and then
    start position, duplicates kept."""
    wrapped = f"<{token}>"
    return [
        wrapped[i : i + n]
        for n in range(n_min, n_max + 1)
        for i in range(len(wrapped) - n + 1)
    ]


def reference_buckets(token: str, config) -> list[int]:
    """The bucket of each n-gram of ``token`` under an ``NGramConfig``."""
    grams = reference_ngrams(token, config.n_min, config.n_max)
    return [reference_fnv1a_32(gram) % config.bucket_count for gram in grams]


def cooccurrence_events(corpus, vocab, window: int):
    """Brute-force pair enumeration: ``(i, j, 1/distance)`` for every
    in-vocabulary pair within the window, then its mirror unless i == j,
    sentence by sentence and position by position. Distances are measured
    over original sentence positions."""
    for sentence in corpus:
        for i in range(len(sentence)):
            id_i = vocab.token_to_id.get(sentence[i])
            if id_i is None:
                continue
            for j in range(i + 1, min(len(sentence), i + window + 1)):
                id_j = vocab.token_to_id.get(sentence[j])
                if id_j is None:
                    continue
                yield id_i, id_j, 1.0 / (j - i)
                if id_i != id_j:
                    yield id_j, id_i, 1.0 / (j - i)


def cooccurrence_oracle(corpus, vocab, window: int) -> list[tuple[int, int, float]]:
    """The sorted ``(i, j, weight)`` entries: each pair's events added one
    at a time, in the order ``cooccurrence_events`` gives them, to 0.0."""
    entries: dict[tuple[int, int], float] = {}
    for a, b, weight in cooccurrence_events(corpus, vocab, window):
        entries[(a, b)] = entries.get((a, b), 0.0) + weight
    return sorted((a, b, weight) for (a, b), weight in entries.items())


def random_corpus(rng: np.random.Generator, max_tokens: int = 1000):
    """Random three-token sentences, at most ``max_tokens`` tokens total."""
    alphabet = [f"t{i}" for i in range(int(rng.integers(3, 20)))]
    n_sentences = int(rng.integers(1, max_tokens // 3 + 1))
    return [
        tuple(alphabet[k] for k in rng.integers(0, len(alphabet), size=3))
        for _ in range(n_sentences)
    ]


def numeric_gradient(loss, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``loss()`` with respect to ``array``.

    ``loss`` must read ``array`` by reference; entries are perturbed in
    place one at a time and restored afterwards.
    """
    grad = np.zeros_like(array, dtype=np.float64)
    iterator = np.nditer(array, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        saved = array[index]
        array[index] = saved + eps
        plus = loss()
        array[index] = saved - eps
        minus = loss()
        array[index] = saved
        grad[index] = (plus - minus) / (2.0 * eps)
    return grad


def assert_gradients_close(
    analytic: np.ndarray, numeric: np.ndarray, tolerance: float = 1e-4
) -> None:
    """Require elementwise relative error below ``tolerance``."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    relative = np.abs(analytic - numeric) / scale
    worst = float(relative.max()) if relative.size else 0.0
    assert worst < tolerance, f"worst relative gradient error {worst:.3e}"


def block_of(samples):
    """The ``(centers, negatives, contexts, lengths)`` arrays ``ns_block`` takes,
    from ``(center, context ids, negative ids)`` samples that all hold the
    same number of negatives; contexts are left-packed and padded with 0."""
    lengths = np.array([len(context) for _, context, _ in samples])
    contexts = np.zeros((len(samples), lengths.max()), dtype=np.intp)
    for row, (_, context, _) in enumerate(samples):
        contexts[row, : len(context)] = context
    centers = np.array([center for center, _, _ in samples])
    negatives = np.array([negatives for _, _, negatives in samples])
    return centers, negatives, contexts, lengths


def block_loss_and_grads(inputs, w_out, compositions, block):
    """Summed loss and dense gradients of the trainer's own ``ns_block`` over
    ``block``: a step of -1 into zero arrays adds the gradient to them."""
    g_inputs, g_out = np.zeros_like(inputs), np.zeros_like(w_out)
    loss = ns_block(inputs, w_out, compositions, *block, -1.0, into=(g_inputs, g_out))
    return loss, g_inputs, g_out


def check_block_gradients(inputs, w_out, compositions, block) -> None:
    """Every analytic gradient entry of ``ns_block`` is nonzero and matches
    central differences."""
    _, *analytic = block_loss_and_grads(inputs, w_out, compositions, block)

    def loss():
        return block_loss_and_grads(inputs, w_out, compositions, block)[0]

    for grad, array in zip(analytic, (inputs, w_out)):
        assert np.all(grad != 0.0), "a parameter row gets no gradient"
        assert_gradients_close(grad, numeric_gradient(loss, array))


def _reference_row_weights(ids, columns, weights, width):
    distinct, _ = distinct_counts(ids)
    flat = np.searchsorted(distinct, ids) * width + columns
    return distinct, np.bincount(flat, weights, len(distinct) * width).reshape(-1, width)


def reference_ns_block(inputs, w_out, parts, centers, negatives, contexts, lengths, lr) -> float:
    """``ns_block`` with one Python iteration per distinct context token: the
    definition the array form must match bit for bit. Token ``t`` is made of
    the input rows ``parts[t][0]`` with the weights ``parts[t][1]``; it is
    composed by one ``weights @ inputs[rows]`` and updated by one
    ``np.multiply.outer``, token by token in ascending order."""
    present = np.arange(contexts.shape[1]) < lengths[:, None]
    tokens, share = _reference_row_weights(
        contexts[present], np.nonzero(present)[0], np.repeat(1.0 / lengths, lengths), len(centers)
    )
    composed = np.empty((len(tokens), inputs.shape[1]))
    for i, token in enumerate(tokens.tolist()):
        rows, weights = parts[token]
        composed[i] = weights @ inputs[rows]
    hidden = share.T @ composed

    targets = np.column_stack((centers, negatives))
    u = w_out[targets]
    scores = np.matmul(u, hidden[:, :, None])[:, :, 0]
    kept = targets != targets[:, :1]
    kept[:, 0] = True
    signed = scores.copy()
    signed[:, 0] *= -1.0
    loss = float(np.logaddexp(0.0, signed)[kept].sum())
    coef = 1.0 / (1.0 + np.exp(-scores))
    coef[:, 0] -= 1.0
    coef *= kept
    g_tokens = share @ np.matmul(coef[:, None, :], u)[:, 0]

    out_rows, g_out = _reference_row_weights(
        targets.ravel(), np.repeat(np.arange(len(centers)), targets.shape[1]), coef.ravel(),
        len(centers),
    )
    w_out[out_rows] -= lr * (g_out @ hidden)
    g_tokens *= lr
    for token, g in zip(tokens.tolist(), g_tokens):
        rows, weights = parts[token]
        inputs[rows] -= np.multiply.outer(weights, g)
    return loss


def reference_entry_constants(counts, x_max: float = DEFAULT_X_MAX, alpha: float = DEFAULT_ALPHA):
    """Per-entry ``log X`` and ``f(X)`` in float64, one Python scalar at a
    time: what the trainer's array form must equal once cast to float32."""
    log_x = np.array([math.log(x) for x in counts], dtype=np.float64)
    f = np.array([(x / x_max) ** alpha if x < x_max else 1.0 for x in counts], dtype=np.float64)
    return log_x, f


def glove_loss_and_grads(
    w, wt, entries, x_max: float = DEFAULT_X_MAX, alpha: float = DEFAULT_ALPHA
):
    """Loss plus dense analytic gradients over the ``(i, j, x)`` entries: the
    trainer's own ``log X``, ``f`` and ``entry_block``, plus a scatter-add. ``w`` and
    ``wt`` hold each bias as their last column."""
    i, j, x = (np.asarray(column) for column in zip(*entries))
    losses, rows_w, rows_wt = entry_block(w[i], wt[j], np.log(x), glove_weight(x, x_max, alpha))
    g_w = np.zeros_like(w)
    g_wt = np.zeros_like(wt)
    np.add.at(g_w, i, rows_w)
    np.add.at(g_wt, j, rows_wt)
    return float(losses.sum()), g_w, g_wt


def reference_train_glove(
    cooc, vocab, config, x_max: float = DEFAULT_X_MAX, alpha: float = DEFAULT_ALPHA
) -> EmbeddingMatrix:
    """The GloVe trainer one entry at a time, in shuffled order: the
    sequential definition that ``train_glove`` must match bit for bit.

    Parameters, accumulators, the rate and the per-entry constants are
    float32, as in the trainer; ``log X`` and ``f`` are computed in float64
    and then cast, and the epoch loss adds each float32 term to a float64
    running sum."""
    entries = cooc.items()
    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    size = len(vocab)
    w = init_input_vectors(rng, size, dim).astype(np.float32)
    wt = np.zeros((size, dim), dtype=np.float32)
    b = np.zeros(size, dtype=np.float32)
    bt = np.zeros(size, dtype=np.float32)
    acc_w = np.ones((size, dim), dtype=np.float32)
    acc_wt = np.ones((size, dim), dtype=np.float32)
    acc_b = np.ones(size, dtype=np.float32)
    acc_bt = np.ones(size, dtype=np.float32)
    lr = np.float32(config.initial_learning_rate)

    counts = [x for _, _, x in entries]
    log_x, weights = (c.astype(np.float32) for c in reference_entry_constants(counts, x_max, alpha))

    epoch_losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for index in rng.permutation(len(entries)):
            i, j, _ = entries[index]
            f = weights[index]
            diff = w[i] @ wt[j] + b[i] + bt[j] - log_x[index]
            epoch_loss += float(f * diff * diff)
            coef = 2.0 * f * diff
            g_w = coef * wt[j]
            g_wt = coef * w[i]
            w[i] -= lr * g_w / np.sqrt(acc_w[i])
            wt[j] -= lr * g_wt / np.sqrt(acc_wt[j])
            b[i] -= lr * coef / np.sqrt(acc_b[i])
            bt[j] -= lr * coef / np.sqrt(acc_bt[j])
            acc_w[i] += g_w * g_w
            acc_wt[j] += g_wt * g_wt
            acc_b[i] += coef * coef
            acc_bt[j] += coef * coef
        epoch_losses.append(epoch_loss / len(entries))
    w, wt = w.astype(np.float64), wt.astype(np.float64)
    return EmbeddingMatrix(w + wt, wt, vocab, epoch_losses)


def reference_ns_position_grads(hidden, w_out, center, negatives):
    """Loss, hidden gradient, center-row gradient and negative-row gradients
    of one negative-sampling step, written out term by term."""
    softplus = lambda x: np.logaddexp(0.0, x)
    sigmoid = lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))
    u_pos = w_out[center]
    u_neg = w_out[negatives]
    s_pos = u_pos @ hidden
    s_neg = u_neg @ hidden
    loss = float(softplus(-s_pos) + softplus(s_neg).sum())
    coef_pos = sigmoid(s_pos) - 1.0
    coef_neg = sigmoid(s_neg)
    g_hidden = coef_pos * u_pos + coef_neg @ u_neg
    g_center = coef_pos * hidden
    g_negatives = np.outer(coef_neg, hidden)
    return loss, g_hidden, g_center, g_negatives


_REFERENCE_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\",
}
_REFERENCE_LANGTAG = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")


class ReferenceLineScanner:
    """A cursor over one statement line that reads it one character at a
    time: the definition that ``parse_ntriples``' regular expressions must
    agree with, triple for triple and error reason for error reason."""

    def __init__(self, line: str, line_number: int):
        self.line = line
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> NTriplesError:
        return NTriplesError(message, self.line_number)

    def skip_ws(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def unescape(self, raw: str, what: str) -> str:
        out, i = [], 0
        while i < len(raw):
            c = raw[i]
            if c != "\\":
                out.append(c)
                i += 1
                continue
            tag = raw[i + 1 : i + 2]
            width = {"u": 4, "U": 8}.get(tag, 0)
            hexpart = raw[i + 2 : i + 2 + width]
            i += 2 + width
            if not tag:
                raise self.error(f"dangling escape in {what}")
            if tag in _REFERENCE_ESCAPES:
                out.append(_REFERENCE_ESCAPES[tag])
            elif not width:
                raise self.error(f"unknown escape '\\{tag}' in {what}")
            elif len(hexpart) != width:
                raise self.error(f"truncated \\{tag} escape in {what}")
            else:
                try:
                    char = chr(int(hexpart, 16))
                    char.encode("utf-8")
                except ValueError:
                    raise self.error(f"invalid \\{tag} escape in {what}") from None
                out.append(char)
        return "".join(out)

    def read_iri(self) -> Iri:
        if self.peek() != "<":
            raise self.error("expected '<'")
        end = self.line.find(">", self.pos + 1)
        if end < 0:
            raise self.error("unbalanced '<': missing closing '>'")
        raw = self.line[self.pos + 1 : end]
        self.pos = end + 1
        value = self.unescape(raw, "IRI")
        try:
            return Iri(value)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def read_literal(self) -> Literal:
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
        lexical = self.unescape(self.line[self.pos + 1 : i], "literal")
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
            if not _REFERENCE_LANGTAG.fullmatch(language):
                raise self.error(f"invalid language tag {language!r}")
        elif self.line.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.read_iri().value
        return Literal(lexical, language=language, datatype=datatype)

    def read_object(self):
        c = self.peek()
        if c == "<":
            return self.read_iri()
        if c == '"':
            return self.read_literal()
        if self.line.startswith("_:", self.pos):
            raise self.error("blank node not supported")
        raise self.error("expected IRI or literal object")


def reference_parse_line(line: str, line_number: int) -> Triple | None:
    """One line read by ``ReferenceLineScanner``; None for a blank or comment line."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    scanner = ReferenceLineScanner(line.rstrip("\n\r"), line_number)
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


def reference_parse(lines) -> tuple[list[Triple], list[tuple[int, str]]]:
    """The triples of ``lines`` and the ``(line_number, reason)`` of every
    line the reference refuses, as a lenient parse reports them."""
    triples, errors = [], []
    for line_number, line in enumerate(lines, start=1):
        try:
            triple = reference_parse_line(line, line_number)
        except NTriplesError as exc:
            errors.append((line_number, exc.reason))
            continue
        if triple is not None:
            triples.append(triple)
    return triples, errors
