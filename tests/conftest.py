"""Shared fixtures: tiny graphs, corpora, and embedding stand-ins."""

from __future__ import annotations

import math
import os
from collections import Counter

import numpy as np
import pytest

from kgtyper.embeddings import EmbeddingMatrix
from kgtyper.embeddings.base import UnigramSampler, init_input_vectors
from kgtyper.embeddings.cbow import loss_and_grads
from kgtyper.embeddings.glove import DEFAULT_ALPHA, DEFAULT_X_MAX, glove_weight
from kgtyper.graph import KnowledgeGraph, build_hierarchy
from kgtyper.ntriples import parse_ntriples

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


def check_composition_gradients(composition, w_out: np.ndarray, samples) -> None:
    """Check the negative-sampling ``loss_and_grads`` of ``composition``: every
    analytic gradient entry is nonzero and matches central differences."""
    _, g_params, g_out = loss_and_grads(composition, w_out, samples)

    def loss():
        return loss_and_grads(composition, w_out, samples)[0]

    for analytic, array in zip((*g_params, g_out), (*composition.params, w_out)):
        assert np.all(analytic != 0.0), "a parameter row gets no gradient"
        assert_gradients_close(analytic, numeric_gradient(loss, array))


def reference_train_glove(
    cooc, vocab, config, x_max: float = DEFAULT_X_MAX, alpha: float = DEFAULT_ALPHA
) -> EmbeddingMatrix:
    """The GloVe trainer one entry at a time, in shuffled order: the
    sequential definition that ``train_glove`` must match bit for bit."""
    entries = cooc.items()
    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    size = len(vocab)
    w = init_input_vectors(rng, size, dim)
    wt = np.zeros((size, dim))
    b = np.zeros(size)
    bt = np.zeros(size)
    acc_w = np.ones((size, dim))
    acc_wt = np.ones((size, dim))
    acc_b = np.ones(size)
    acc_bt = np.ones(size)
    lr = config.initial_learning_rate

    log_x = [math.log(x) for _, _, x in entries]
    weights = [glove_weight(x, x_max, alpha) for _, _, x in entries]

    epoch_losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for index in rng.permutation(len(entries)):
            i, j, _ = entries[index]
            f = weights[index]
            diff = w[i] @ wt[j] + b[i] + bt[j] - log_x[index]
            epoch_loss += f * diff * diff
            coef = 2.0 * f * diff
            g_w = coef * wt[j]
            g_wt = coef * w[i]
            w[i] -= lr * g_w / np.sqrt(acc_w[i])
            wt[j] -= lr * g_wt / np.sqrt(acc_wt[j])
            b[i] -= lr * coef / math.sqrt(acc_b[i])
            bt[j] -= lr * coef / math.sqrt(acc_bt[j])
            acc_w[i] += g_w * g_w
            acc_wt[j] += g_wt * g_wt
            acc_b[i] += coef * coef
            acc_bt[j] += coef * coef
        epoch_losses.append(epoch_loss / len(entries))
    return EmbeddingMatrix(w + wt, wt, vocab, epoch_losses)


class ReferenceWordComposition:
    """CBOW's input composition as numpy reductions: the mean of the context
    rows, and ``np.subtract.at`` for the update."""

    def __init__(self, w_in: np.ndarray):
        self.params = (w_in,)

    def hidden(self, context: np.ndarray) -> np.ndarray:
        return self.params[0][context].mean(axis=0)

    def descend(self, into, context, g_hidden, lr) -> None:
        np.subtract.at(into[0], context, lr * g_hidden / len(context))


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


def reference_train_negative_sampling(encoded, vocab, config, rng, composition):
    """The negative-sampling trainer one position at a time: the sequential
    definition that ``train_negative_sampling`` must match bit for bit.

    Returns ``(w_out, epoch_losses, seen)``, where ``seen`` counts the
    positions that met each case the schedule has to get right.
    """
    w_out = np.zeros((len(vocab), config.dimension))
    sampler = UnigramSampler(vocab)
    total_steps = sum(len(ids) for ids in encoded) * config.epochs
    window, negatives_per_step = config.window, config.negative_samples
    seen = Counter()

    step = 0
    epoch_losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        trained = 0
        for ids in encoded:
            n = len(ids)
            for i in range(n):
                lr = config.initial_learning_rate * max(1e-4, 1.0 - step / max(total_steps, 1))
                step += 1
                context = np.concatenate((ids[max(0, i - window) : i], ids[i + 1 : i + 1 + window]))
                if not len(context):
                    seen["no context"] += 1
                    continue
                center = int(ids[i])
                negatives = sampler.draw(rng, negatives_per_step)
                seen["negative equal to center"] += bool(np.any(negatives == center))
                negatives = negatives[negatives != center]
                seen["repeated negative"] += len(set(negatives.tolist())) < len(negatives)
                seen["repeated context token"] += len(set(context.tolist())) < len(context)
                loss, g_hidden, g_center, g_negatives = reference_ns_position_grads(
                    composition.hidden(context), w_out, center, negatives
                )
                w_out[center] -= lr * g_center
                np.subtract.at(w_out, negatives, lr * g_negatives)
                composition.descend(composition.params, context, g_hidden, lr)
                epoch_loss += loss
                trained += 1
        epoch_losses.append(epoch_loss / max(trained, 1))
    return w_out, epoch_losses, seen
