"""Acceptance gate: one check per shipped criterion.

Every test records a PASS/FAIL line carrying the measured values next to
the frozen thresholds; the lines are echoed in an "acceptance criteria"
terminal-summary section at the end of the pytest run. The trend
comparison between the two typing routes is reported, never asserted.
"""

from __future__ import annotations

import io
import time

import numpy as np
import pytest
from conftest import (
    COMPANY,
    LAWFIRM,
    LAWFIRM_NT,
    ORGANISATION,
    acceptance,
    acceptance_report,
    block_loss_and_grads,
    block_of,
    cooccurrence_oracle,
    numeric_gradient,
    random_corpus,
)

from kgtyper import (
    CnnConfig,
    Iri,
    KnowledgeGraph,
    Literal,
    NGramConfig,
    NTriplesError,
    PipelineConfig,
    Prediction,
    TrainingConfig,
    Triple,
    accuracy,
    build_cooccurrence,
    build_hierarchy,
    build_vocabulary,
    fine_grained_candidates,
    generate_synthetic_kg,
    hits_at_k,
    parse_ntriples,
    run_pipeline,
    train_fasttext,
    write_ntriples,
)
from kgtyper.cnn import CnnModel
from kgtyper.embeddings.cbow import word_compositions
from kgtyper.embeddings.glove import glove_loss_and_grads

# Free knobs of the synthetic experiment, frozen after validating the
# thresholds with a nearest-centroid oracle (Hits@1 ~ 0.95, Hits@3 = 1.0
# on these vectors). The remaining settings -- dimension 100, window 2,
# 30 embedding epochs, batch 32, 300 classifier epochs -- are part of the
# criterion itself and are not tunable.
CBOW_LEARNING_RATE = 0.15
CBOW_NEGATIVES = 5
CNN_LEARNING_RATE = 0.2
# Seeds of the sweep; the same seed drives the synthetic graph and the run.
SWEEP_SEEDS = (1, 2, 3, 4, 5)


def _run_experiment(root, seed: int):
    """The timed synthetic end-to-end experiment at one seed."""
    synth = generate_synthetic_kg(
        root / f"kg_{seed}",
        num_classes=10,
        entities_per_class=50,
        predicates_per_class=3,
        noise_fraction=0.1,
        seed=seed,
    )
    config = PipelineConfig(
        input_nt=synth.kg_path,
        out_dir=root / f"run_{seed}",
        embedding=TrainingConfig(
            dimension=100,
            window=2,
            epochs=30,
            initial_learning_rate=CBOW_LEARNING_RATE,
            negative_samples=CBOW_NEGATIVES,
        ),
        cnn=CnnConfig(batch_size=32, epochs=300, learning_rate=CNN_LEARNING_RATE),
        num_classes=10,
        entities_per_class=50,
        train_fraction=0.8,
        seed=seed,
    )
    start = time.perf_counter()
    result = run_pipeline(config)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(result, seconds) of the experiment per seed, run once per session."""
    root = tmp_path_factory.mktemp("acceptance")
    return {seed: _run_experiment(root, seed) for seed in SWEEP_SEEDS}


@pytest.fixture(scope="module")
def experiment(sweep):
    """Seed 1 of the sweep, which the per-seed criteria judge."""
    return sweep[1]


def test_synthetic_end_to_end_recovery(experiment):
    result, elapsed = experiment
    cnn_accuracy = result.metrics["cnn"]["accuracy"]
    hits3 = result.metrics["similarity"]["hits@3"]
    hits1 = result.metrics["similarity"]["hits@1"]
    acceptance(
        cnn_accuracy >= 0.90 and hits3 >= 0.90 and hits1 >= 0.70 and elapsed < 300.0,
        "synthetic end-to-end recovery (10 classes x 50 entities, noise 0.1): "
        f"cnn accuracy {cnn_accuracy:.3f} (>= 0.90), similarity hits@3 {hits3:.3f} "
        f"(>= 0.90), hits@1 {hits1:.3f} (>= 0.70), runtime {elapsed:.0f}s (< 300s)",
    )


def test_seed_sweep(sweep):
    metrics = [result.metrics for result, _ in sweep.values()]
    values = {
        "cnn accuracy": [m["cnn"]["accuracy"] for m in metrics],
        "similarity hits@1": [m["similarity"]["hits@1"] for m in metrics],
        "similarity hits@3": [m["similarity"]["hits@3"] for m in metrics],
    }
    seconds = [elapsed for _, elapsed in sweep.values()]
    acceptance_report(
        f"seed sweep, word2vec, seeds {SWEEP_SEEDS[0]}-{SWEEP_SEEDS[-1]} (mean / min): "
        + ", ".join(f"{name} {np.mean(v):.3f} / {min(v):.2f}" for name, v in values.items())
        + f"; cnn accuracy per seed {' '.join(f'{v:.2f}' for v in values['cnn accuracy'])}; "
        f"{sum(seconds):.0f}s in all, at most {max(seconds):.1f}s per seed"
    )
    mean = float(np.mean(values["cnn accuracy"]))
    acceptance(
        mean >= 0.90,
        f"seed sweep: mean cnn accuracy over seeds {SWEEP_SEEDS[0]}-{SWEEP_SEEDS[-1]} "
        f"{mean:.3f} (>= 0.90)",
    )


def _max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    relative = np.abs(analytic - numeric) / scale
    return float(relative.max()) if relative.size else 0.0


def _require_nonzero(name: str, analytic: list[np.ndarray]) -> int:
    """Record that every analytic gradient entry of the instance is nonzero,
    so the check cannot pass on gradients that are zero by construction;
    returns the instance size."""
    size = sum(g.size for g in analytic)
    smallest = min(float(np.abs(g).min()) for g in analytic)
    acceptance(
        smallest > 0.0,
        f"{name} gradient-check instance is not vacuous: all {size} analytic gradient "
        f"entries nonzero, smallest |grad| {smallest:.1e} (> 0)",
    )
    return size


def _check_ns_gradients(name: str, inputs, w_out, compositions, samples) -> tuple[float, int]:
    """The trainer's own block step under one input composition."""
    block = block_of(samples)
    _, *grads = block_loss_and_grads(inputs, w_out, compositions, block)
    size = _require_nonzero(name, grads)
    loss = lambda: block_loss_and_grads(inputs, w_out, compositions, block)[0]
    error = max(
        _max_relative_error(analytic, numeric_gradient(loss, array))
        for analytic, array in zip(grads, (inputs, w_out))
    )
    return error, size


def _check_cbow_gradients() -> tuple[float, int]:
    rng = np.random.default_rng(3)
    w_in = rng.normal(0.0, 0.1, (5, 5))
    w_out = rng.normal(0.0, 0.1, (5, 5))
    samples = [
        (0, np.array([1, 2]), np.array([3, 4])),
        (2, np.array([0, 4]), np.array([1, 1])),  # repeated negative
        (4, np.array([3]), np.array([0, 2])),
    ]
    return _check_ns_gradients("cbow", w_in, w_out, word_compositions(5), samples)


def _check_fasttext_gradients() -> tuple[float, int]:
    rng = np.random.default_rng(5)
    # Word rows 0-1, then bucket rows 2-6. Token 0 has the n-gram buckets
    # 0, 2, 2, 3 (bucket 2 twice), token 1 the buckets 1, 2, 4.
    inputs = rng.normal(0.0, 0.1, (7, 2))
    w_out = rng.normal(0.0, 0.1, (2, 2))
    compositions = [
        (np.array([0, 2, 4, 5]), np.array([1.0, 1.0, 2.0, 1.0]) / 5),
        (np.array([1, 3, 4, 6]), np.full(4, 1.0 / 4)),
    ]
    samples = [
        (1, np.array([0]), np.array([0, 1])),  # a negative equal to its center
        (0, np.array([1]), np.array([1, 1])),
    ]
    return _check_ns_gradients("fasttext", inputs, w_out, compositions, samples)


def _check_glove_gradients() -> tuple[float, int]:
    # At scale 1.0 the smallest gradient entry (1.8e-04) stays far above the
    # rounding of central differences on this loss (about 1e-9 / eps).
    rng = np.random.default_rng(7)
    w = rng.normal(0.0, 1.0, (3, 4))
    wt = rng.normal(0.0, 1.0, (3, 4))
    b = rng.normal(0.0, 1.0, 3)
    bt = rng.normal(0.0, 1.0, 3)
    # 120 sits above the default x_max, exercising the saturated weight.
    entries = [(0, 1, 2.0), (1, 2, 0.5), (0, 0, 1.5), (2, 1, 120.0)]
    # glove_loss_and_grads is the trainer's own entry_block plus a scatter-add.
    _, *grads = glove_loss_and_grads(w, wt, b, bt, entries)
    size = _require_nonzero("glove", grads)
    loss = lambda: glove_loss_and_grads(w, wt, b, bt, entries)[0]
    error = max(
        _max_relative_error(analytic, numeric_gradient(loss, array))
        for analytic, array in zip(grads, (w, wt, b, bt))
    )
    return error, size


def _check_cnn_gradients() -> tuple[float, int]:
    config = CnnConfig(filters_per_width=2, hidden_units=2)
    # On seed 2 every example has a live filter: none leaves the hidden layer
    # at its zero bias, on the ReLU kink, where central differences disagree.
    rng = np.random.default_rng(2)
    model = CnnModel.initialize(config, ["a", "b"], input_dim=8, rng=rng)
    inputs = rng.normal(0.0, 0.1, (4, 8))
    model.fit_conditioning(inputs)
    targets = np.zeros((4, 2))
    targets[[0, 1, 2, 3], [0, 1, 1, 0]] = 1.0
    _, grads = model.loss_and_grads(inputs, targets)
    size = _require_nonzero("cnn", [grads[name] for name in model.params])
    loss = lambda: model.loss_and_grads(inputs, targets)[0]
    error = 0.0
    for name, array in model.params.items():
        error = max(error, _max_relative_error(grads[name], numeric_gradient(loss, array)))
    return error, size


def test_gradient_checks_all_models():
    errors, sizes, times = {}, {}, {}
    for name, check in (
        ("cbow", _check_cbow_gradients),
        ("fasttext", _check_fasttext_gradients),
        ("glove", _check_glove_gradients),
        ("cnn", _check_cnn_gradients),
    ):
        start = time.perf_counter()
        errors[name], sizes[name] = check()
        times[name] = time.perf_counter() - start
    worst = max(errors.values())
    largest = max(sizes.values())
    slowest = max(times.values())
    details = ", ".join(f"{name} {errors[name]:.1e}" for name in errors)
    acceptance(
        worst < 1e-4 and largest <= 50 and slowest < 30.0,
        f"gradient checks vs central differences: {details} "
        f"(each < 1e-4); instance sizes {sorted(sizes.values())} params (<= 50); "
        f"slowest {slowest:.2f}s (< 30s)",
    )


def test_cooccurrence_matches_bruteforce_oracle():
    rng = np.random.default_rng(2026)
    corpora = 0
    entries = 0
    all_equal = True
    for k in range(100):
        corpus = random_corpus(rng, max_tokens=1000)
        vocab = build_vocabulary(corpus)
        window = 1 + k % 4
        matrix = build_cooccurrence(corpus, vocab, window)
        oracle = cooccurrence_oracle(corpus, vocab, window)
        all_equal = all_equal and matrix.items() == oracle
        corpora += 1
        entries += len(oracle)
    acceptance(
        all_equal and corpora == 100,
        f"co-occurrence builder == brute-force oracle exactly on {corpora} "
        f"randomized corpora ({entries} weighted entries, windows 1-4)",
    )


def test_trend_cnn_vs_similarity(experiment):
    result, _ = experiment
    cnn_accuracy = result.metrics["cnn"]["accuracy"]
    hits1 = result.metrics["similarity"]["hits@1"]
    observed = "consistent" if cnn_accuracy >= hits1 else "inverted"
    acceptance_report(
        f"trend (reported, not asserted): cnn accuracy {cnn_accuracy:.3f} vs "
        f"similarity hits@1 {hits1:.3f}; expected cnn >= similarity, "
        f"observed ordering {observed}"
    )


def test_metric_fixtures():
    gold = {f"e{i}": "gold" for i in range(10)}

    def prediction(entity: str, gold_rank: int | None) -> Prediction:
        order = [f"d{j}" for j in range(4)]
        if gold_rank is not None:
            order.insert(gold_rank - 1, "gold")
        return Prediction.from_scores(
            entity, {c: 1.0 - 0.1 * i for i, c in enumerate(order)}
        )

    # Gold ranked first 7 times, second once, third once, absent once.
    ranks = [1, 1, 1, 1, 1, 1, 1, 2, 3, None]
    predictions = [prediction(f"e{i}", rank) for i, rank in enumerate(ranks)]

    values = {
        "accuracy": accuracy(predictions, gold),
        "hits@1": hits_at_k(predictions, gold, 1),
        "hits@2": hits_at_k(predictions, gold, 2),
        "hits@3": hits_at_k(predictions, gold, 3),
        "hits@4": hits_at_k(predictions, gold, 4),
    }
    expected = {"accuracy": 0.7, "hits@1": 0.7, "hits@2": 0.8, "hits@3": 0.9, "hits@4": 0.9}
    monotone = values["hits@1"] <= values["hits@2"] <= values["hits@3"] <= values["hits@4"]
    acceptance(
        values == expected and values["hits@1"] == values["accuracy"] and monotone,
        "metric fixtures on 10 hand-ranked predictions: "
        + ", ".join(f"{k} {v:.1f}" for k, v in values.items())
        + " all exact; hits@1 == accuracy; hits monotone in k",
    )


XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

PARSER_POSITIVE = [
    (
        "<http://a> <http://b> <http://c> .",
        [Triple(Iri("http://a"), Iri("http://b"), Iri("http://c"))],
    ),
    (
        '<http://s> <http://p> "hi there" .',
        [Triple(Iri("http://s"), Iri("http://p"), Literal("hi there"))],
    ),
    (
        '<http://s> <http://p> "chat"@en .',
        [Triple(Iri("http://s"), Iri("http://p"), Literal("chat", language="en"))],
    ),
    (
        f'<http://s> <http://p> "42"^^<{XSD_INT}> .',
        [Triple(Iri("http://s"), Iri("http://p"), Literal("42", datatype=XSD_INT))],
    ),
    (
        '<http://s> <http://p> "a\\"b\\nc" .',
        [Triple(Iri("http://s"), Iri("http://p"), Literal('a"b\nc'))],
    ),
    ("# a comment line", []),
    ("", []),
    ("   \t ", []),
    (
        "  <http://a>\t<http://b>   <http://c>  . ",
        [Triple(Iri("http://a"), Iri("http://b"), Iri("http://c"))],
    ),
]

PARSER_NEGATIVE = [
    ("<http://a> <http://b> <http://c>", 1),  # missing final dot
    ("<http://a> <http://b> .", 1),  # missing object
    ("<http://a <http://b> <http://c> .", 1),  # unterminated IRI
    ('<http://a> <http://b> "open .', 1),  # unterminated literal
    ('"literal" <http://b> <http://c> .', 1),  # literal subject
    ("<http://a> <http://b> <http://c> . trailing", 1),  # garbage after dot
    ("<http://a> <http://b> <http://c> .\nnonsense here\n", 2),  # line position
    ("<http://a> <http://b> <http://c> .\n\n<http://a> <bad iri> <http://c> .", 3),
]


def test_parser_conformance():
    positives_ok = 0
    for text, expected in PARSER_POSITIVE:
        if list(parse_ntriples(text.splitlines() or [text])) == expected:
            positives_ok += 1

    negatives_ok = 0
    for text, line_number in PARSER_NEGATIVE:
        with pytest.raises(NTriplesError) as excinfo:
            list(parse_ntriples(text.splitlines()))
        if (
            excinfo.value.line_number == line_number
            and f"line {line_number}:" in str(excinfo.value)
        ):
            negatives_ok += 1

    # Round-trip: parse -> serialize -> parse preserves the triples, and
    # a second serialization is byte-identical.
    source = LAWFIRM_NT + "\n".join(text for text, _ in PARSER_POSITIVE) + "\n"
    triples = list(parse_ntriples(source.splitlines()))
    first = io.StringIO()
    write_ntriples(triples, first)
    reparsed = list(parse_ntriples(first.getvalue().splitlines()))
    second = io.StringIO()
    write_ntriples(reparsed, second)
    round_trip = reparsed == triples and second.getvalue() == first.getvalue()

    acceptance(
        positives_ok == len(PARSER_POSITIVE)
        and negatives_ok == len(PARSER_NEGATIVE)
        and round_trip,
        f"parser conformance: {positives_ok}/{len(PARSER_POSITIVE)} positive "
        f"fixtures, {negatives_ok}/{len(PARSER_NEGATIVE)} negative fixtures "
        "with positioned errors, serialize/parse round-trip stable",
    )


def test_hierarchy_worked_example():
    kg = KnowledgeGraph.from_triples(parse_ntriples(LAWFIRM_NT.splitlines()))
    hierarchy = build_hierarchy(kg)  # Agent is among the default roots
    ancestor = hierarchy.coarse_ancestor(LAWFIRM)
    candidates = fine_grained_candidates(hierarchy, LAWFIRM)
    with_ancestor = fine_grained_candidates(hierarchy, LAWFIRM, include_ancestor=True)
    acceptance(
        ancestor == ORGANISATION
        and hierarchy.coarse_ancestor(COMPANY) == ORGANISATION
        and candidates == {COMPANY, LAWFIRM}
        and with_ancestor == {ORGANISATION, COMPANY, LAWFIRM},
        "hierarchy worked example: coarse ancestor of LawFirm is Organisation "
        "(the last class before the Agent root); fine-grained candidates are "
        "{Company, LawFirm}",
    )


def test_pipeline_determinism(tmp_path):
    synth = generate_synthetic_kg(
        tmp_path / "kg", num_classes=3, entities_per_class=8,
        predicates_per_class=2, noise_fraction=0.0, seed=3,
    )

    def run(out_dir):
        config = PipelineConfig(
            input_nt=synth.kg_path,
            out_dir=out_dir,
            embedding=TrainingConfig(dimension=12, window=2, epochs=8,
                                     initial_learning_rate=0.1),
            cnn=CnnConfig(filters_per_width=8, hidden_units=16, batch_size=8,
                          epochs=60, learning_rate=0.3),
            num_classes=3,
            entities_per_class=8,
            train_fraction=0.75,
            seed=5,
        )
        run_pipeline(config)
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run(tmp_path / "run_a")
    second = run(tmp_path / "run_b")
    identical = first == second
    key_files = {"vectors.txt", "model.bin", "metrics.json"} <= set(first)
    acceptance(
        identical and key_files,
        f"determinism: two identical seeded pipeline runs produced "
        f"byte-identical artifacts ({len(first)} files, including vectors.txt, "
        "model.bin, and metrics.json)",
    )


def _reference_fnv1a_32(text: str) -> int:
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value


def _reference_ngrams(token: str, n_min: int, n_max: int) -> list[str]:
    wrapped = f"<{token}>"
    return [
        wrapped[i : i + n]
        for n in range(n_min, n_max + 1)
        for i in range(len(wrapped) - n + 1)
    ]


def test_fasttext_oov_composition():
    corpus = [
        ("republic", "of", "austria"),
        ("republic", "of", "ireland"),
        ("kingdom", "of", "spain"),
    ] * 3
    vocab = build_vocabulary(corpus)
    ngram_config = NGramConfig(n_min=3, n_max=5, bucket_count=64)
    model = train_fasttext(
        corpus, vocab,
        TrainingConfig(dimension=8, window=2, epochs=2, seed=1),
        ngram_config,
    )

    token = "kingdomland"
    assert token not in vocab
    bucket_ids = [
        _reference_fnv1a_32(gram) % ngram_config.bucket_count
        for gram in _reference_ngrams(token, ngram_config.n_min, ngram_config.n_max)
    ]
    expected = model.ngrams.vectors(bucket_ids).mean(axis=0)
    actual = model.vector_of(token)
    difference = float(np.max(np.abs(actual - expected)))
    acceptance(
        difference <= 1e-12 and len(bucket_ids) >= 2,
        f"fasttext out-of-vocabulary vector equals the mean of its "
        f"{len(bucket_ids)} n-gram bucket vectors (independent FNV-1a "
        f"recomputation, max |difference| {difference:.1e})",
    )
