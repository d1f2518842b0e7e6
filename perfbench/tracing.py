"""Spans around the calls ``kgtyper.pipeline`` makes into each layer.

``install`` replaces, in the calling process only, the names that
``kgtyper.pipeline`` imports (plus the ``CnnModel`` methods that the
classifier's training loop and the predict stage call) with wrappers that
record one span per call. Spans stay in memory as plain dicts -- name,
parent index, start, end, counts -- and the worker writes them out when its
pipeline ends. ``layer_metrics`` derives the per-layer metrics from them.

Counts are taken after a span closes so that counting never adds to the
span's time. The parser is drained inside its span, so parse time is the
time spent in the parser's iterator rather than interleaved with graph
building.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from contextlib import contextmanager

from kgtyper import pipeline
from kgtyper.cnn import CnnModel
from kgtyper.graph import KnowledgeGraph

ROOT_SPAN = "pipeline.run_pipeline"
FORWARD_SPAN = "cnn.forward"
FORWARD_REPEATS = 20


class TraceError(RuntimeError):
    """Spans that do not nest into one tree under the pipeline span."""


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.first_step = None  # (model, inputs) of the first training step

    @contextmanager
    def span(self, name: str):
        """Record a span; yields its counts dict, which stays writable after close."""
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attribute: str, name: str, counts=None) -> None:
        """Replace ``owner.attribute`` by a spanned call of the original.

        ``counts(result, *args, **kwargs)`` returns the span's counts.
        """
        raw = inspect.getattr_static(owner, attribute)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if counts is not None:
                record.update(counts(result, *args, **kwargs))
            return result

        setattr(owner, attribute, classmethod(traced) if is_classmethod else traced)

    def probe_forward(self) -> None:
        """Time ``CnnModel.forward`` of the trained model on the first training
        batch, outside the pipeline span."""
        if self.first_step is None:
            return
        model, inputs = self.first_step
        for _ in range(FORWARD_REPEATS):
            with self.span(FORWARD_SPAN):
                model.forward(inputs)


def rss_mb() -> float:
    """Current resident set size of this process (Linux ``/proc``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _positions(corpus, vocab, config) -> int:
    """Training positions of a negative-sampling trainer over all epochs."""
    return config.epochs * sum(token in vocab for sentence in corpus for token in sentence)


def _fasttext_counts(model, corpus, vocab, config, *_rest) -> dict:
    table = model.ngrams
    used = set()
    for token_id in range(len(vocab)):
        used.update(table.bucket_indices(vocab.token_of(token_id)).tolist())
    return {
        "positions": _positions(corpus, vocab, config),
        "bucket_rows": table.bucket_count,
        "buckets_used": len(used),
        "rss_mb": rss_mb(),
    }


def install(tracer: Tracer) -> None:
    """Trace every layer call of ``kgtyper.run_pipeline`` in this process."""
    parse = pipeline.parse_ntriples_file
    pipeline.parse_ntriples_file = lambda *args, **kwargs: list(parse(*args, **kwargs))

    def first_step(_result, model, inputs, _targets):
        if tracer.first_step is None:
            tracer.first_step = (model, inputs)
        return {}

    wrap = tracer.wrap
    wrap(pipeline, "parse_ntriples_file", "ntriples.parse",
         lambda triples, _path, strict=True, stats=None: {
             "triples": len(triples), "skipped": stats.skipped if stats is not None else 0})
    wrap(KnowledgeGraph, "from_triples", "graph.from_triples", lambda *_a: {"rss_mb": rss_mb()})
    wrap(pipeline, "build_hierarchy", "graph.build_hierarchy")
    wrap(pipeline, "triples_to_corpus", "corpus.triples_to_corpus",
         lambda build, *_a, **_k: {"sentences": len(build)})
    wrap(pipeline, "write_corpus", "corpus.write_corpus")
    wrap(pipeline, "build_vocabulary", "corpus.build_vocabulary",
         lambda vocab, *_a, **_k: {"vocab": len(vocab)})
    wrap(pipeline, "train_cbow", "cbow.train",
         lambda _m, corpus, vocab, config: {"positions": _positions(corpus, vocab, config)})
    wrap(pipeline, "train_fasttext", "fasttext.train", _fasttext_counts)
    wrap(pipeline, "build_cooccurrence", "glove.cooccurrence",
         lambda cooc, *_a: {"entries": len(cooc)})
    wrap(pipeline, "train_glove", "glove.train",
         lambda _m, cooc, _v, config, *_a: {"entry_updates": len(cooc) * config.epochs})
    wrap(pipeline, "save_embeddings", "io.save_embeddings",
         lambda _r, _model, path: {"bytes": os.path.getsize(path)})
    wrap(pipeline, "load_embeddings", "io.load_embeddings")
    for name in ("build_dataset", "split", "write_labels", "read_labels",
                 "align_predictions", "accuracy", "hits_at_k", "write_rankings"):
        wrap(pipeline, name, f"evaluation.{name}")
    wrap(pipeline, "train_cnn", "cnn.train", lambda *_a: {"rss_mb": rss_mb()})
    wrap(CnnModel, "loss_and_grads", "cnn.step", first_step)
    wrap(CnnModel, "predict", "cnn.predict")
    wrap(pipeline, "build_class_vectors", "similarity.class_vectors")
    wrap(pipeline, "similarity_rank", "similarity.rank")
    wrap(pipeline, "run_pipeline", ROOT_SPAN)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline.

    Raises ``TraceError`` unless the spans under the pipeline span nest,
    that is, no span's children cover more than its own duration. Then
    the self times of the pipeline span's tree add up to its duration.
    """
    roots = [i for i, span in enumerate(spans) if span["name"] == ROOT_SPAN]
    if len(roots) != 1 or spans[roots[0]]["parent"] is not None:
        raise TraceError(f"expected one top-level {ROOT_SPAN} span, found {len(roots)}")
    root = roots[0]
    own = self_times(spans)
    if min(own) < -1e-9:
        raise TraceError("child spans overlap each other or outlast their parent")
    duration = spans[root]["end"] - spans[root]["start"]

    def durations(name: str) -> list[float]:
        return [span["end"] - span["start"] for span in spans if span["name"] == name]

    def seconds(*names: str) -> float:
        return sum(sum(durations(name)) for name in names)

    def median_ms(name: str) -> float:
        values = durations(name)
        return 1000.0 * statistics.median(values) if values else 0.0

    def count(name: str, key: str) -> float:
        return sum(span["counts"].get(key, 0) for span in spans if span["name"] == name)

    def rate(work: float, busy: float) -> float:
        return work / busy if busy > 0 else 0.0

    parse_s = seconds("ntriples.parse")
    triples = count("ntriples.parse", "triples")
    cbow_s = seconds("cbow.train")
    fasttext_s = seconds("fasttext.train")
    glove_s = seconds("glove.train")
    cooc_entries = count("glove.cooccurrence", "entries")
    bucket_rows = count("fasttext.train", "bucket_rows")
    buckets_used = count("fasttext.train", "buckets_used")
    step_ms = median_ms("cnn.step")
    forward_ms = median_ms(FORWARD_SPAN)
    # A trainer's time would read 0 on every workload that bypasses it, so
    # time is reported for the trainer that ran and per trainer as a rate.
    return {
        "ntriples.parse_s": parse_s,
        "ntriples.triples_per_s": rate(triples, parse_s),
        "ntriples.triples": triples,
        "ntriples.skipped": count("ntriples.parse", "skipped"),
        "graph.build_s": seconds("graph.from_triples", "graph.build_hierarchy"),
        "graph.rss_mb": count("graph.from_triples", "rss_mb"),
        "corpus.s": seconds(
            "corpus.triples_to_corpus", "corpus.write_corpus", "corpus.build_vocabulary"
        ),
        "corpus.sentences": count("corpus.triples_to_corpus", "sentences"),
        "corpus.vocab": count("corpus.build_vocabulary", "vocab"),
        "embedding.train_s": cbow_s + fasttext_s + glove_s,
        "cbow.positions": count("cbow.train", "positions"),
        "cbow.positions_per_s": rate(count("cbow.train", "positions"), cbow_s),
        "fasttext.positions_per_s": rate(count("fasttext.train", "positions"), fasttext_s),
        "fasttext.bucket_rows": bucket_rows,
        "fasttext.buckets_used": buckets_used,
        "fasttext.bucket_use_ratio": rate(buckets_used, bucket_rows),
        "fasttext.rss_mb": count("fasttext.train", "rss_mb"),
        "glove.cooc_entries": cooc_entries,
        "glove.cooc_entries_per_s": rate(cooc_entries, seconds("glove.cooccurrence")),
        "glove.entry_updates_per_s": rate(count("glove.train", "entry_updates"), glove_s),
        "io.save_s": seconds("io.save_embeddings"),
        "io.load_s": seconds("io.load_embeddings"),
        "io.bytes": count("io.save_embeddings", "bytes"),
        "evaluation.dataset_s": seconds(
            "evaluation.build_dataset", "evaluation.split", "evaluation.write_labels"
        ),
        "evaluation.score_s": seconds(
            "evaluation.align_predictions", "evaluation.accuracy", "evaluation.hits_at_k"
        ),
        "cnn.train_s": seconds("cnn.train"),
        "cnn.steps": len(durations("cnn.step")),
        "cnn.step_ms": step_ms,
        "cnn.forward_ms": forward_ms,
        "cnn.backward_ms": step_ms - forward_ms,
        "cnn.predict_ms": median_ms("cnn.predict"),
        "cnn.rss_mb": count("cnn.train", "rss_mb"),
        "similarity.class_vectors_s": seconds("similarity.class_vectors"),
        "similarity.rank_ms": median_ms("similarity.rank"),
        "pipeline.traced_s": duration,
        "pipeline.self_s": own[root],
    }
