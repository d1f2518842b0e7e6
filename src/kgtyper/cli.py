"""Command-line entry point.

Subcommands mirror the pipeline stages. Each handler is a thin call into
the stage functions of ``kgtyper.pipeline``, the same functions that the
``pipeline`` subcommand runs in sequence, so a chain of stage subcommands
with the same settings writes byte-identical artifacts. One difference:
where the pipeline gives an entity it cannot rank an empty ranking (counted
wrong), ``predict`` exits 2 with a message that names the entity.

Every flag with a long name can be overridden by an environment variable
``KGTYPER_<NAME>`` (dashes become underscores, e.g. ``KGTYPER_DIM=200``).
Precedence: explicit flag, then environment, then built-in default, settled
once after parsing, so a flag also wins over an environment value that could
not be read; such a value is a usage error that names its variable, for the
subcommands that have the option. A repeatable option (``--root``,
``--entity``) takes from the environment a list separated by spaces, tabs or
line breaks, which its flags replace. ``KGTYPER_EPOCHS`` and ``KGTYPER_LR``
set both ``train-embeddings`` and ``train-classifier``; ``pipeline``'s
classifier reads ``KGTYPER_CNN_EPOCHS`` and ``KGTYPER_CNN_LR``.
``KGTYPER_TRAINER`` sets the trainer of ``train-embeddings`` and ``pipeline``
(``train-embeddings`` also takes ``--model`` as a second spelling of
``--trainer``), and ``KGTYPER_MODEL`` only ``predict``'s model path.

``--negative`` is read only by the word2vec and fasttext trainers,
``--n-min``, ``--n-max`` and ``--buckets`` only by fasttext, ``--x-max`` and
``--alpha`` only by glove. Given on the command line with another trainer,
they are a usage error rather than a silent no-op. Set through the
environment, a valid value stays a default that other trainers ignore; an
invalid one (``KGTYPER_N_MIN=0``) is refused whichever trainer runs, as
every setting of ``TrainingConfig`` is checked when the config is built.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from pathlib import Path

from .cnn import CnnConfig, CnnModel, train_cnn
from .corpus import read_corpus
from .embeddings import TrainingConfig, load_embeddings
from .errors import DataError, KgTyperError, NumericalError, StageError
from .evaluation import external_overlap, read_label_map, read_labels, read_rankings, write_rankings
from .ntriples import write_ntriples
from .pipeline import (
    DEFAULT_METRICS, TRAINERS, PipelineConfig, check_sample_sizes,
    check_train_fraction, cnn_scores, load_graph, run_pipeline, score, similarity_scores,
    train_embeddings, write_dataset, write_sentences,
)
from .synth import generate_synthetic_kg

ENV_PREFIX = "KGTYPER_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# The items of a repeatable option's environment list: the runs between
# spaces, tabs, CRs and LFs, the whitespace an IRI cannot hold. ``str.split``
# would also cut at U+00A0 and the other whitespace an IRI may hold.
_list_items = re.compile(r"[^ \t\r\n]+").findall

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

# Every option that sets a config field, by parser section and in --help
# order: flag, the config that owns the field (whose default gives the
# option's default and type), the field, help text and, for an option that
# only some embedding trainers read, those trainers.
_OPTIONS = {
    "dataset": (
        ("--num-classes", PipelineConfig, "num_classes", "classes to sample"),
        ("--entities-per-class", PipelineConfig, "entities_per_class", "entities per class"),
        ("--train-fraction", PipelineConfig, "train_fraction", "train share of each class"),
    ),
    "embedding": (
        ("--dim", TrainingConfig, "dimension", "vector dimensionality"),
        ("--window", TrainingConfig, "window", "context window size"),
        ("--epochs", TrainingConfig, "epochs", "training epochs"),
        ("--lr", TrainingConfig, "initial_learning_rate", "initial learning rate"),
        ("--negative", TrainingConfig, "negative_samples", "negative samples per position",
         "word2vec", "fasttext"),
        ("--min-count", TrainingConfig, "min_count", "vocabulary frequency floor"),
        ("--n-min", TrainingConfig, "n_min", "shortest character n-gram", "fasttext"),
        ("--n-max", TrainingConfig, "n_max", "longest character n-gram", "fasttext"),
        ("--buckets", TrainingConfig, "bucket_count", "n-gram hash buckets", "fasttext"),
        ("--x-max", TrainingConfig, "x_max", "co-occurrence weight cap", "glove"),
        ("--alpha", TrainingConfig, "alpha", "co-occurrence weight exponent", "glove"),
    ),
    "classifier": (
        ("--epochs", CnnConfig, "epochs", "training epochs"),
        ("--batch-size", CnnConfig, "batch_size", "mini-batch size"),
        ("--lr", CnnConfig, "learning_rate", "learning rate"),
        ("--hidden", CnnConfig, "hidden_units", "hidden layer width"),
    ),
}

# Options that only some embedding trainers read, by destination: the flag
# and those trainers.
_TRAINER_ONLY = {
    f"{owner.__name__}.{name}": (flag, trainers)
    for flag, owner, name, _, *trainers in _OPTIONS["embedding"] if trainers
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; the contract here is 1.

    An option added by ``_opt`` takes its value from the command line, else
    from its environment variable, else from its default, all settled in one
    pass after parsing; ``given`` on the result names the destinations that
    the command line set.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.settings = []  # (action, environment variable, default) per ``_opt`` option

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # argparse calls this for the chosen subcommand's parser too, and
        # copies the subcommand's namespace into the top level's.
        namespace, extras = super().parse_known_args(args, namespace)
        given = {action.dest for action, _, _ in self.settings if hasattr(namespace, action.dest)}
        for action, env_name, default in self.settings:
            if action.dest in given:
                continue
            raw = os.environ.get(env_name)
            if raw is not None:  # of two options on one destination, the later wins
                setattr(namespace, action.dest, _environment_value(action, env_name, raw))
            elif not hasattr(namespace, action.dest):
                setattr(namespace, action.dest, default)
        namespace.given = getattr(namespace, "given", set()) | given
        return namespace, extras


def _environment_value(action, env_name: str, raw: str):
    """``raw`` read as the argument of ``action``'s flag: a boolean for a
    switch, a list for a repeatable option (see ``_list_items``)."""
    try:
        if action.nargs == 0:  # store_true or store_false
            lowered = raw.strip().lower()
            if lowered not in _TRUE_WORDS | _FALSE_WORDS:
                raise ValueError("expected a boolean")
            # A true value turns the flag on, which clears a store_false dest.
            return (lowered in _TRUE_WORDS) == action.const
        if isinstance(action, argparse._AppendAction):
            return _list_items(raw)
        value = (action.type or str)(raw)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"not one of {', '.join(action.choices)}")
        return value
    except ValueError as exc:
        raise ValueError(f"{env_name}: cannot use {raw!r}: {exc}") from None


def _reject_other_trainer_flags(args, trainer: str) -> None:
    """A flag that the chosen trainer ignores is a usage error, not a no-op."""
    for flag, owners in sorted(_TRAINER_ONLY[dest] for dest in args.given & _TRAINER_ONLY.keys()):
        if trainer not in owners:
            owner = " and ".join(owners)
            raise ValueError(f"{flag} applies only to the {owner} trainer, not {trainer}")


def _name(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_").upper()


def _opt(parser, flag: str, *aliases: str, group=None, **kwargs) -> None:
    """add_argument (to ``group`` of ``parser`` if given), registered with the
    environment variable named after ``flag``, not after its ``aliases``,
    and with its default."""
    action = (group or parser).add_argument(flag, *aliases, **kwargs)
    env_name = ENV_PREFIX + _name(flag)
    raw = os.environ.get(env_name)
    if raw is not None and (_list_items(raw) or not isinstance(action, argparse._AppendAction)):
        action.required = False  # the environment gives a value
    parser.settings.append((action, env_name, action.default))
    action.default = argparse.SUPPRESS  # an option left unset stays off the namespace


def _add_options(parser, section: str, renamed=None, help_prefix: str = "") -> None:
    """Add the table's ``section`` (flags renamed by ``renamed``); each stores
    to ``<config>.<field>``, which ``_fields`` reads back."""
    for flag, owner, name, text, *trainers in _OPTIONS[section]:
        flag = (renamed or {}).get(flag, flag)
        default = getattr(owner, name)
        if trainers:
            text += f" ({' and '.join(trainers)} only)"
        _opt(
            parser, flag, dest=f"{owner.__name__}.{name}", metavar=_name(flag),
            type=type(default), default=default, help=help_prefix + text,
        )


def _fields(args, owner) -> dict:
    """The parsed values of the table's options on ``owner``, by field name."""
    prefix = owner.__name__ + "."
    return {key[len(prefix) :]: v for key, v in vars(args).items() if key.startswith(prefix)}


def _add_roots(parser: argparse.ArgumentParser) -> None:
    _opt(
        parser,
        "--root",
        action="append",
        default=None,
        metavar="IRI",
        help="hierarchy root class (repeatable; default owl:Thing and dbo:Agent)",
    )


def _add_keep_type_triples(parser: argparse.ArgumentParser) -> None:
    _opt(
        parser, "--keep-type-triples", action="store_true", default=False,
        help="keep rdf:type triples in the corpus (default: held out)",
    )


def _roots(args) -> tuple[str, ...]:
    return tuple(args.root) if args.root else PipelineConfig.roots


# ---------------------------------------------------------------- handlers


def _cmd_ingest(args) -> int:
    kg, _, stats = load_graph(args.infile, args.strict, _roots(args))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_ntriples(kg.triples, handle)
    if args.stats:
        classes = kg.classes()
        subjects = {t.subject.value for t in kg.triples}
        print(f"triples\t{kg.num_triples}")
        print(f"entities\t{len(subjects - classes)}")
        print(f"classes\t{len(classes)}")
        print(f"parse_errors\t{stats.skipped}")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    kg, _, _ = load_graph(args.infile, args.strict, _roots(args))
    build = write_sentences(kg, args.out, not args.keep_type_triples)
    print(f"sentences\t{len(build.sentences)}")
    print(f"skipped_literal_objects\t{build.skipped_literals}")
    print(f"skipped_excluded_predicates\t{build.skipped_excluded}")
    return EXIT_OK


def _cmd_train_embeddings(args) -> int:
    _reject_other_trainer_flags(args, args.trainer)
    # Built before reading, so a bad setting is a usage error.
    config = TrainingConfig(**_fields(args, TrainingConfig), seed=args.seed)
    embeddings = train_embeddings(args.trainer, read_corpus(args.infile), args.out, config)
    print(f"saved\t{len(embeddings.vocabulary)}\tvectors\tdim\t{config.dimension}\t{args.out}")
    return EXIT_OK


def _cmd_build_dataset(args) -> int:
    settings = _fields(args, PipelineConfig)
    check_sample_sizes(settings["num_classes"], settings["entities_per_class"])
    check_train_fraction(settings["train_fraction"])
    kg, hierarchy, _ = load_graph(args.infile, args.strict, _roots(args))
    dataset = write_dataset(kg, hierarchy, args.out_dir, seed=args.seed, **settings)
    print(f"classes\t{len(dataset.classes)}")
    print(f"train\t{len(dataset.train_ids)}")
    print(f"test\t{len(dataset.test_ids)}")
    return EXIT_OK


def _cmd_train_classifier(args) -> int:
    config = CnnConfig(**_fields(args, CnnConfig), seed=args.seed)
    embeddings = load_embeddings(args.vectors)
    examples = read_labels(args.dataset)
    model = train_cnn(examples, embeddings, config)
    model.save(args.out)
    print(f"classes\t{len(model.classes)}")
    print(f"final_epoch_loss\t{model.epoch_losses[-1]:.6f}")
    print(f"model\t{args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    if args.top_k < 1:
        raise ValueError(f"--top-k must be >= 1, got {args.top_k}")
    embeddings = load_embeddings(args.vectors)
    if args.method == "cnn":
        if args.model is None:
            raise ValueError("--model is required with --method cnn")
        matrix = cnn_scores(args.entity, CnnModel.load(args.model), embeddings)
        reason = "it has no vector"
    else:
        if args.infile is None or args.train is None:
            raise ValueError("--in and --train are required with --method similarity")
        kg, hierarchy, _ = load_graph(args.infile, args.strict, _roots(args))
        matrix = similarity_scores(args.entity, read_labels(args.train), kg, hierarchy, embeddings)
        reason = "it lacks a vector, a known asserted type or a candidate with a class vector"
    rows = matrix.predictions()
    for prediction in rows:
        if not prediction.ranking:
            raise DataError(f"cannot rank entity {prediction.entity}: {reason}")
    if args.out is not None:
        write_rankings(args.out, rows, top_k=args.top_k)
    else:
        columns = {c: j for j, c in enumerate(matrix.classes)}
        for prediction, values in zip(rows, matrix.values):
            for class_iri in prediction.ranking[: args.top_k]:
                print(f"{prediction.entity}\t{class_iri}\t{values[columns[class_iri]]:.6f}")
    return EXIT_OK


def _parse_metric_names(raw: str) -> list[str]:
    names = [token.strip() for token in raw.split(",") if token.strip()]
    if not names:
        raise ValueError("--metrics must name at least one metric")
    return names


def _cmd_evaluate(args) -> int:
    gold = read_label_map(args.gold)
    values = score(gold, read_rankings(args.predictions), _parse_metric_names(args.metrics))
    for name, value in values.items():
        print(f"{name}\t{value:.4f}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(values, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return EXIT_OK


def _cmd_compare_external(args) -> int:
    gold = read_label_map(args.dataset)
    external = read_label_map(args.external)
    report = external_overlap(gold, external)
    print(f"our_entities\t{report.our_entities}")
    print(f"intersection\t{report.intersection}\t{report.intersection_percentage:.1f}%")
    print(f"matching_types\t{report.matching_types}\t{report.matching_percentage:.1f}%")
    return EXIT_OK


def _cmd_synth(args) -> int:
    result = generate_synthetic_kg(
        args.out_dir, args.num_classes, args.entities_per_class, args.predicates_per_class,
        args.noise, args.seed,
    )
    print(f"kg\t{result.kg_path}")
    print(f"gold\t{result.gold_path}")
    print(f"triples\t{result.num_triples}")
    print(f"entities\t{result.num_entities}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    _reject_other_trainer_flags(args, args.trainer)
    config = PipelineConfig(
        input_nt=args.infile, out_dir=args.out_dir, trainer=args.trainer, roots=_roots(args),
        strict=args.strict, hold_out_type_triples=not args.keep_type_triples,
        embedding=TrainingConfig(**_fields(args, TrainingConfig)),
        cnn=CnnConfig(**_fields(args, CnnConfig)),
        seed=args.seed, resume=args.resume, **_fields(args, PipelineConfig),
    )
    result = run_pipeline(config)
    print(result.report_text())
    print(f"metrics\t{result.paths['metrics.json']}")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgtyper", description=__doc__.splitlines()[0])
    _opt(
        parser, "--seed", type=int, default=PipelineConfig.seed,
        help="seed for every random component",
    )
    mode = parser.add_mutually_exclusive_group()
    _opt(
        parser, "--strict", group=mode, action="store_true", default=PipelineConfig.strict,
        help="fail on the first malformed input line (default)",
    )
    _opt(
        parser, "--lenient", group=mode, dest="strict", action="store_false",
        help="skip malformed input lines with a warning",
    )
    _opt(parser, "--verbose", action="store_true", default=False, help="log progress to stderr")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="parse an N-Triples dump and report graph statistics")
    _opt(p, "--in", dest="infile", type=Path, required=True, help="N-Triples input")
    _opt(p, "--out", type=Path, default=None, help="write normalized triples here")
    _opt(p, "--stats", action="store_true", default=False, help="print graph statistics")
    _add_roots(p)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("corpus", help="serialize IRI-object triples as three-token sentences")
    _opt(p, "--in", dest="infile", type=Path, required=True, help="N-Triples input")
    _opt(p, "--out", type=Path, required=True, help="corpus output path")
    _add_keep_type_triples(p)
    _add_roots(p)
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("train-embeddings", help="train token vectors on a sentence corpus")
    _opt(
        p, "--trainer", "--model", choices=TRAINERS, default=PipelineConfig.trainer,
        help="embedding trainer",
    )
    _opt(p, "--in", dest="infile", type=Path, required=True, help="corpus input")
    _opt(p, "--out", type=Path, required=True, help="vector output path")
    _add_options(p, "embedding")
    p.set_defaults(handler=_cmd_train_embeddings)

    p = sub.add_parser("build-dataset", help="sample a labeled dataset and split it 80/20")
    _opt(p, "--in", dest="infile", type=Path, required=True, help="N-Triples input")
    _opt(p, "--out-dir", type=Path, required=True, help="directory for dataset TSVs")
    _add_options(p, "dataset")
    _add_roots(p)
    p.set_defaults(handler=_cmd_build_dataset)

    p = sub.add_parser("train-classifier", help="train the classifier on entity vectors")
    _opt(p, "--vectors", type=Path, required=True, help="trained vector file")
    _opt(p, "--dataset", type=Path, required=True, help="training labels TSV")
    _opt(p, "--out", type=Path, required=True, help="model output path")
    _add_options(p, "classifier")
    p.set_defaults(handler=_cmd_train_classifier)

    p = sub.add_parser("predict", help="rank candidate classes for entities")
    _opt(p, "--method", choices=("cnn", "similarity"), required=True)
    _opt(p, "--entity", action="append", required=True, metavar="IRI", help="entity (repeatable)")
    _opt(p, "--vectors", type=Path, required=True, help="trained vector file")
    _opt(p, "--model", type=Path, default=None, help="classifier model (cnn method)")
    _opt(p, "--in", dest="infile", type=Path, default=None, help="N-Triples input (similarity method)")
    _opt(p, "--train", type=Path, default=None, help="training labels TSV (similarity method)")
    _opt(p, "--top-k", type=int, default=3, help="classes to print per entity (>= 1)")
    _opt(p, "--out", type=Path, default=None, help="write rankings here instead of stdout")
    _add_roots(p)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a ranking file against gold labels")
    _opt(p, "--predictions", type=Path, required=True, help="ranking TSV")
    _opt(p, "--gold", type=Path, required=True, help="gold labels TSV")
    _opt(p, "--metrics", default=",".join(DEFAULT_METRICS), help="comma-separated metric names")
    _opt(p, "--json", type=Path, default=None, help="also write {metric: value} JSON here")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("compare-external", help="overlap counts against an external typing file")
    _opt(p, "--external", type=Path, required=True, help="external entity/type TSV")
    _opt(p, "--dataset", type=Path, required=True, help="our gold labels TSV")
    p.set_defaults(handler=_cmd_compare_external)

    p = sub.add_parser("synth", help="generate a synthetic knowledge graph with gold labels")
    _opt(p, "--out-dir", type=Path, required=True, help="output directory")
    _opt(p, "--num-classes", type=int, default=10)
    _opt(p, "--entities-per-class", type=int, default=50)
    _opt(p, "--predicates-per-class", type=int, default=3)
    _opt(p, "--noise", type=float, default=0.1, help="noise triple fraction in [0, 1)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("pipeline", help="run ingest through evaluation in one command")
    _opt(p, "--in", dest="infile", type=Path, required=True, help="N-Triples input")
    _opt(p, "--out-dir", type=Path, required=True, help="artifact directory")
    _opt(p, "--trainer", choices=TRAINERS, default=PipelineConfig.trainer, help="embedding trainer")
    _add_options(p, "dataset")
    _add_options(p, "embedding")
    _add_options(p, "classifier", {"--epochs": "--cnn-epochs", "--lr": "--cnn-lr"}, "classifier ")
    _add_keep_type_triples(p)
    _opt(p, "--resume", action="store_true", default=False, help="reuse existing artifacts")
    _add_roots(p)
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed usage or help already
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"kgtyper: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.command is None:
        print("kgtyper: error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE

    try:
        return args.handler(args)
    except StageError as exc:
        print(f"kgtyper: error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, NumericalError):
            return EXIT_NUMERICAL
        return EXIT_DATA
    except NumericalError as exc:
        print(f"kgtyper: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"kgtyper: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KgTyperError, OSError) as exc:
        print(f"kgtyper: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
