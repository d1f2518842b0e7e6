"""Command-line interface: exit codes, output contracts, env overrides."""

from __future__ import annotations

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import LAWFIRM_NT, LAWFIRM, COMPANY

from kgtyper import cli
from kgtyper.cli import build_parser, main
from kgtyper.cnn import CnnConfig
from kgtyper.embeddings import TrainingConfig, load_embeddings
from kgtyper.graph import KnowledgeGraph
from kgtyper.pipeline import PipelineConfig

SUBCOMMANDS = (
    "ingest", "corpus", "train-embeddings", "build-dataset", "train-classifier", "predict",
    "evaluate", "compare-external", "synth", "pipeline",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table(out: str) -> dict[str, str]:
    rows = {}
    for line in out.splitlines():
        fields = line.split("\t")
        if len(fields) >= 2:
            rows[fields[0]] = fields[1]
    return rows


@pytest.fixture
def lawfirm_file(tmp_path):
    path = tmp_path / "lawfirm.nt"
    path.write_text(LAWFIRM_NT)
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared synthetic KG, corpus, vectors, dataset, and model."""
    root = tmp_path_factory.mktemp("cli_workspace")
    code = main([
        "synth", "--out-dir", str(root / "synth"), "--num-classes", "3",
        "--entities-per-class", "8", "--predicates-per-class", "2",
        "--noise", "0.0",
    ])
    assert code == 0
    kg = root / "synth" / "kg.nt"
    corpus = root / "corpus.txt"
    assert main(["corpus", "--in", str(kg), "--out", str(corpus)]) == 0
    vectors = root / "vectors.txt"
    assert main([
        "train-embeddings", "--in", str(corpus), "--out", str(vectors),
        "--dim", "12", "--epochs", "8", "--lr", "0.1",
    ]) == 0
    dataset_dir = root / "dataset"
    assert main([
        "build-dataset", "--in", str(kg), "--out-dir", str(dataset_dir),
        "--num-classes", "3", "--entities-per-class", "8",
        "--train-fraction", "0.75",
    ]) == 0
    model = root / "model.bin"
    assert main([
        "train-classifier", "--vectors", str(vectors),
        "--dataset", str(dataset_dir / "train.tsv"), "--out", str(model),
        "--epochs", "40", "--batch-size", "8", "--lr", "0.3", "--hidden", "16",
    ]) == 0
    return {
        "root": root, "kg": kg, "corpus": corpus, "vectors": vectors,
        "dataset_dir": dataset_dir, "model": model,
        "gold": root / "synth" / "gold.tsv",
    }


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "subcommand" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "ingest", "--no-such-flag")
    assert code == 1


@pytest.mark.parametrize("command", ["", *SUBCOMMANDS], ids=["top-level", *SUBCOMMANDS])
def test_help_exits_zero(capsys, command):
    code, out, _ = run(capsys, *filter(None, [command, "--help"]))
    assert code == 0
    assert all(name in out for name in ([command] if command else SUBCOMMANDS))


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "ingest")
    assert code == 1


def test_ingest_stats(capsys, lawfirm_file):
    code, out, _ = run(capsys, "ingest", "--in", str(lawfirm_file), "--stats")
    assert code == 0
    rows = table(out)
    assert rows["triples"] == "6"
    assert rows["entities"] == "1"  # only Baker_McKenzie is a non-class subject
    assert rows["classes"] == "5"
    assert rows["parse_errors"] == "0"


def test_ingest_stats_collects_classes_once(capsys, lawfirm_file, monkeypatch):
    calls = []
    classes = KnowledgeGraph.classes

    def counted(kg):
        calls.append(kg)
        return classes(kg)

    monkeypatch.setattr(KnowledgeGraph, "classes", counted)
    assert run(capsys, "ingest", "--in", str(lawfirm_file))[0] == 0
    without_stats = len(calls)  # the hierarchy build's own call
    calls.clear()
    assert run(capsys, "ingest", "--in", str(lawfirm_file), "--stats")[0] == 0
    assert len(calls) - without_stats == 1


def test_ingest_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "--in", str(tmp_path / "absent.nt"))
    assert code == 2
    assert "error" in err


def test_ingest_normalizes_round_trippable_output(capsys, lawfirm_file, tmp_path):
    out_path = tmp_path / "normalized.nt"
    code, _, _ = run(capsys, "ingest", "--in", str(lawfirm_file), "--out", str(out_path))
    assert code == 0
    first = out_path.read_text()
    again = tmp_path / "again.nt"
    code, _, _ = run(capsys, "ingest", "--in", str(out_path), "--out", str(again))
    assert code == 0
    assert again.read_text() == first


def test_strict_mode_rejects_malformed_line(capsys, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://a> <http://b> <http://c> .\nnot a triple\n")
    code, _, err = run(capsys, "ingest", "--in", str(bad), "--stats")
    assert code == 2
    assert "line 2" in err


def test_lenient_mode_skips_malformed_line(capsys, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://a> <http://b> <http://c> .\nnot a triple\n")
    code, out, _ = run(capsys, "--lenient", "ingest", "--in", str(bad), "--stats")
    assert code == 0
    assert table(out)["parse_errors"] == "1"


SURROGATE_NT = (
    "<http://x.org/a> <http://x.org/p> <http://x.org/b> .\n"
    "<http://x.org/a\\uD800b> <http://x.org/p> <http://x.org/c> .\n"
)


def test_strict_corpus_names_the_line_of_a_surrogate_escape(capsys, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text(SURROGATE_NT)
    code, _, err = run(capsys, "corpus", "--in", str(bad), "--out", str(tmp_path / "c.txt"))
    assert code == 2
    assert "line 2: invalid \\u escape in IRI" in err


def test_lenient_corpus_skips_a_surrogate_escape(capsys, caplog, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text(SURROGATE_NT)
    out_path = tmp_path / "c.txt"
    code, out, _ = run(capsys, "--lenient", "corpus", "--in", str(bad), "--out", str(out_path))
    assert code == 0
    assert table(out)["sentences"] == "1"
    assert "skipped 1 malformed lines" in caplog.text
    assert out_path.read_text(encoding="utf-8").splitlines() == [
        "http://x.org/a http://x.org/p http://x.org/b"
    ]


def test_lenient_via_environment(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://a> <http://b> <http://c> .\nnonsense\n")
    monkeypatch.setenv("KGTYPER_LENIENT", "1")
    code, out, _ = run(capsys, "ingest", "--in", str(bad), "--stats")
    assert code == 0
    assert table(out)["parse_errors"] == "1"


def test_corpus_counts_and_type_holdout(capsys, lawfirm_file, tmp_path):
    out_path = tmp_path / "corpus.txt"
    code, out, _ = run(capsys, "corpus", "--in", str(lawfirm_file), "--out", str(out_path))
    assert code == 0
    assert table(out)["sentences"] == "5"  # 4 subclass + 1 location; type held out
    assert "rdf-syntax-ns#type" not in out_path.read_text()

    code, out, _ = run(
        capsys, "corpus", "--in", str(lawfirm_file), "--out", str(out_path),
        "--keep-type-triples",
    )
    assert code == 0
    assert table(out)["sentences"] == "6"
    assert "rdf-syntax-ns#type" in out_path.read_text()


@pytest.mark.parametrize("trainer", ["word2vec", "glove"])
def test_train_embeddings_writes_header(capsys, workspace, tmp_path, trainer):
    out_path = tmp_path / "vectors.txt"
    code, out, _ = run(
        capsys, "train-embeddings", "--trainer", trainer,
        "--in", str(workspace["corpus"]), "--out", str(out_path),
        "--dim", "6", "--epochs", "2",
    )
    assert code == 0
    header = out_path.read_text().splitlines()[0].split()
    assert header[1] == "6"
    assert "saved" in out


def test_train_embeddings_fasttext_small_buckets(capsys, workspace, tmp_path):
    out_path = tmp_path / "vectors.txt"
    code, _, _ = run(
        capsys, "train-embeddings", "--trainer", "fasttext",
        "--in", str(workspace["corpus"]), "--out", str(out_path),
        "--dim", "6", "--epochs", "1", "--buckets", "101",
    )
    assert code == 0
    assert load_embeddings(out_path).input_vectors.shape[1] == 6


def test_build_dataset_reports_split_sizes(capsys, workspace):
    # Built once in the fixture; verify the files and rerun for the counts.
    code, out, _ = run(
        capsys, "build-dataset", "--in", str(workspace["kg"]),
        "--out-dir", str(workspace["root"] / "dataset2"),
        "--num-classes", "3", "--entities-per-class", "8",
        "--train-fraction", "0.75",
    )
    assert code == 0
    rows = table(out)
    assert rows["classes"] == "3"
    assert rows["train"] == "18"
    assert rows["test"] == "6"


def test_train_classifier_reports_final_loss(capsys, workspace, tmp_path):
    out_path = tmp_path / "model.bin"
    code, out, _ = run(
        capsys, "train-classifier", "--vectors", str(workspace["vectors"]),
        "--dataset", str(workspace["dataset_dir"] / "train.tsv"),
        "--out", str(out_path), "--epochs", "5", "--batch-size", "8",
        "--lr", "0.2", "--hidden", "8",
    )
    assert code == 0
    rows = table(out)
    assert rows["classes"] == "3"
    float(rows["final_epoch_loss"])
    assert out_path.exists()


def first_test_entity(workspace) -> str:
    line = (workspace["dataset_dir"] / "test.tsv").read_text().splitlines()[0]
    return line.split("\t")[0]


def test_predict_cnn_prints_ranked_rows(capsys, workspace):
    entity = first_test_entity(workspace)
    code, out, _ = run(
        capsys, "predict", "--method", "cnn", "--entity", entity,
        "--vectors", str(workspace["vectors"]), "--model", str(workspace["model"]),
        "--top-k", "2",
    )
    assert code == 0
    lines = [line.split("\t") for line in out.splitlines()]
    assert len(lines) == 2
    assert all(fields[0] == entity for fields in lines)
    scores = [float(fields[2]) for fields in lines]
    assert scores == sorted(scores, reverse=True)


def test_predict_cnn_requires_model(capsys, workspace):
    code, _, err = run(
        capsys, "predict", "--method", "cnn", "--entity", "x",
        "--vectors", str(workspace["vectors"]),
    )
    assert code == 1
    assert "--model" in err


def test_predict_similarity_requires_graph_and_train(capsys, workspace):
    code, _, err = run(
        capsys, "predict", "--method", "similarity", "--entity", "x",
        "--vectors", str(workspace["vectors"]),
    )
    assert code == 1
    assert "--train" in err


def test_predict_similarity_ranks_candidates(capsys, workspace, tmp_path):
    entity = first_test_entity(workspace)
    out_path = tmp_path / "rankings.tsv"
    code, _, _ = run(
        capsys, "predict", "--method", "similarity", "--entity", entity,
        "--vectors", str(workspace["vectors"]), "--in", str(workspace["kg"]),
        "--train", str(workspace["dataset_dir"] / "train.tsv"),
        "--out", str(out_path),
    )
    assert code == 0
    rows = [line.split("\t") for line in out_path.read_text().splitlines()]
    assert rows and all(fields[0] == entity for fields in rows)


def _without_config(header):
    del header["config"]


def _without_last_array(header):
    header["arrays"].pop()


def _config_disagrees_with_arrays(header):
    header["config"]["hidden_units"] += 1


def _input_dim_disagrees_with_arrays(header):
    header["input_dim"] += 1


def _format_version_one(header):
    header["format_version"] = 1  # the windowed-conv layout of earlier releases


def _bytes_after_last_array(header):
    return b"24 bytes appended here.\n"


def _config_with_zero_epochs(header):
    header["config"]["epochs"] = 0  # arrays still match; the config itself is refused


@pytest.mark.parametrize(
    "corrupt",
    [
        _without_config, _without_last_array, _config_disagrees_with_arrays,
        _input_dim_disagrees_with_arrays, _format_version_one, _bytes_after_last_array,
        _config_with_zero_epochs,
    ],
)
def test_predict_rejects_malformed_model_header(capsys, workspace, tmp_path, corrupt):
    """``corrupt`` edits the header in place and returns any bytes to append."""
    magic, header, blobs = workspace["model"].read_bytes().split(b"\n", 2)
    header = json.loads(header)
    blobs += corrupt(header) or b""
    path = tmp_path / "bad_model.bin"
    path.write_bytes(b"\n".join([magic, json.dumps(header).encode("utf-8"), blobs]))
    code, out, err = run(
        capsys, "predict", "--method", "cnn", "--entity", first_test_entity(workspace),
        "--vectors", str(workspace["vectors"]), "--model", str(path),
    )
    assert code == 2
    assert str(path) in err
    assert out == ""


def test_predict_cnn_vectors_of_another_dimension_is_data_error(capsys, workspace, tmp_path):
    vectors = tmp_path / "vectors8.txt"
    code, _, _ = run(
        capsys, "train-embeddings", "--in", str(workspace["corpus"]), "--out", str(vectors),
        "--dim", "8", "--epochs", "1",
    )
    assert code == 0
    code, out, err = run(
        capsys, "predict", "--method", "cnn", "--entity", first_test_entity(workspace),
        "--vectors", str(vectors), "--model", str(workspace["model"]),
    )
    assert code == 2
    assert "8-dimensional" in err and "12-dimensional" in err
    assert out == ""


@pytest.mark.parametrize("top_k", ["0", "-1"])
def test_predict_top_k_below_one_is_usage_error(capsys, workspace, tmp_path, top_k):
    out_path = tmp_path / "rankings.tsv"
    code, _, err = run(
        capsys, "predict", "--method", "cnn", "--entity", first_test_entity(workspace),
        "--vectors", str(workspace["vectors"]), "--model", str(workspace["model"]),
        "--top-k", top_k, "--out", str(out_path),
    )
    assert code == 1
    assert "--top-k" in err
    assert not out_path.exists()


@pytest.mark.parametrize("method", ["cnn", "similarity"])
def test_predict_unknown_entity_is_data_error(capsys, workspace, method):
    entity = "http://nowhere/x"
    code, out, err = run(
        capsys, "predict", "--method", method, "--entity", entity,
        "--vectors", str(workspace["vectors"]), "--model", str(workspace["model"]),
        "--in", str(workspace["kg"]), "--train", str(workspace["dataset_dir"] / "train.tsv"),
    )
    assert code == 2
    assert entity in err
    assert out == ""


def test_evaluate_prints_and_writes_metrics(capsys, workspace, tmp_path):
    rankings = tmp_path / "rankings.tsv"
    gold = workspace["dataset_dir"] / "test.tsv"
    lines = []
    for line in gold.read_text().splitlines():
        entity, class_iri = line.split("\t")
        lines.append(f"{entity}\t{class_iri}")
        lines.append(f"{entity}\thttp://example.org/ontology/Other")
    rankings.write_text("\n".join(lines) + "\n")

    json_path = tmp_path / "metrics.json"
    code, out, _ = run(
        capsys, "evaluate", "--predictions", str(rankings), "--gold", str(gold),
        "--metrics", "accuracy,hits@1,hits@2", "--json", str(json_path),
    )
    assert code == 0
    rows = table(out)
    assert rows["accuracy"] == "1.0000"
    assert rows["hits@1"] == "1.0000"
    assert rows["hits@2"] == "1.0000"
    assert json.loads(json_path.read_text()) == {
        "accuracy": 1.0, "hits@1": 1.0, "hits@2": 1.0,
    }


def test_evaluate_rejects_unknown_metric(capsys, workspace, tmp_path):
    rankings = tmp_path / "rankings.tsv"
    rankings.write_text("e\tc\n")
    code, _, err = run(
        capsys, "evaluate", "--predictions", str(rankings),
        "--gold", str(workspace["gold"]), "--metrics", "precision",
    )
    assert code == 1
    assert "precision" in err


@pytest.mark.parametrize("metric", ["hits@\uff12", "hits@ 2", "hits@0"])  # \uff12: a full-width 2
def test_evaluate_rejects_malformed_hits_metric(capsys, workspace, tmp_path, metric):
    rankings = tmp_path / "rankings.tsv"
    rankings.write_text("e\tc\n")
    json_path = tmp_path / "metrics.json"
    code, out, err = run(
        capsys, "evaluate", "--predictions", str(rankings),
        "--gold", str(workspace["gold"]), "--metrics", f"accuracy,{metric}",
        "--json", str(json_path),
    )
    assert code == 1
    assert metric in err
    assert out == "" and not json_path.exists()


def test_compare_external_counts(capsys, workspace, tmp_path):
    external = tmp_path / "external.tsv"
    gold_lines = workspace["gold"].read_text().splitlines()
    agree = gold_lines[0]
    disagree_entity = gold_lines[1].split("\t")[0]
    external.write_text(f"{agree}\n{disagree_entity}\thttp://example.org/Other\n")
    code, out, _ = run(
        capsys, "compare-external", "--external", str(external),
        "--dataset", str(workspace["gold"]),
    )
    assert code == 0
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in out.splitlines()}
    assert rows["our_entities"] == ["24"]
    assert rows["intersection"] == ["2", "8.3%"]
    assert rows["matching_types"] == ["1", "50.0%"]


def test_synth_is_deterministic(capsys, tmp_path):
    args = ["--seed", "9", "synth", "--num-classes", "2", "--entities-per-class", "3",
            "--predicates-per-class", "2", "--noise", "0.2"]
    code, out, _ = run(capsys, *args, "--out-dir", str(tmp_path / "a"))
    assert code == 0
    assert table(out)["entities"] == "6"
    code, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "b"))
    assert code == 0
    assert (tmp_path / "a" / "kg.nt").read_bytes() == (tmp_path / "b" / "kg.nt").read_bytes()


def test_pipeline_end_to_end(capsys, workspace, tmp_path):
    out_dir = tmp_path / "pipeline"
    code, out, _ = run(
        capsys, "pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out_dir),
        "--num-classes", "3", "--entities-per-class", "8", "--train-fraction", "0.75",
        "--dim", "12", "--epochs", "8", "--lr", "0.1",
        "--cnn-epochs", "40", "--batch-size", "8", "--cnn-lr", "0.3", "--hidden", "16",
    )
    assert code == 0
    assert (out_dir / "metrics.json").exists()
    assert "cnn\taccuracy\t" in out
    assert "similarity\thits@3\t" in out

    # The stage subcommands call the pipeline's stage functions, so the
    # fixture's stage-by-stage chain with the same settings writes the same bytes.
    stage_files = {
        "corpus.txt": workspace["corpus"],
        "vectors.txt": workspace["vectors"],
        "model.bin": workspace["model"],
        **{name: workspace["dataset_dir"] / name
           for name in ("dataset.tsv", "train.tsv", "test.tsv")},
    }
    for name, path in stage_files.items():
        assert (out_dir / name).read_bytes() == path.read_bytes(), name

    entities = [line.split("\t")[0] for line in (out_dir / "test.tsv").read_text().splitlines()]
    for method in ("cnn", "similarity"):
        rankings = tmp_path / f"{method}.tsv"
        code, _, _ = run(
            capsys, "predict", "--method", method,
            *(arg for entity in entities for arg in ("--entity", entity)),
            "--vectors", str(workspace["vectors"]), "--model", str(workspace["model"]),
            "--in", str(workspace["kg"]), "--train", str(workspace["dataset_dir"] / "train.tsv"),
            "--top-k", "100", "--out", str(rankings),
        )
        assert code == 0
        assert (out_dir / f"pred_{method}.tsv").read_bytes() == rankings.read_bytes(), method


def test_env_overrides_default(capsys, workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("KGTYPER_DIM", "7")
    out_path = tmp_path / "vectors.txt"
    code, _, _ = run(
        capsys, "train-embeddings", "--in", str(workspace["corpus"]),
        "--out", str(out_path), "--epochs", "1",
    )
    assert code == 0
    assert load_embeddings(out_path).input_vectors.shape[1] == 7


def test_flag_beats_environment(capsys, workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("KGTYPER_DIM", "7")
    out_path = tmp_path / "vectors.txt"
    code, _, _ = run(
        capsys, "train-embeddings", "--in", str(workspace["corpus"]),
        "--out", str(out_path), "--epochs", "1", "--dim", "9",
    )
    assert code == 0
    assert load_embeddings(out_path).input_vectors.shape[1] == 9


def test_unparseable_environment_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("KGTYPER_DIM", "not-a-number")
    code, _, err = run(capsys, "train-embeddings", "--in", "x", "--out", "y")
    assert code == 1
    assert "KGTYPER_DIM" in err


@pytest.mark.parametrize(
    "variable,value,command,expected",
    [
        ("KGTYPER_DIM", "abc", "synth", 0),
        ("KGTYPER_RESUME", "maybe", "synth", 0),
        ("KGTYPER_RESUME", "maybe", "pipeline", 1),
    ],
)
def test_unparseable_environment_value_stops_only_its_subcommands(
    capsys, workspace, tmp_path, monkeypatch, variable, value, command, expected
):
    monkeypatch.setenv(variable, value)
    out_dir = tmp_path / "out"
    argv = {
        "synth": [
            "synth", "--out-dir", str(out_dir), "--num-classes", "2", "--entities-per-class", "2",
        ],
        "pipeline": ["pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out_dir)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert (variable in err) == (expected == 1)
    assert out_dir.exists() == (expected == 0)


@pytest.mark.parametrize(
    "variable,value,argv",
    [
        ("KGTYPER_DIM", "abc", ["train-embeddings", "--dim", "6"]),
        ("KGTYPER_TRAINER", "bogus", ["train-embeddings", "--trainer", "word2vec"]),
        ("KGTYPER_TRAINER", "bogus", ["pipeline", "--trainer", "word2vec"]),
        ("KGTYPER_RESUME", "maybe", ["pipeline", "--resume"]),
    ],
)
def test_flag_beats_unparseable_environment_value(
    capsys, workspace, tmp_path, monkeypatch, variable, value, argv
):
    monkeypatch.setenv(variable, value)
    out = tmp_path / "out"
    command, *flags = argv
    paths = {
        "train-embeddings": ["--in", str(workspace["corpus"]), "--out", str(out), "--epochs", "1"],
        "pipeline": [
            "--in", str(workspace["kg"]), "--out-dir", str(out), "--num-classes", "3",
            "--entities-per-class", "8", "--dim", "6", "--epochs", "1", "--cnn-epochs", "1",
        ],
    }[command]
    code, _, err = run(capsys, command, *paths, *flags)
    assert code == 0, err
    assert out.exists()


@pytest.mark.parametrize("trainer", ["word2vec", "glove"])
def test_invalid_environment_value_of_another_trainer_is_refused(
    capsys, workspace, tmp_path, monkeypatch, trainer
):
    # Valid, it would stay a default that this trainer ignores; invalid, it is refused.
    monkeypatch.setenv("KGTYPER_N_MIN", "0")
    out_dir = tmp_path / "out"
    code, _, err = run(
        capsys, "pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out_dir),
        "--trainer", trainer,
    )
    assert code == 1
    assert "n_min" in err
    assert not out_dir.exists()


def test_invalid_environment_value_is_refused_before_reading_the_corpus(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setenv("KGTYPER_N_MIN", "0")
    out_path = tmp_path / "v.txt"
    code, _, err = run(
        capsys, "train-embeddings", "--trainer", "fasttext",
        "--in", str(tmp_path / "missing.txt"), "--out", str(out_path),
    )
    assert code == 1
    assert "n_min" in err
    assert not out_path.exists()


def test_seed_changes_vectors(capsys, workspace, tmp_path):
    paths = []
    for seed in ("3", "4"):
        out_path = tmp_path / f"v{seed}.txt"
        code, _, _ = run(
            capsys, "--seed", seed, "train-embeddings",
            "--in", str(workspace["corpus"]), "--out", str(out_path),
            "--dim", "6", "--epochs", "1",
        )
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_text() != paths[1].read_text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_divergence_exits_three(capsys, workspace, tmp_path):
    code, _, err = run(
        capsys, "train-embeddings", "--trainer", "glove",
        "--in", str(workspace["corpus"]), "--out", str(tmp_path / "v.txt"),
        "--dim", "6", "--epochs", "30", "--lr", "100000",
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "option", [("--x-max", "0"), ("--x-max", "-5"), ("--x-max", "nan"), ("--alpha", "-3")]
)
def test_bad_glove_weighting_exits_one_before_training(capsys, workspace, tmp_path, option):
    out_path = tmp_path / "v.txt"
    code, _, err = run(
        capsys, "train-embeddings", "--trainer", "glove",
        "--in", str(workspace["corpus"]), "--out", str(out_path),
        "--dim", "6", "--epochs", "1", *option,
    )
    assert code == 1
    assert option[0].lstrip("-").replace("-", "_") in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["train-embeddings", "pipeline"])
def test_bad_ngram_config_exits_one_before_any_stage(capsys, workspace, tmp_path, command):
    out = tmp_path / "out"
    argv = {
        "train-embeddings": [
            "train-embeddings", "--in", str(workspace["corpus"]), "--out", str(out),
            "--dim", "6", "--epochs", "1",
        ],
        "pipeline": ["pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out)],
    }[command]
    code, _, err = run(capsys, *argv, "--trainer", "fasttext", "--n-min", "0")
    assert code == 1
    assert "n_min" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_exits_one_before_training(capsys, workspace, tmp_path, value):
    out_path = tmp_path / "v.txt"
    code, _, err = run(
        capsys, "train-embeddings",
        "--in", str(workspace["corpus"]), "--out", str(out_path),
        "--dim", "6", "--epochs", "1", "--lr", value,
    )
    assert code == 1
    assert "learning_rate" in err
    assert not out_path.exists()


def test_non_finite_classifier_learning_rate_exits_one_before_any_stage(
    capsys, workspace, tmp_path
):
    out_dir = tmp_path / "pipeline"
    code, _, err = run(
        capsys, "pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out_dir),
        "--cnn-lr", "nan",
    )
    assert code == 1
    assert "learning_rate" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flag,value,stage_command",
    [
        ("--train-fraction", "1.5", "build-dataset"),
        ("--num-classes", "1", "build-dataset"),
        ("--entities-per-class", "0", "build-dataset"),
        ("--min-count", "0", "train-embeddings"),
    ],
)
def test_bad_dataset_or_vocabulary_setting_exits_one_before_any_stage(
    capsys, workspace, tmp_path, flag, value, stage_command
):
    out_dir = tmp_path / "pipeline"
    code, _, err = run(
        capsys, "pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out_dir), flag, value,
    )
    assert code == 1
    assert not (out_dir / "corpus.txt").exists()
    # The same message as the subcommand that runs that stage alone; the
    # graph has 8 entities per class.
    stage_argv = {
        "build-dataset": [
            "--in", str(workspace["kg"]), "--out-dir", str(tmp_path / "data"),
            "--entities-per-class", "4",
        ],
        "train-embeddings": ["--in", str(workspace["corpus"]), "--out", str(tmp_path / "v.txt")],
    }[stage_command]
    assert run(capsys, stage_command, *stage_argv, flag, value)[::2] == (1, err)


@pytest.mark.parametrize(
    "argv,message",
    [
        # The graph has 8 entities per class: read first, 60 would be a data error.
        (["build-dataset", "--out-dir", "data", "--entities-per-class", "60",
          "--train-fraction", "1.5"], "train_fraction must be strictly between 0 and 1"),
        (["train-embeddings", "--in", "missing.txt", "--out", "v.txt", "--min-count", "0"],
         "min_count must be >= 1"),
        (["train-classifier", "--vectors", "missing.txt", "--dataset", "missing.tsv",
          "--out", "m.bin", "--epochs", "0"], "epochs must be >= 1"),
    ],
    ids=["build-dataset", "train-embeddings", "train-classifier"],
)
def test_stage_subcommand_checks_its_settings_before_its_input(
    capsys, workspace, tmp_path, monkeypatch, argv, message
):
    """A bad setting is a usage error (exit 1) even where the input would
    fail too; nothing is read or written first."""
    monkeypatch.chdir(tmp_path)
    if argv[0] == "build-dataset":
        argv = [*argv, "--in", str(workspace["kg"])]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (1, f"kgtyper: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "trainer,flag,value",
    [
        ("word2vec", "--x-max", "50"),
        ("fasttext", "--alpha", "0.5"),
        ("word2vec", "--buckets", "101"),
        ("glove", "--n-min", "2"),
        ("glove", "--n-max", "4"),
        ("glove", "--negative", "3"),
    ],
)
def test_flag_of_another_trainer_exits_one(capsys, workspace, tmp_path, trainer, flag, value):
    out_path = tmp_path / "v.txt"
    code, _, err = run(
        capsys, "train-embeddings", "--trainer", trainer,
        "--in", str(workspace["corpus"]), "--out", str(out_path),
        "--dim", "6", "--epochs", "1", flag, value,
    )
    assert code == 1
    assert flag in err and trainer in err
    assert not out_path.exists()


def test_pipeline_rejects_flag_of_another_trainer(capsys, workspace, tmp_path):
    out_dir = tmp_path / "pipeline"
    code, _, err = run(
        capsys, "pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out_dir),
        "--trainer", "glove", "--buckets", "101",
    )
    assert code == 1
    assert "--buckets" in err
    assert not out_dir.exists()


def test_trainer_flag_from_environment_stays_a_default(capsys, workspace, tmp_path, monkeypatch):
    # A shared environment may set fastText options; word2vec runs ignore them.
    monkeypatch.setenv("KGTYPER_BUCKETS", "101")
    out_path = tmp_path / "v.txt"
    code, _, _ = run(
        capsys, "train-embeddings", "--trainer", "word2vec",
        "--in", str(workspace["corpus"]), "--out", str(out_path),
        "--dim", "6", "--epochs", "1",
    )
    assert code == 0
    assert out_path.exists()


@pytest.mark.parametrize(
    "case", ["KGTYPER_TRAINER-train-embeddings", "KGTYPER_TRAINER", "KGTYPER_METHOD"]
)
def test_environment_value_outside_choices_is_usage_error(
    capsys, workspace, tmp_path, monkeypatch, case
):
    variable = case.split("-")[0]
    monkeypatch.setenv(variable, "bogus")
    out_path = tmp_path / "out"
    argv = {
        "KGTYPER_TRAINER-train-embeddings": [
            "train-embeddings", "--in", str(workspace["corpus"]), "--out", str(out_path),
            "--dim", "6", "--epochs", "1",
        ],
        "KGTYPER_TRAINER": ["pipeline", "--in", str(workspace["kg"]), "--out-dir", str(out_path)],
        "KGTYPER_METHOD": [
            "predict", "--entity", first_test_entity(workspace),
            "--vectors", str(workspace["vectors"]), "--model", str(workspace["model"]),
            "--in", str(workspace["kg"]), "--train", str(workspace["dataset_dir"] / "train.tsv"),
            "--out", str(out_path),
        ],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert variable in err
    assert not out_path.exists()


def test_model_path_from_environment_serves_predict(capsys, workspace, monkeypatch):
    monkeypatch.setenv("KGTYPER_MODEL", str(workspace["model"]))
    code, out, _ = run(
        capsys, "predict", "--method", "cnn", "--entity", first_test_entity(workspace),
        "--vectors", str(workspace["vectors"]),
    )
    assert code == 0
    assert out


def test_train_embeddings_reads_trainer_not_model_from_environment(
    capsys, workspace, tmp_path, monkeypatch
):
    """KGTYPER_MODEL names predict's model file and leaves train-embeddings
    alone; KGTYPER_TRAINER picks its trainer, as it does pipeline's."""
    monkeypatch.setenv("KGTYPER_MODEL", str(workspace["model"]))

    def vectors(name, *flags):
        out_path = tmp_path / f"{name}.txt"
        code, _, _ = run(
            capsys, "train-embeddings", "--in", str(workspace["corpus"]), "--out", str(out_path),
            "--dim", "6", "--epochs", "1", *flags,
        )
        assert code == 0, name
        return out_path.read_bytes()

    default = vectors("default")
    glove = vectors("glove", "--trainer", "glove")
    assert vectors("alias", "--model", "glove") == glove  # --model spells --trainer too
    monkeypatch.setenv("KGTYPER_TRAINER", "glove")
    assert vectors("environment") == glove != default


def test_entities_from_environment_split_on_whitespace(capsys, workspace, monkeypatch):
    entities = [line.split("\t")[0] for line in
                (workspace["dataset_dir"] / "test.tsv").read_text().splitlines()[:2]]
    monkeypatch.setenv("KGTYPER_ENTITY", "\n".join(entities))
    code, out, _ = run(
        capsys, "predict", "--method", "cnn", "--top-k", "1",
        "--vectors", str(workspace["vectors"]), "--model", str(workspace["model"]),
    )
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()] == entities


def test_environment_lists_keep_an_iri_with_a_no_break_space(monkeypatch):
    """An environment list is cut only at the whitespace an IRI cannot hold:
    U+00A0 and U+2028 stay inside their IRIs."""
    iris = ["http://ex.org/A\u00a0B", "http://ex.org/C\u2028D", "http://ex.org/E"]
    raw = f" {iris[0]} {iris[1]}\t\r\n{iris[2]}\n"
    monkeypatch.setenv("KGTYPER_ROOT", raw)
    monkeypatch.setenv("KGTYPER_ENTITY", raw)
    assert build_parser().parse_args(["ingest", "--in", "kg.nt"]).root == iris
    args = build_parser().parse_args(["predict", "--method", "cnn", "--vectors", "v.txt"])
    assert args.entity == iris


def test_empty_entity_list_from_environment_is_usage_error(capsys, workspace, monkeypatch):
    monkeypatch.setenv("KGTYPER_ENTITY", " ")
    code, out, err = run(
        capsys, "predict", "--method", "cnn",
        "--vectors", str(workspace["vectors"]), "--model", str(workspace["model"]),
    )
    assert code == 1
    assert "--entity" in err
    assert out == ""


@pytest.mark.parametrize(
    "flags,expected",
    [
        ((), ["http://a/Root", "http://b/Other"]),
        (("--root", "http://c/Flag"), ["http://c/Flag"]),
        (("--root", "http://c/Flag", "--root", "http://d/Flag"), ["http://c/Flag", "http://d/Flag"]),
    ],
)
def test_root_flags_replace_the_environment_list(monkeypatch, flags, expected):
    monkeypatch.setenv("KGTYPER_ROOT", " http://a/Root  http://b/Other ")
    assert build_parser().parse_args(["ingest", "--in", "kg.nt", *flags]).root == expected


class _Stop(Exception):
    """Raised by a stand-in stage once it has recorded its arguments."""


def test_required_flags_alone_give_the_config_defaults(monkeypatch):
    calls = {}

    def record(name):
        signature = inspect.signature(getattr(cli, name))

        def stage(*args, **kwargs):
            calls[name] = signature.bind(*args, **kwargs).arguments
            raise _Stop

        monkeypatch.setattr(cli, name, stage)

    for name in ("train_embeddings", "write_dataset", "train_cnn", "run_pipeline"):
        record(name)
    monkeypatch.setattr(cli, "read_corpus", lambda path: [])
    monkeypatch.setattr(cli, "load_graph", lambda path, strict, roots: (None, None, None))
    monkeypatch.setattr(cli, "load_embeddings", lambda path: None)
    monkeypatch.setattr(cli, "read_labels", lambda path: [])
    for argv in (
        ["train-embeddings", "--in", "corpus.txt", "--out", "vectors.txt"],
        ["build-dataset", "--in", "kg.nt", "--out-dir", "dataset"],
        ["train-classifier", "--vectors", "vectors.txt", "--dataset", "train.tsv", "--out", "m"],
        ["pipeline", "--in", "kg.nt", "--out-dir", "out"],
    ):
        with pytest.raises(_Stop):
            main(argv)

    defaults = PipelineConfig("kg.nt", "out")
    assert calls["run_pipeline"]["config"] == defaults
    embed = calls["train_embeddings"]
    assert embed["trainer"] == defaults.trainer
    assert replace(embed["embedding"], seed=TrainingConfig.seed) == TrainingConfig()
    assert embed["embedding"].min_count == defaults.embedding.min_count
    for name in ("num_classes", "entities_per_class", "train_fraction", "seed"):
        assert calls["write_dataset"][name] == getattr(defaults, name), name
    assert replace(calls["train_cnn"]["config"], seed=CnnConfig.seed) == CnnConfig()
