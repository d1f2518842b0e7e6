"""Classifier: forward oracle, gradients, training, I/O."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_gradients_close, embedding_matrix, numeric_gradient

import kgtyper
from kgtyper.cnn import CnnConfig, CnnModel, parameter_shapes, sgd_step, train_cnn
from kgtyper.errors import DataError


def hand_model(num_classes: int = 2) -> CnnModel:
    """Two filters over 5-dimensional inputs, one hidden unit, weights set by hand."""
    config = CnnConfig(filters_per_width=2, hidden_units=1)
    params = {
        "filter_w": np.array([[1.0, 0.0, -1.0, 0.0, 0.5], [0.0, 1.0, 0.0, -1.0, 0.0]]),
        "filter_b": np.array([0.0, -2.0]),
        "hidden_w": np.array([[2.0], [3.0]]),
        "hidden_b": np.array([-1.0]),
        "out_w": np.array([[1.0, -1.0]]),
        "out_b": np.array([0.5, 0.0]),
    }
    return CnnModel(config, [f"c{i}" for i in range(num_classes)], params)


def zero_model(num_classes: int, input_dim: int = 10) -> CnnModel:
    config = CnnConfig()
    shapes = parameter_shapes(config, input_dim, num_classes)
    params = {name: np.zeros(shape) for name, shape in shapes}
    return CnnModel(config, [f"c{i}" for i in range(num_classes)], params)


def test_forward_matches_hand_computation():
    # Input [5, 3, 1, 2, 4], each filter over the whole vector:
    #   filter 0: 5 - 1 + 0.5 * 4 + 0 = 6;  filter 1: 3 - 2 - 2 = -1 -> ReLU 0
    # hidden = relu(6 * 2 + 0 * 3 - 1) = 11,
    # logits = [11 * 1 + 0.5, 11 * -1 + 0] = [11.5, -11].
    model = hand_model()
    scores = model.forward(np.array([5.0, 3.0, 1.0, 2.0, 4.0]))[0]
    expected = 1.0 / (1.0 + np.exp(-np.array([11.5, -11.0])))
    assert np.allclose(scores, expected, rtol=0, atol=1e-12)


def test_predict_scores_each_row_in_class_order():
    model = hand_model()
    vector = np.array([5.0, 3.0, 1.0, 2.0, 4.0])
    scores = model.predict(np.array([vector]))
    assert model.classes == ["c0", "c1"]
    assert scores.shape == (1, 2) and scores[0, 0] > scores[0, 1]
    assert np.array_equal(scores, model.forward(vector))


def test_zero_weights_score_half_for_every_class():
    model = zero_model(num_classes=7)
    scores = model.forward(np.linspace(-1, 1, 10))
    assert np.all(scores == 0.5)


def check_gradients(model: CnnModel, inputs: np.ndarray, targets: np.ndarray) -> None:
    """Every analytic gradient entry is nonzero and matches central differences."""
    _, grads = model.loss_and_grads(inputs, targets)
    loss = lambda: model.loss_and_grads(inputs, targets)[0]
    for name, array in model.params.items():
        # A check over gradients that are zero by construction proves nothing.
        assert np.all(grads[name] != 0.0), name
        assert_gradients_close(grads[name], numeric_gradient(loss, array))


def test_gradient_check_two_classes_four_entities_dim_eight():
    config = CnnConfig(filters_per_width=2, hidden_units=2)
    rng = np.random.default_rng(7)
    model = CnnModel.initialize(config, ["a", "b"], input_dim=8, rng=rng)
    # 16 + 2 + 4 + 2 + 4 + 2 = 30 parameters in total.
    assert sum(a.size for a in model.params.values()) <= 50
    inputs = rng.normal(0.0, 1.0, size=(4, 8))
    targets = np.zeros((4, 2))
    targets[[0, 1, 2, 3], [0, 1, 1, 0]] = 1.0
    check_gradients(model, inputs, targets)


FAULT_PROBE = """
import json, resource
import numpy as np
from kgtyper.cnn import CnnConfig, CnnModel, sgd_step
config = CnnConfig()
rng = np.random.default_rng(1)
model = CnnModel.initialize(config, [f"c{i}" for i in range(10)], 100, rng)
inputs = rng.normal(0.0, 1.0, size=(400, 100))
inputs = (inputs - inputs.mean(axis=0)) / inputs.std(axis=0)  # as train_cnn steps on them
targets = np.zeros((400, 10))
targets[np.arange(400), rng.integers(0, 10, 400)] = 1.0
for step in range(120):  # the loop of train_cnn
    if step == 20:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    batch = rng.permutation(400)[: config.batch_size]
    loss, grads = model.loss_and_grads(inputs[batch], targets[batch])
    sgd_step(model.params, grads, config.learning_rate)
    del grads  # the gradients are freed each step, as a caller may do
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"faults_per_step": (after - before) / 100}))
"""


def test_sgd_step_equals_scaled_subtraction():
    """Scaling the gradient in place gives ``array -= lr * grad`` bit for bit."""
    rng = np.random.default_rng(4)
    config = CnnConfig(filters_per_width=4, hidden_units=5)
    model = CnnModel.initialize(config, ["a", "b", "c"], 8, rng)
    inputs = rng.normal(0.0, 1.0, size=(6, 8))
    targets = np.eye(3)[[0, 1, 2, 2, 1, 0]]
    _, grads = model.loss_and_grads(inputs, targets)
    expected = [array - 0.37 * grads[name] for name, array in model.params.items()]
    sgd_step(model.params, grads, 0.37)
    for (name, array), want in zip(model.params.items(), expected):
        assert np.array_equal(array, want), name


def test_training_step_does_not_page_fault_per_step():
    """The default step reads 0 faults even though the probe frees its
    gradients: its largest array, the 128,000-byte ``hidden_w`` gradient, is
    served from the heap. A step whose arrays are mapped afresh each time
    fails the gate (1,000 hidden units read about 680 faults per step)."""
    env = dict(os.environ, PYTHONPATH=str(Path(kgtyper.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["faults_per_step"] < 300, probe


def separable_fixture(per_class: int = 10, dim: int = 12, seed: int = 0):
    """Two tight clusters far apart: linearly separable by construction."""
    rng = np.random.default_rng(seed)
    examples = []
    vectors = {}
    for class_id, center in enumerate((-3.0, 3.0)):
        for k in range(per_class):
            entity = f"e{class_id}_{k}"
            vectors[entity] = center + rng.normal(0.0, 0.3, size=dim)
            examples.append((entity, f"class{class_id}"))
    return examples, embedding_matrix(vectors)


def test_separable_fixture_reaches_full_training_accuracy_within_200_epochs():
    examples, vectors = separable_fixture()
    config = CnnConfig(
        filters_per_width=8,
        hidden_units=16,
        batch_size=4,
        epochs=200,
        learning_rate=0.5,
        seed=1,
    )
    model = train_cnn(examples, vectors, config)
    entities = [entity for entity, _ in examples]
    scores = model.predict([vectors.vector_of(entity) for entity in entities])
    correct = sum(
        model.classes[best] == gold for best, (_, gold) in zip(scores.argmax(axis=1), examples)
    )
    assert correct == len(examples)
    assert model.epoch_losses[-1] < model.epoch_losses[0]


def test_trained_model_scores_raw_vectors_as_its_steps_scored_standardized_ones(monkeypatch):
    """The standardization is folded into the filter bank: the trained model
    scores raw vectors as the float32 stepping model, widened to float64,
    scores the standardized ones. A scale folded along the filter axis, or a
    shift of the wrong sign, fails this."""
    trainees = []
    loss_and_grads = CnnModel.loss_and_grads

    def recording_loss_and_grads(model, inputs, targets):
        trainees.append(model)
        return loss_and_grads(model, inputs, targets)

    monkeypatch.setattr(CnnModel, "loss_and_grads", recording_loss_and_grads)
    examples, vectors = separable_fixture()
    config = CnnConfig(filters_per_width=4, hidden_units=8, epochs=5, seed=1)
    model = train_cnn(examples, vectors, config)
    trainee = trainees[0]
    assert all(step_model is trainee for step_model in trainees)
    widened = CnnModel(config, trainee.classes,
                       {name: a.astype(np.float64) for name, a in trainee.params.items()})
    raw = np.array([vectors.vector_of(entity) for entity, _ in examples])
    standardized = (raw - raw.mean(axis=0)) / np.maximum(raw.std(axis=0), 1e-8)
    assert np.allclose(model.predict(raw), widened.forward(standardized), rtol=1e-12, atol=0)


def test_same_seed_trains_identically():
    examples, vectors = separable_fixture()
    config = CnnConfig(filters_per_width=4, hidden_units=8, epochs=10, seed=3)
    first = train_cnn(examples, vectors, config)
    second = train_cnn(examples, vectors, config)
    for (name, a), (_, b) in zip(first.params.items(), second.params.items()):
        assert np.array_equal(a, b), name
    assert first.epoch_losses == second.epoch_losses


def test_training_steps_are_float32_but_parameters_are_float64(monkeypatch):
    """Each step sees float32 inputs, targets, parameters and rate; the trained
    model holds their float64 widening, the standardization folded in float64."""
    seen = set()
    loss_and_grads, step = CnnModel.loss_and_grads, kgtyper.cnn.sgd_step

    def recording_loss_and_grads(model, inputs, targets):
        seen.update({inputs.dtype, targets.dtype, *(a.dtype for a in model.params.values())})
        return loss_and_grads(model, inputs, targets)

    def recording_step(params, grads, learning_rate):
        seen.update({np.asarray(learning_rate).dtype, *(g.dtype for g in grads.values())})
        step(params, grads, learning_rate)

    monkeypatch.setattr(CnnModel, "loss_and_grads", recording_loss_and_grads)
    monkeypatch.setattr(kgtyper.cnn, "sgd_step", recording_step)
    examples, vectors = separable_fixture()
    model = train_cnn(examples, vectors, CnnConfig(filters_per_width=4, hidden_units=8, epochs=2))
    assert seen == {np.dtype(np.float32)}
    for name, array in model.params.items():
        assert array.dtype == np.float64, name


def test_entities_without_vectors_are_left_out_with_their_labels():
    examples, vectors = separable_fixture()
    # Unknown entities of either class, between the known ones, must drop out
    # together with their labels: the model equals one trained without them.
    padded = []
    for k, example in enumerate(examples):
        padded.append(example)
        if k % 3 == 0:
            padded.append((f"missing{k}", f"class{k % 2}"))
    config = CnnConfig(filters_per_width=4, hidden_units=8, epochs=3, seed=3)
    expected = train_cnn(examples, vectors, config)
    actual = train_cnn(padded, vectors, config)
    for name, value in expected.params.items():
        assert np.array_equal(actual.params[name], value), name
    assert actual.epoch_losses == expected.epoch_losses


def test_different_seeds_train_differently():
    examples, vectors = separable_fixture()
    config = CnnConfig(filters_per_width=4, hidden_units=8, epochs=2, seed=1)
    other = CnnConfig(filters_per_width=4, hidden_units=8, epochs=2, seed=2)
    first = train_cnn(examples, vectors, config)
    second = train_cnn(examples, vectors, other)
    assert not np.array_equal(first.params["hidden_w"], second.params["hidden_w"])


def test_save_load_round_trip(tmp_path):
    examples, vectors = separable_fixture()
    config = CnnConfig(filters_per_width=4, hidden_units=8, epochs=3, seed=1)
    model = train_cnn(examples, vectors, config)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = CnnModel.load(path)

    assert loaded.classes == model.classes
    assert loaded.config == model.config
    for (name, a), (_, b) in zip(model.params.items(), loaded.params.items()):
        assert np.array_equal(a, b), name

    entities = [entity for entity, _ in examples]
    rows = np.array([vectors.vector_of(entity) for entity in entities])
    assert np.array_equal(model.predict(rows), loaded.predict(rows))


def test_model_file_bytes_are_pinned(tmp_path):
    """The exact bytes of a model file: the parameter order, the Glorot draws
    and the file layout each change them. Measured with numpy 2.4.6."""
    rng = np.random.default_rng(7)
    config = CnnConfig(filters_per_width=4, hidden_units=5, epochs=3, learning_rate=0.25, seed=7)
    model = CnnModel.initialize(config, ["b", "a", "c"], 8, rng)
    assert [(name, a.shape) for name, a in model.params.items()] == parameter_shapes(config, 8, 3)
    path = tmp_path / "model.bin"
    model.save(path)
    data = path.read_bytes()
    assert len(data) == 1064
    digest = "0dcbe80a580d61629c58fc450b4a73b3d8ce5f8c7c73151bb3fe5560d6cf0ee1"
    assert hashlib.sha256(data).hexdigest() == digest


def test_load_names_the_version_of_a_windowed_conv_file(tmp_path):
    """A version 1 file (kernel widths 3/4/6) is refused for its version, not
    as a corrupt header, so the message says what made it."""
    config = {"kernel_widths": [3, 4, 6], "filters_per_width": 1, "hidden_units": 1,
              "batch_size": 32, "epochs": 1, "learning_rate": 0.01, "seed": 1}
    header = {"format_version": 1, "config": config, "classes": ["a", "b"],
              "arrays": [{"name": "conv_w_3", "shape": [1, 3]}]}
    path = tmp_path / "model.bin"
    path.write_bytes(b"KGTYPER-CNN:v1\n" + json.dumps(header).encode() + b"\n" + bytes(24))
    with pytest.raises(DataError, match="unsupported model format version 1"):
        CnnModel.load(path)


def test_load_reads_arrays_in_the_shapes_of_the_config(tmp_path):
    """Shape entries written as floats equal to the config's shapes load the
    same arrays: the blobs are read in ``parameter_shapes``, never in the
    header's numbers."""
    model = hand_model()
    path = tmp_path / "model.bin"
    model.save(path)
    magic, header, blobs = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    for spec in header["arrays"]:
        spec["shape"] = [float(n) for n in spec["shape"]]
    path.write_bytes(b"\n".join([magic, json.dumps(header).encode("utf-8"), blobs]))
    loaded = CnnModel.load(path)
    for name, array in model.params.items():
        assert np.array_equal(loaded.params[name], array), name
        assert loaded.params[name].shape == array.shape, name


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_model.bin"
    path.write_bytes(b"something else entirely\n")
    with pytest.raises(DataError):
        CnnModel.load(path)


def test_load_rejects_truncated_file(tmp_path):
    examples, vectors = separable_fixture()
    config = CnnConfig(filters_per_width=4, hidden_units=8, epochs=1, seed=1)
    model = train_cnn(examples, vectors, config)
    path = tmp_path / "model.bin"
    model.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    with pytest.raises(DataError):
        CnnModel.load(path)


def test_empty_training_split_rejected():
    with pytest.raises(DataError):
        train_cnn([], embedding_matrix({}), CnnConfig())


def test_single_class_rejected():
    vectors = embedding_matrix({"a": np.ones(10), "b": np.ones(10)})
    with pytest.raises(DataError):
        train_cnn([("a", "only"), ("b", "only")], vectors, CnnConfig())


def test_no_vectors_at_all_rejected():
    with pytest.raises(DataError):
        train_cnn([("a", "x"), ("b", "y")], embedding_matrix({}), CnnConfig())


def test_entities_without_vectors_are_skipped_and_counted():
    examples, vectors = separable_fixture(per_class=5)
    examples.append(("ghost", "class0"))
    config = CnnConfig(filters_per_width=2, hidden_units=4, epochs=1, seed=1)
    model = train_cnn(examples, vectors, config)
    assert model.skipped_examples == 1


def test_forward_rejects_wrong_input_dimension():
    model = zero_model(num_classes=2, input_dim=10)
    for dim in (4, 11):
        with pytest.raises(DataError, match=f"{dim}-dimensional vectors given to a classifier "
                                            "of 10-dimensional vectors"):
            model.forward(np.ones(dim))
    assert model.forward(np.ones(10)).shape == (1, 2)


@pytest.mark.parametrize(
    "bad",
    [
        dict(filters_per_width=0),
        dict(hidden_units=0),
        dict(batch_size=0),
        dict(epochs=0),
        dict(epochs=-1),
        dict(learning_rate=0.0),
        dict(learning_rate=-0.01),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
    ],
)
def test_invalid_config_rejected(bad):
    with pytest.raises(ValueError):
        CnnConfig(**bad)


def test_config_cannot_be_made_invalid_once_built():
    config = CnnConfig()
    with pytest.raises(FrozenInstanceError):
        config.learning_rate = float("nan")
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
        replace(config, learning_rate=float("nan"))
    assert config == CnnConfig()
