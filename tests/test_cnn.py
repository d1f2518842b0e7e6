"""Convolutional classifier: forward oracle, gradients, training, I/O."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import FixedVectors, assert_gradients_close
from numpy.lib.stride_tricks import sliding_window_view

import kgtyper
from kgtyper.cnn import CnnConfig, CnnModel, parameter_shapes, sgd_step, train_cnn
from kgtyper.errors import DataError


def hand_model(num_classes: int = 2) -> CnnModel:
    """Single width-3 filter, one hidden unit, weights set by hand."""
    config = CnnConfig(kernel_widths=(3,), filters_per_width=1, hidden_units=1)
    params = {
        "conv_w_3": np.array([[1.0, 0.0, -1.0]]),
        "conv_b_3": np.array([0.0]),
        "hidden_w": np.array([[2.0]]),
        "hidden_b": np.array([-1.0]),
        "out_w": np.array([[1.0, -1.0]]),
        "out_b": np.array([0.5, 0.0]),
    }
    return CnnModel(config, [f"c{i}" for i in range(num_classes)], params)


def zero_model(num_classes: int, input_dim: int = 10) -> CnnModel:
    config = CnnConfig()
    config.validate(input_dim)
    params = {name: np.zeros(shape) for name, shape in parameter_shapes(config, num_classes)}
    return CnnModel(config, [f"c{i}" for i in range(num_classes)], params)


def test_forward_matches_hand_computation():
    # Input [5, 3, 1, 2, 4], valid windows of width 3:
    #   [5,3,1] -> 5 - 1 = 4;  [3,1,2] -> 1;  [1,2,4] -> -3 -> ReLU 0
    # max pool = 4, hidden = relu(4 * 2 - 1) = 7,
    # logits = [7 * 1 + 0.5, 7 * -1 + 0] = [7.5, -7].
    model = hand_model()
    scores = model.forward(np.array([5.0, 3.0, 1.0, 2.0, 4.0]))[0]
    expected = 1.0 / (1.0 + np.exp(-np.array([7.5, -7.0])))
    assert np.allclose(scores, expected, rtol=0, atol=1e-12)


def test_predict_ranks_classes_by_score():
    model = hand_model()
    prediction = model.predict("e", np.array([5.0, 3.0, 1.0, 2.0, 4.0]))
    assert prediction.entity == "e"
    assert prediction.ranking == ["c0", "c1"]
    assert prediction.scores["c0"] > prediction.scores["c1"]


def test_zero_weights_score_half_for_every_class():
    model = zero_model(num_classes=7)
    scores = model.forward(np.linspace(-1, 1, 10))
    assert np.all(scores == 0.5)


def test_default_config_pools_384_features():
    assert CnnConfig().pooled_features == 384


def test_gradient_check_two_classes_four_entities_dim_eight():
    # Two widths exercise the per-width slices of the pooled features.
    config = CnnConfig(kernel_widths=(3, 4), filters_per_width=2, hidden_units=2)
    rng = np.random.default_rng(7)
    model = CnnModel.initialize(config, ["a", "b"], input_dim=8, rng=rng)
    # 14 + 4 + 8 + 2 + 4 + 2 = 34 parameters in total.
    assert sum(a.size for a in model.params.values()) <= 50

    inputs = rng.normal(0.0, 1.0, size=(4, 8))
    targets = np.zeros((4, 2))
    targets[[0, 1, 2, 3], [0, 1, 1, 0]] = 1.0

    _, grads = model.loss_and_grads(inputs, targets)
    # On seed 7 every unit is alive: a check over zero gradients proves nothing.
    for name, grad in grads.items():
        assert np.all(grad != 0.0), name

    eps = 1e-6
    for name, array in model.params.items():
        numeric = np.zeros_like(array)
        iterator = np.nditer(array, flags=["multi_index"])
        for _ in iterator:
            index = iterator.multi_index
            saved = array[index]
            array[index] = saved + eps
            plus = model.loss_and_grads(inputs, targets)[0]
            array[index] = saved - eps
            minus = model.loss_and_grads(inputs, targets)[0]
            array[index] = saved
            numeric[index] = (plus - minus) / (2 * eps)
        assert_gradients_close(grads[name], numeric)


def test_gradient_check_with_conditioning_active():
    config = CnnConfig(kernel_widths=(3,), filters_per_width=2, hidden_units=2)
    rng = np.random.default_rng(12)
    model = CnnModel.initialize(config, ["a", "b"], input_dim=8, rng=rng)
    inputs = rng.normal(0.0, 0.1, size=(4, 8))
    model.fit_conditioning(inputs)
    targets = np.zeros((4, 2))
    targets[[0, 1, 2, 3], [0, 0, 1, 1]] = 1.0

    _, grads = model.loss_and_grads(inputs, targets)
    eps = 1e-6
    for name, array in model.params.items():
        numeric = np.zeros_like(array)
        iterator = np.nditer(array, flags=["multi_index"])
        for _ in iterator:
            index = iterator.multi_index
            saved = array[index]
            array[index] = saved + eps
            plus = model.loss_and_grads(inputs, targets)[0]
            array[index] = saved - eps
            minus = model.loss_and_grads(inputs, targets)[0]
            array[index] = saved
            numeric[index] = (plus - minus) / (2 * eps)
        assert_gradients_close(grads[name], numeric)


def dense_conv_reference(model: CnnModel, inputs: np.ndarray, targets: np.ndarray):
    """Loss and gradients with the conv layer as a dense (N, P, F)
    ReLU-then-pool forward and a dense scatter backward."""
    x, filters, p = model.condition(inputs), model.config.filters_per_width, model.params
    parts, dense = [], {}
    for w in model.config.kernel_widths:
        windows = sliding_window_view(x, w, axis=1)  # (N, P, w)
        act = np.maximum(windows @ p[f"conv_w_{w}"].T + p[f"conv_b_{w}"], 0.0)  # (N, P, F)
        argmax = act.argmax(axis=1)
        parts.append(np.take_along_axis(act, argmax[:, None, :], axis=1)[:, 0, :])
        dense[w] = (windows, act, argmax)
    features = np.concatenate(parts, axis=1)
    hidden_pre = features @ p["hidden_w"] + p["hidden_b"]
    hidden = np.maximum(hidden_pre, 0.0)
    logits = hidden @ p["out_w"] + p["out_b"]
    loss = float(
        (targets * np.logaddexp(0.0, -logits) + (1.0 - targets) * np.logaddexp(0.0, logits)).mean()
    )
    d_logits = (1.0 / (1.0 + np.exp(-logits)) - targets) / targets.size
    d_hidden_pre = (d_logits @ p["out_w"].T) * (hidden_pre > 0.0)
    grads = {"out_w": hidden.T @ d_logits, "out_b": d_logits.sum(axis=0)}
    grads.update(hidden_w=features.T @ d_hidden_pre, hidden_b=d_hidden_pre.sum(axis=0))
    d_features = d_hidden_pre @ p["hidden_w"].T
    for k, w in enumerate(model.config.kernel_widths):
        windows, act, argmax = dense[w]
        d_act = np.zeros_like(act)
        d_pool = d_features[:, k * filters : (k + 1) * filters]
        np.put_along_axis(d_act, argmax[:, None, :], d_pool[:, None, :], axis=1)
        d_pre = d_act * (act > 0.0)
        grads[f"conv_w_{w}"] = np.einsum("npf,npw->fw", d_pre, windows)
        grads[f"conv_b_{w}"] = d_pre.sum(axis=(0, 1))
    return loss, grads


def test_gathered_conv_step_equals_dense_reference():
    config = CnnConfig()
    rng = np.random.default_rng(3)
    model = CnnModel.initialize(config, [f"c{i}" for i in range(10)], input_dim=100, rng=rng)
    p = model.params
    for w in config.kernel_widths:
        p[f"conv_b_{w}"][:] = rng.normal(0.0, 1.0, config.filters_per_width)
    inputs = rng.normal(0.0, 1.0, size=(config.batch_size, 100))
    inputs[1] *= 1e-3  # pre-activations ~ bias: filters with a negative bias stay <= 0
    inputs[2] = 0.5  # constant row: every window of a filter ties
    # Distinct windows 0 and 1 tie at the max of filter 0 (x0 - x2): the first must win.
    p["conv_w_3"][0] = [1.0, 0.0, -1.0]
    inputs[3] = 0.0
    inputs[3, :4] = [3.0, 2.0, 0.0, -1.0]
    targets = np.zeros((config.batch_size, 10))
    targets[np.arange(config.batch_size), rng.integers(0, 10, config.batch_size)] = 1.0
    all_negative = [
        (sliding_window_view(inputs[1], w) @ p[f"conv_w_{w}"].T + p[f"conv_b_{w}"]).max(axis=0) < 0
        for w in config.kernel_widths
    ]
    assert all(mask.any() and not mask.all() for mask in all_negative)

    # One model runs batches across the conv block size (8) in turn, so every
    # result is checked after later calls reused the scratch: blocks that end
    # mid-batch, a lone example, and a batch smaller than the last one.
    batches = [(inputs, targets)]
    for size in (9, 1, 16, 32):
        rows = rng.integers(0, config.batch_size, size)
        batches.append((inputs[rows] + rng.normal(0.0, 0.1, (size, 100)), targets[rows]))
    results = [model.loss_and_grads(x, y) for x, y in batches]
    for (x, y), (loss, grads) in zip(batches, results):
        ref_loss, ref_grads = dense_conv_reference(model, x, y)
        # Each element is summed in the same order on both paths: equal, not close.
        assert loss == ref_loss, len(x)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert np.array_equal(grad, ref_grads[name]), (len(x), name)
            assert np.any(grad != 0.0), (len(x), name)


FAULT_PROBE = """
import json, resource
import numpy as np
from kgtyper.cnn import CnnConfig, CnnModel, sgd_step
config = CnnConfig()
rng = np.random.default_rng(1)
model = CnnModel.initialize(config, [f"c{i}" for i in range(10)], 100, rng)
inputs = rng.normal(0.0, 1.0, size=(400, 100))
model.fit_conditioning(inputs)
targets = np.zeros((400, 10))
targets[np.arange(400), rng.integers(0, 10, 400)] = 1.0
for step in range(120):  # the loop of train_cnn
    if step == 20:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    batch = rng.permutation(400)[: config.batch_size]
    loss, grads = model.loss_and_grads(inputs[batch], targets[batch])
    sgd_step(model.params, grads, config.learning_rate)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"faults_per_step": (after - before) / 100}))
"""


def test_sgd_step_equals_scaled_subtraction():
    """Scaling the gradient in place gives ``array -= lr * grad`` bit for bit."""
    rng = np.random.default_rng(4)
    config = CnnConfig(kernel_widths=(2, 3), filters_per_width=4, hidden_units=5)
    model = CnnModel.initialize(config, ["a", "b", "c"], 8, rng)
    inputs = rng.normal(0.0, 1.0, size=(6, 8))
    targets = np.eye(3)[[0, 1, 2, 2, 1, 0]]
    _, grads = model.loss_and_grads(inputs, targets)
    expected = [array - 0.37 * grads[name] for name, array in model.params.items()]
    sgd_step(model.params, grads, 0.37)
    for (name, array), want in zip(model.params.items(), expected):
        assert np.array_equal(array, want), name


def test_training_step_does_not_page_fault_per_step():
    """A step that allocates fresh (N, F, P) pre-activations takes about
    1,400 minor faults; one that reuses its memory takes few."""
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
    return examples, FixedVectors(vectors)


def test_separable_fixture_reaches_full_training_accuracy_within_200_epochs():
    examples, vectors = separable_fixture()
    config = CnnConfig(
        kernel_widths=(3,),
        filters_per_width=8,
        hidden_units=16,
        batch_size=4,
        epochs=200,
        learning_rate=0.5,
        seed=1,
    )
    model = train_cnn(examples, vectors, config)
    correct = sum(
        model.predict(entity, vectors.vector_of(entity)).top == gold
        for entity, gold in examples
    )
    assert correct == len(examples)
    assert model.epoch_losses[-1] < model.epoch_losses[0]


def test_training_fits_input_conditioning():
    examples, vectors = separable_fixture()
    config = CnnConfig(
        kernel_widths=(3,), filters_per_width=4, hidden_units=8, epochs=5, seed=1
    )
    model = train_cnn(examples, vectors, config)
    assert model.feature_shift is not None
    assert model.feature_shift.shape == (12,)
    assert np.all(model.feature_scale > 0)


def test_same_seed_trains_identically():
    examples, vectors = separable_fixture()
    config = CnnConfig(kernel_widths=(3,), filters_per_width=4, hidden_units=8, epochs=10, seed=3)
    first = train_cnn(examples, vectors, config)
    second = train_cnn(examples, vectors, config)
    for (name, a), (_, b) in zip(first.params.items(), second.params.items()):
        assert np.array_equal(a, b), name
    assert first.epoch_losses == second.epoch_losses


def test_different_seeds_train_differently():
    examples, vectors = separable_fixture()
    config = CnnConfig(kernel_widths=(3,), filters_per_width=4, hidden_units=8, epochs=2, seed=1)
    other = CnnConfig(kernel_widths=(3,), filters_per_width=4, hidden_units=8, epochs=2, seed=2)
    first = train_cnn(examples, vectors, config)
    second = train_cnn(examples, vectors, other)
    assert not np.array_equal(first.params["hidden_w"], second.params["hidden_w"])


def test_save_load_round_trip(tmp_path):
    examples, vectors = separable_fixture()
    config = CnnConfig(kernel_widths=(3, 4), filters_per_width=4, hidden_units=8, epochs=3, seed=1)
    model = train_cnn(examples, vectors, config)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = CnnModel.load(path)

    assert loaded.classes == model.classes
    assert loaded.config == model.config
    for (name, a), (_, b) in zip(model.params.items(), loaded.params.items()):
        assert np.array_equal(a, b), name
    assert np.array_equal(loaded.feature_shift, model.feature_shift)
    assert np.array_equal(loaded.feature_scale, model.feature_scale)

    entity = examples[0][0]
    vector = vectors.vector_of(entity)
    assert model.predict(entity, vector).scores == loaded.predict(entity, vector).scores


def test_hand_built_model_round_trips_without_conditioning(tmp_path):
    model = hand_model()
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = CnnModel.load(path)
    assert loaded.feature_shift is None
    x = np.array([5.0, 3.0, 1.0, 2.0, 4.0])
    assert np.array_equal(model.forward(x), loaded.forward(x))


def test_model_file_bytes_are_pinned(tmp_path):
    """The exact bytes of a model file: the parameter order, the Glorot draws
    and the file layout each change them. Measured with numpy 2.4.6."""
    rng = np.random.default_rng(7)
    config = CnnConfig(
        kernel_widths=(2, 3), filters_per_width=4, hidden_units=5, epochs=3, learning_rate=0.25,
        seed=7,
    )
    model = CnnModel.initialize(config, ["b", "a", "c"], 8, rng)
    model.fit_conditioning(rng.normal(size=(6, 8)))
    assert [(name, a.shape) for name, a in model.params.items()] == parameter_shapes(config, 3)
    path = tmp_path / "model.bin"
    model.save(path)
    data = path.read_bytes()
    assert len(data) == 1454
    digest = "21c5c08fa1ffba9606b4222eaaa95d6eb9f44fe372a81cf50d465b91eb38621c"
    assert hashlib.sha256(data).hexdigest() == digest


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_model.bin"
    path.write_bytes(b"something else entirely\n")
    with pytest.raises(DataError):
        CnnModel.load(path)


def test_load_rejects_truncated_file(tmp_path):
    examples, vectors = separable_fixture()
    config = CnnConfig(kernel_widths=(3,), filters_per_width=4, hidden_units=8, epochs=1, seed=1)
    model = train_cnn(examples, vectors, config)
    path = tmp_path / "model.bin"
    model.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    with pytest.raises(DataError):
        CnnModel.load(path)


def test_empty_training_split_rejected():
    with pytest.raises(DataError):
        train_cnn([], FixedVectors({}), CnnConfig())


def test_single_class_rejected():
    vectors = FixedVectors({"a": np.ones(10), "b": np.ones(10)})
    with pytest.raises(DataError):
        train_cnn([("a", "only"), ("b", "only")], vectors, CnnConfig())


def test_no_vectors_at_all_rejected():
    with pytest.raises(DataError):
        train_cnn([("a", "x"), ("b", "y")], FixedVectors({}), CnnConfig())


def test_entities_without_vectors_are_skipped_and_counted():
    examples, vectors = separable_fixture(per_class=5)
    examples.append(("ghost", "class0"))
    config = CnnConfig(kernel_widths=(3,), filters_per_width=2, hidden_units=4, epochs=1, seed=1)
    model = train_cnn(examples, vectors, config)
    assert model.skipped_examples == 1


def test_kernel_wider_than_input_rejected():
    vectors = FixedVectors({"a": np.ones(4), "b": np.zeros(4)})
    with pytest.raises(ValueError):
        train_cnn([("a", "x"), ("b", "y")], vectors, CnnConfig())  # width 6 > dim 4


def test_forward_rejects_short_input():
    model = zero_model(num_classes=2, input_dim=10)
    with pytest.raises(DataError):
        model.forward(np.ones(4))


@pytest.mark.parametrize(
    "bad",
    [
        CnnConfig(kernel_widths=()),
        CnnConfig(kernel_widths=(0,)),
        CnnConfig(filters_per_width=0),
        CnnConfig(hidden_units=0),
        CnnConfig(batch_size=0),
        CnnConfig(epochs=0),
        CnnConfig(learning_rate=0.0),
        CnnConfig(learning_rate=float("nan")),
        CnnConfig(learning_rate=float("inf")),
    ],
)
def test_invalid_config_rejected(bad):
    with pytest.raises(ValueError):
        bad.validate(100)


def test_max_pool_takes_first_index_on_ties():
    # Constant input makes every window activation identical; training
    # still routes gradients deterministically through the first window.
    model = hand_model()
    scores_flat = model.forward(np.full(5, 2.0))[0]
    # All windows give 2 - 2 = 0 -> pooled 0 -> hidden relu(-1) = 0.
    expected = 1.0 / (1.0 + np.exp(-np.array([0.5, 0.0])))
    assert np.allclose(scores_flat, expected)
