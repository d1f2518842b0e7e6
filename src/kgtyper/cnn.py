"""1D convolutional multi-label classifier over entity vectors.

The entity's embedding is the input sequence itself: one channel of
length ``dimension``, convolved with a bank of filters per kernel width
(valid padding, global max pool, ReLU), concatenated, passed through one
fully connected ReLU layer and a sigmoid output layer. Targets are
one-hot over the fine-grained classes and the loss is the mean per-class
binary cross-entropy; evaluation takes the argmax.

Raw embedding coordinates are small (roughly 0.1 in magnitude), which
leaves the initial logits so close to zero that gradient steps stall in
the all-classes-at-base-rate regime. The trainer therefore standardizes
each input coordinate on the training set and records the shift and
scale on the model, so prediction applies the same conditioning;
hand-constructed models default to the identity.

``parameter_shapes`` is the one list of trainable arrays: their names,
shapes and order. The model holds them in one dict, ``params``, and
initialisation, SGD, the gradient checks and the model file all follow it.

Backpropagation is hand-rolled in numpy so the analytic gradients can be
validated against central finite differences. Conv pre-activations are laid
out (N, F, P), so the max pool's argmax runs over the contiguous last axis.
The ReLU follows the pool, which is exact as ReLU is monotone (a filter with
every window <= 0 pools to 0 with zero gradient either way), so the backward
pass gathers only the argmax window of each (n, f), as an (N, F, w) array.

The (N, F, P) pre-activations are never held whole. The model keeps one flat
scratch array, sized for a block of at most 8 examples at the widest P, and
each width fills a (k, F, P) view of it block by block with
``np.matmul(..., out=)``, adds the bias, takes the argmax and writes the
pooled values into its columns of the (N, pooled_features) feature array.
The block stays in L2, and no step allocates (and page-faults in) a fresh
multi-megabyte array. The forward cache holds only fresh arrays and views of
the inputs, never of the scratch. Each example's pre-activations come from
the same matmul as over the whole batch, so every output is bit for bit that
of the unblocked forward.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NumericalError
from .prediction import Prediction

logger = logging.getLogger(__name__)

_MAGIC = b"KGTYPER-CNN:v1\n"
_FORMAT_VERSION = 1

# Examples per conv block: the block's (8, F, P) pre-activations, 0.8 MB at
# the default 128 filters and 98 positions, stay in L2 between the matmul,
# the bias add and the argmax.
_CONV_BLOCK = 8


@dataclass
class CnnConfig:
    """Architecture and training settings of the classifier."""

    kernel_widths: tuple[int, ...] = (3, 4, 6)
    filters_per_width: int = 128
    hidden_units: int = 125
    batch_size: int = 32
    epochs: int = 1000
    learning_rate: float = 0.01
    seed: int = 1

    def validate(self, input_dim: int | None = None) -> None:
        if not self.kernel_widths:
            raise ValueError("need at least one kernel width")
        if min(self.kernel_widths) < 1:
            raise ValueError("kernel widths must be >= 1")
        if input_dim is not None and max(self.kernel_widths) > input_dim:
            raise ValueError(
                f"kernel width {max(self.kernel_widths)} exceeds input length {input_dim}"
            )
        for name in ("filters_per_width", "hidden_units", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")

    @property
    def pooled_features(self) -> int:
        return len(self.kernel_widths) * self.filters_per_width


def parameter_shapes(config: CnnConfig, num_classes: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable array, in the model's fixed order."""
    filters = config.filters_per_width
    shapes = []
    for w in config.kernel_widths:
        shapes += [(f"conv_w_{w}", (filters, w)), (f"conv_b_{w}", (filters,))]
    return shapes + [
        ("hidden_w", (config.pooled_features, config.hidden_units)),
        ("hidden_b", (config.hidden_units,)),
        ("out_w", (config.hidden_units, num_classes)),
        ("out_b", (num_classes,)),
    ]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _bce_mean(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean per-class binary cross-entropy, computed from logits."""
    per_element = targets * np.logaddexp(0.0, -logits) + (1.0 - targets) * np.logaddexp(
        0.0, logits
    )
    return float(per_element.mean())


class CnnModel:
    """Parameters of the classifier plus the class <-> output-position map."""

    def __init__(self, config: CnnConfig, classes: list[str], params: dict[str, np.ndarray]):
        self.config = config
        self.classes = list(classes)
        self.class_index = {c: i for i, c in enumerate(self.classes)}
        if len(self.class_index) != len(self.classes):
            raise DataError("duplicate class in class index")
        self.params = params  # named as in parameter_shapes, in its order
        # Optional input conditioning fitted on the training set: inputs
        # are shifted and scaled per coordinate before the first
        # convolution. None means identity (hand-built models).
        self.feature_shift: np.ndarray | None = None
        self.feature_scale: np.ndarray | None = None
        self.epoch_losses: list[float] = []
        self.skipped_examples = 0
        # Conv pre-activations of one block of examples; reused by every
        # forward (so one model must not run forwards on two threads at
        # once), never saved, and never referenced by a forward's cache.
        self._scratch = np.empty(0)

    @classmethod
    def initialize(
        cls, config: CnnConfig, classes: list[str], input_dim: int, rng: np.random.Generator
    ) -> "CnnModel":
        """Glorot-uniform weights (bound sqrt(6 / (fan_in + fan_out))), zero
        biases, classes in sorted order."""
        config.validate(input_dim)
        classes = sorted(classes)
        params = {}
        for name, shape in parameter_shapes(config, len(classes)):
            if len(shape) == 2:
                bound = np.sqrt(6.0 / sum(shape))
                params[name] = rng.uniform(-bound, bound, size=shape)
            else:
                params[name] = np.zeros(shape)
        return cls(config, classes, params)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def condition(self, inputs: np.ndarray) -> np.ndarray:
        """Apply the fitted per-coordinate shift and scale, if any."""
        if self.feature_shift is None:
            return inputs
        return (inputs - self.feature_shift) * self.feature_scale

    def fit_conditioning(self, inputs: np.ndarray) -> None:
        """Standardize each input coordinate to zero mean and unit spread,
        measured on the given training design matrix."""
        self.feature_shift = inputs.mean(axis=0)
        self.feature_scale = 1.0 / np.maximum(inputs.std(axis=0), 1e-8)

    def _conv_pool(self, w: int, windows: np.ndarray, pooled: np.ndarray) -> np.ndarray:
        """Write the max-pooled pre-activations (N, F) of width ``w`` into
        ``pooled`` and return their argmax, ``_CONV_BLOCK`` examples at a
        time in the scratch array."""
        n, positions = windows.shape[:2]
        filters = self.config.filters_per_width
        argmax = np.empty((n, filters), dtype=np.intp)
        for start in range(0, n, _CONV_BLOCK):
            stop = min(start + _CONV_BLOCK, n)
            pre = self._scratch[: (stop - start) * filters * positions]
            pre = pre.reshape(stop - start, filters, positions)
            np.matmul(self.params[f"conv_w_{w}"], windows[start:stop].transpose(0, 2, 1), out=pre)
            pre += self.params[f"conv_b_{w}"][:, None]
            pre.argmax(axis=2, out=argmax[start:stop])  # first index wins ties
            picked = np.take_along_axis(pre, argmax[start:stop, :, None], axis=2)
            pooled[start:stop] = picked[:, :, 0]
        return argmax

    def _forward_cached(self, inputs: np.ndarray) -> dict:
        inputs = self.condition(inputs)
        cache: dict = {"inputs": inputs}
        widths = self.config.kernel_widths
        block = min(len(inputs), _CONV_BLOCK) * self.config.filters_per_width
        block *= inputs.shape[1] - min(widths) + 1
        if self._scratch.size < block:
            self._scratch = np.empty(block)
        features = np.empty((len(inputs), self.config.pooled_features))
        for w, pooled in zip(widths, np.split(features, len(widths), axis=1)):
            windows = sliding_window_view(inputs, w, axis=1)  # (N, P, w)
            cache[w] = (windows, self._conv_pool(w, windows, pooled))
            np.maximum(pooled, 0.0, out=pooled)  # ReLU after the pool
        hidden = features @ self.params["hidden_w"]
        hidden += self.params["hidden_b"]
        np.maximum(hidden, 0.0, out=hidden)  # hidden > 0 exactly where its pre-activation is
        logits = hidden @ self.params["out_w"] + self.params["out_b"]
        cache.update(features=features, hidden=hidden, logits=logits)
        return cache

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Per-class sigmoid scores for a batch of entity vectors (N, dim)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if self.feature_shift is not None and inputs.shape[1] != len(self.feature_shift):
            raise DataError(
                f"{inputs.shape[1]}-dimensional vectors given to a classifier trained on "
                f"{len(self.feature_shift)}-dimensional vectors"
            )
        if max(self.config.kernel_widths) > inputs.shape[1]:
            raise DataError(
                f"input length {inputs.shape[1]} shorter than kernel width "
                f"{max(self.config.kernel_widths)}"
            )
        return _sigmoid(self._forward_cached(inputs)["logits"])

    def predict(self, entity: str, vector: np.ndarray) -> Prediction:
        scores = self.forward(vector)[0]
        return Prediction.from_scores(
            entity, {c: float(scores[i]) for i, c in enumerate(self.classes)}
        )

    def loss_and_grads(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean BCE plus analytic gradients for every parameter array."""
        inputs = np.atleast_2d(inputs)
        cache = self._forward_cached(inputs)
        logits = cache["logits"]
        n, c = logits.shape
        loss = _bce_mean(logits, targets)

        d_logits = (_sigmoid(logits) - targets) / (n * c)
        grads: dict[str, np.ndarray] = {
            "out_w": cache["hidden"].T @ d_logits,
            "out_b": d_logits.sum(axis=0),
        }
        d_hidden = d_logits @ self.params["out_w"].T
        d_hidden *= cache["hidden"] > 0.0  # through the ReLU
        grads["hidden_w"] = cache["features"].T @ d_hidden
        grads["hidden_b"] = d_hidden.sum(axis=0)

        d_features = d_hidden @ self.params["hidden_w"].T
        widths = self.config.kernel_widths
        parts = zip(
            widths,
            np.split(d_features, len(widths), axis=1),
            np.split(cache["features"], len(widths), axis=1),
        )
        for w, d_pool, pooled in parts:
            windows, argmax = cache[w]
            d_pool *= pooled > 0.0  # (N, F), through the ReLU
            picked = windows[np.arange(n)[:, None], argmax]  # (N, F, w) argmax windows
            grads[f"conv_w_{w}"] = np.einsum("nf,nfw->fw", d_pool, picked)
            grads[f"conv_b_{w}"] = d_pool.sum(axis=0)
        return loss, grads

    def _persisted_arrays(self) -> list[tuple[str, np.ndarray]]:
        arrays = list(self.params.items())
        if self.feature_shift is not None:
            arrays += [("feature_shift", self.feature_shift), ("feature_scale", self.feature_scale)]
        return arrays

    def check_finite(self) -> None:
        for name, array in self._persisted_arrays():
            if not np.all(np.isfinite(array)):
                raise NumericalError(f"non-finite values in {name}")

    def save(self, path) -> None:
        """Versioned header (JSON) followed by raw little-endian float64 blobs."""
        arrays = self._persisted_arrays()
        header = {
            "format_version": _FORMAT_VERSION,
            "config": asdict(self.config),
            "classes": self.classes,
            "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
        }
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for _, array in arrays:
                handle.write(np.ascontiguousarray(array, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "CnnModel":
        """Read a model file, refusing (``DataError``) another format version,
        a header whose arrays are not ``parameter_shapes`` of its config plus
        optional conditioning, and bytes after the last array."""
        with open(path, "rb") as handle:
            if handle.readline() != _MAGIC:
                raise DataError(f"{path}: not a classifier model file")
            try:
                header = json.loads(handle.readline().decode("utf-8"))
                version = header["format_version"]
                if version != _FORMAT_VERSION:
                    raise DataError(f"{path}: unsupported model format version {version!r}")
                config = CnnConfig(**header["config"])
                config.kernel_widths = tuple(config.kernel_widths)
                config.validate()
                expected = parameter_shapes(config, len(header["classes"]))
                specs = [(spec["name"], tuple(spec["shape"])) for spec in header["arrays"]]
            except (KeyError, TypeError, ValueError) as exc:  # ValueError: also bad UTF-8, JSON
                raise DataError(f"{path}: corrupt model header: {exc!r}") from None
            if len(specs) == len(expected) + 2 and len(specs[-1][1]) == 1:
                expected += [(name, specs[-1][1]) for name in ("feature_shift", "feature_scale")]
            if specs != expected:
                raise DataError(f"{path}: model arrays {specs} do not match its config {expected}")
            loaded: dict[str, np.ndarray] = {}
            for name, shape in specs:
                count = int(np.prod(shape))
                raw = handle.read(count * 8)
                if len(raw) != count * 8:
                    raise DataError(f"{path}: truncated model file at {name}")
                loaded[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if handle.read(1):
                raise DataError(f"{path}: bytes after the last array")
        shift, scale = loaded.pop("feature_shift", None), loaded.pop("feature_scale", None)
        model = cls(config, header["classes"], loaded)
        model.feature_shift, model.feature_scale = shift, scale
        return model


def sgd_step(params, grads: dict[str, np.ndarray], learning_rate: float) -> None:
    """Subtract ``learning_rate`` times each gradient from its parameter array.

    ``params`` is ``CnnModel.params``. Each gradient is scaled in place and
    then subtracted, so no temporary is allocated; products commute, so the
    result is that of ``array -= learning_rate * grad``.
    """
    for name, array in params.items():
        grad = grads[name]
        grad *= learning_rate
        array -= grad


def train_cnn(examples, embeddings, config: CnnConfig) -> CnnModel:
    """Mini-batch SGD over a seeded shuffle of the labeled entities.

    ``examples`` is a sequence of (entity IRI, gold class IRI) pairs;
    entities without a vector are skipped and counted on the returned
    model. Mean per-element loss is recorded per epoch.
    """
    examples = list(examples)
    if not examples:
        raise DataError("empty training split")
    vectors = []
    labels = []
    skipped = 0
    for entity, class_iri in examples:
        if entity not in embeddings:
            skipped += 1
            continue
        vectors.append(np.asarray(embeddings.vector_of(entity), dtype=np.float64))
        labels.append(class_iri)
    if not vectors:
        raise DataError("no training entity has an embedding vector")
    if skipped:
        logger.warning("skipped %d training entities without vectors", skipped)

    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DataError("training requires at least 2 distinct classes")
    inputs = np.vstack(vectors)
    config.validate(inputs.shape[1])

    rng = np.random.default_rng(config.seed)
    model = CnnModel.initialize(config, classes, inputs.shape[1], rng)
    model.fit_conditioning(inputs)
    model.skipped_examples = skipped
    index = model.class_index
    targets = np.zeros((len(labels), len(classes)))
    targets[np.arange(len(labels)), [index[c] for c in labels]] = 1.0

    for _ in range(config.epochs):
        order = rng.permutation(len(labels))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = model.loss_and_grads(inputs[batch], targets[batch])
            sgd_step(model.params, grads, config.learning_rate)
            epoch_loss += loss * len(batch)
        model.epoch_losses.append(epoch_loss / len(labels))
    model.check_finite()
    return model
