"""Multi-label classifier over entity vectors: one full-width filter bank.

The first layer is a bank of ``filters_per_width`` filters, each as wide as
the entity vector, with a ReLU: ``relu(x @ filter_w.T + filter_b)``. A filter
that wide has a single position, so it is the convolution of Kim (2014) with
its max pool over one value, i.e. a dense layer. One fully connected ReLU
layer and a sigmoid output layer follow. Targets are one-hot over the
fine-grained classes and the loss is the mean per-class binary
cross-entropy. ``predict`` returns the sigmoid scores of many entities as
one (N, num_classes) array; ranking them is ``ScoreMatrix.predictions``'s
job, and evaluation takes the top-ranked class. The trainer reads its
entities' vectors with one ``EmbeddingMatrix.lookup``, as the CNN route does.

Kim slides narrow filters over word positions, whose order carries meaning.
The coordinates of an entity vector have no order, so a narrow window over
them has nothing to exploit: on the acceptance experiment, widths 3/4/6
reached a mean accuracy of 0.812 over seeds 1-5 against 0.926 for the
full-width bank, at a quarter of the training time.

Raw embedding coordinates are small (roughly 0.1 in magnitude), which
leaves the initial logits so close to zero that gradient steps stall in
the all-classes-at-base-rate regime. The trainer therefore steps on each
input coordinate standardized over the training set (LeCun et al. 1998)
and at export folds that map into the filter bank, so every model,
trained or built by hand, takes raw entity vectors.

``parameter_shapes`` is the one list of trainable arrays: their names,
shapes and order. The model holds them in one dict, ``params``, and
initialisation, SGD, the gradient checks and the model file all follow it.
Backpropagation is hand-rolled in numpy so the analytic gradients can be
checked against central finite differences. Both passes compute in the
dtype of their arrays: float32 in training, float64 everywhere else.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericalError

logger = logging.getLogger(__name__)

_MAGIC = b"KGTYPER-CNN:v1\n"
# Refused: version 1 (windowed 3/4/6 conv layers) and 2 (input standardization arrays).
_FORMAT_VERSION = 3


@dataclass(frozen=True)
class CnnConfig:
    """Architecture and training settings of the classifier, checked when built."""

    filters_per_width: int = 128
    hidden_units: int = 125
    batch_size: int = 32
    epochs: int = 1000
    learning_rate: float = 0.01
    seed: int = 1

    def __post_init__(self):
        for name in ("filters_per_width", "hidden_units", "batch_size", "epochs", "seed"):
            if operator.index(getattr(self, name)) < 1 and name != "seed":  # TypeError unless int
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")


def parameter_shapes(
    config: CnnConfig, input_dim: int, num_classes: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable array, in the model's fixed order."""
    filters = config.filters_per_width
    return [
        ("filter_w", (filters, input_dim)),
        ("filter_b", (filters,)),
        ("hidden_w", (filters, config.hidden_units)),
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
        self.epoch_losses: list[float] = []
        self.skipped_examples = 0

    @classmethod
    def initialize(
        cls, config: CnnConfig, classes: list[str], input_dim: int, rng: np.random.Generator
    ) -> "CnnModel":
        """Glorot-uniform weights (bound sqrt(6 / (fan_in + fan_out))), zero
        biases, classes in sorted order."""
        classes = sorted(classes)
        params = {}
        for name, shape in parameter_shapes(config, input_dim, len(classes)):
            if len(shape) == 2:
                bound = np.sqrt(6.0 / sum(shape))
                params[name] = rng.uniform(-bound, bound, size=shape)
            else:
                params[name] = np.zeros(shape)
        return cls(config, classes, params)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def input_dim(self) -> int:
        return self.params["filter_w"].shape[1]

    def _forward_cached(self, inputs: np.ndarray) -> dict:
        p = self.params
        features = inputs @ p["filter_w"].T
        features += p["filter_b"]
        np.maximum(features, 0.0, out=features)  # features > 0 exactly where the pre-activation is
        hidden = features @ p["hidden_w"]
        hidden += p["hidden_b"]
        np.maximum(hidden, 0.0, out=hidden)
        logits = hidden @ p["out_w"] + p["out_b"]
        return {"inputs": inputs, "features": features, "hidden": hidden, "logits": logits}

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Per-class sigmoid scores for entity vectors (N, dim), or stacks of them."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=self.params["filter_w"].dtype))
        if inputs.shape[-1] != self.input_dim:
            raise DataError(
                f"{inputs.shape[-1]}-dimensional vectors given to a classifier of "
                f"{self.input_dim}-dimensional vectors"
            )
        return _sigmoid(self._forward_cached(inputs)["logits"])

    def predict(self, vectors) -> np.ndarray:
        """The (N, num_classes) scores of the rows of ``vectors`` (an (N, dim)
        array or N rows), columns as in ``classes``. The rows go in as stacks
        of one-row batches, (batch size, 1, dim), so that each gets the BLAS
        calls of its own one-row forward, and bit for bit its scores."""
        scores, step = np.empty((len(vectors), self.num_classes)), self.config.batch_size
        for start in range(0, len(vectors), step):
            rows = np.asarray(vectors[start:start + step])[:, None]
            scores[start:start + step] = self.forward(rows)[:, 0]
        return scores

    def loss_and_grads(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean BCE plus analytic gradients for every parameter array."""
        p = self.params
        cache = self._forward_cached(np.atleast_2d(inputs))
        logits = cache["logits"]
        loss = _bce_mean(logits, targets)

        d_logits = (_sigmoid(logits) - targets) / logits.size
        grads: dict[str, np.ndarray] = {
            "out_w": cache["hidden"].T @ d_logits,
            "out_b": d_logits.sum(axis=0),
        }
        d_hidden = d_logits @ p["out_w"].T
        d_hidden *= cache["hidden"] > 0.0  # through the ReLU
        grads["hidden_w"] = cache["features"].T @ d_hidden
        grads["hidden_b"] = d_hidden.sum(axis=0)
        d_features = d_hidden @ p["hidden_w"].T
        d_features *= cache["features"] > 0.0
        grads["filter_w"] = d_features.T @ cache["inputs"]
        grads["filter_b"] = d_features.sum(axis=0)
        return loss, grads

    def check_finite(self) -> None:
        for name, array in self.params.items():
            if not np.all(np.isfinite(array)):
                raise NumericalError(f"non-finite values in {name}")

    def save(self, path) -> None:
        """Versioned header (JSON) followed by raw little-endian float64 blobs."""
        header = {
            "format_version": _FORMAT_VERSION,
            "config": asdict(self.config),
            "classes": self.classes,
            "input_dim": self.input_dim,
            "arrays": [{"name": name, "shape": list(a.shape)} for name, a in self.params.items()],
        }
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for array in self.params.values():
                handle.write(np.ascontiguousarray(array, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "CnnModel":
        """Read a model file, refusing (``DataError``) another format version,
        a header whose arrays are not ``parameter_shapes`` of its config and
        input dimension, and bytes after the last array."""
        with open(path, "rb") as handle:
            if handle.readline() != _MAGIC:
                raise DataError(f"{path}: not a classifier model file")
            try:
                header = json.loads(handle.readline().decode("utf-8"))
                version = header["format_version"]
                if version != _FORMAT_VERSION:
                    raise DataError(f"{path}: unsupported model format version {version!r}")
                config = CnnConfig(**header["config"])
                input_dim = operator.index(header["input_dim"])
                if not all(isinstance(name, str) for name in header["classes"]):
                    raise TypeError(f"class names {header['classes']!r} are not all strings")
                expected = parameter_shapes(config, input_dim, len(header["classes"]))
                specs = [(spec["name"], tuple(spec["shape"])) for spec in header["arrays"]]
            except (KeyError, TypeError, ValueError) as exc:  # ValueError: also bad UTF-8, JSON
                raise DataError(f"{path}: corrupt model header: {exc!r}") from None
            if specs != expected:
                raise DataError(f"{path}: model arrays {specs} do not match its config {expected}")
            loaded: dict[str, np.ndarray] = {}
            size = os.fstat(handle.fileno()).st_size if handle.seekable() else math.inf
            for name, shape in expected:  # integer shapes, equal to the header's
                count = math.prod(shape)  # an array longer than the rest of the file is not read
                raw = handle.read(count * 8) if count * 8 <= size - handle.tell() else b""
                if len(raw) != count * 8:
                    raise DataError(f"{path}: truncated model file at {name}")
                loaded[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if handle.read(1):
                raise DataError(f"{path}: bytes after the last array")
        return cls(config, header["classes"], loaded)


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

    ``examples`` is a sequence of (entity IRI, gold class IRI) pairs; an
    entity without a row in ``embeddings`` is skipped and counted on the
    returned model. Mean per-element loss is recorded per epoch.
    """
    examples = list(examples)
    if not examples:
        raise DataError("empty training split")
    known, inputs = embeddings.lookup([entity for entity, _ in examples])
    labels = [class_iri for (_, class_iri), has_row in zip(examples, known.tolist()) if has_row]
    if not labels:
        raise DataError("no training entity has an embedding vector")
    skipped = len(examples) - len(labels)
    if skipped:
        logger.warning("skipped %d training entities without vectors", skipped)

    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DataError("training requires at least 2 distinct classes")

    rng = np.random.default_rng(config.seed)
    model = CnnModel.initialize(config, classes, inputs.shape[1], rng)
    model.skipped_examples = skipped
    # A float32 copy takes the steps on the inputs standardized here, in float64.
    shift = inputs.mean(axis=0)
    scale = 1.0 / np.maximum(inputs.std(axis=0), 1e-8)
    inputs = ((inputs - shift) * scale).astype(np.float32)
    trainee = CnnModel(config, classes, {n: a.astype(np.float32) for n, a in model.params.items()})
    model.params = {}  # the float64 draws are not read again; freeing them lowers peak RSS
    targets = np.zeros((len(labels), len(classes)), dtype=np.float32)
    targets[np.arange(len(labels)), [model.class_index[c] for c in labels]] = 1.0

    for _ in range(config.epochs):
        order = rng.permutation(len(labels))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = trainee.loss_and_grads(inputs[batch], targets[batch])
            sgd_step(trainee.params, grads, np.float32(config.learning_rate))
            epoch_loss += loss * len(batch)
        model.epoch_losses.append(epoch_loss / len(labels))
    model.params = {name: array.astype(np.float64) for name, array in trainee.params.items()}
    # Fold the standardization into the filter bank, so the model takes raw vectors.
    model.params["filter_w"] *= scale
    model.params["filter_b"] -= model.params["filter_w"] @ shift
    model.check_finite()
    return model
