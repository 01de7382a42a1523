"""Desk-scale MLP: synthetic data, deterministic training, 8-bit quantization.

The model is a plain dense/ReLU stack trained with momentum SGD on
separable Gaussian class clusters.  Everything is seeded and single
threaded so repeated runs produce bit-identical parameters, which the
fault-injection experiments rely on.  Weights are held as float32 (the
storable representation); arithmetic runs in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prng import make_rng

DEFAULT_SEED = 1234
DEFAULT_FEATURES = 16
DEFAULT_CLASSES = 4
DEFAULT_SAMPLES = 4000
DEFAULT_HIDDEN = (32, 32)
DEFAULT_EPOCHS = 30
DEFAULT_LR = 0.05
MOMENTUM = 0.9
BATCH_SIZE = 64
TRAIN_FRACTION = 0.75

QMAX = 255
SCALE_FLOOR = 1e-8

#: Most input values (samples x features) a synthetic dataset may hold; the
#: default dataset holds 64 000.
MAX_DATASET_VALUES = 10 ** 8
#: Most parameters (weights and biases) :func:`train` may fit; the
#: 16-256-256-4 model has 71 172.
MAX_PARAMETERS = 10 ** 8


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss, or a trained parameter as float32,
    leaves the finite range."""


@dataclass(frozen=True)
class SyntheticDataset:
    """Balanced Gaussian class clusters with a fixed train/test split."""

    inputs: np.ndarray  # float64 (n, features)
    labels: np.ndarray  # int64 (n,)
    seed: int
    n_train: int

    def __post_init__(self):
        self.inputs.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def train_inputs(self) -> np.ndarray:
        return self.inputs[: self.n_train]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[: self.n_train]

    @property
    def test_inputs(self) -> np.ndarray:
        return self.inputs[self.n_train:]

    @property
    def test_labels(self) -> np.ndarray:
        return self.labels[self.n_train:]


@dataclass(frozen=True)
class MlpModel:
    """Dense layers with ReLU between them and none after the last.

    Finiteness is not enforced here: blocks read back from faulty memory
    may decode to NaN/Inf weights and still need to run inference.
    """

    weights: tuple[np.ndarray, ...]  # float32, (fan_in, fan_out) each
    biases: tuple[np.ndarray, ...]   # float32, (fan_out,) each

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up, one per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i} shape mismatch: {w.shape} vs {b.shape}")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i} input dim does not chain")
            w.setflags(write=False)
            b.setflags(write=False)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


@dataclass(frozen=True)
class QuantizedLayer:
    codes: np.ndarray  # uint8, (fan_in, fan_out)
    scale: float
    zero_point: int
    biases: np.ndarray  # float32, untouched by quantization

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if not 0 <= self.zero_point <= QMAX:
            raise ValueError("zero_point must be in [0, 255]")
        self.codes.setflags(write=False)
        self.biases.setflags(write=False)


@dataclass(frozen=True)
class QuantizedModel:
    layers: tuple[QuantizedLayer, ...]

    def __post_init__(self):
        shapes = [l.codes.shape for l in self.layers]
        if not shapes or any(a[1] != b[0] for a, b in zip(shapes, shapes[1:])):
            raise ValueError("a model needs one or more layers whose dims chain")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.layers[0].codes.shape[0],) + tuple(l.codes.shape[1] for l in self.layers)


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    epoch_losses: tuple[float, ...]


def make_dataset(seed: int = DEFAULT_SEED, n_classes: int = DEFAULT_CLASSES,
                 n_features: int = DEFAULT_FEATURES,
                 n_samples: int = DEFAULT_SAMPLES) -> SyntheticDataset:
    """Gaussian clusters, one per class, means drawn once from the seed.

    The dataset may hold at most :data:`MAX_DATASET_VALUES` input values,
    checked before any is drawn.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be at least 2, got {n_classes}")
    if n_features < 1:
        raise ValueError(f"n_features must be at least 1, got {n_features}")
    if n_samples < n_classes or n_samples % n_classes:
        raise ValueError(f"n_samples must split evenly across the {n_classes} classes, "
                         f"at least one sample each, got {n_samples}")
    if n_samples * n_features > MAX_DATASET_VALUES:
        raise ValueError(f"{n_samples} samples x {n_features} features exceed "
                         f"{MAX_DATASET_VALUES} values")
    rng = make_rng(seed)
    per_class = n_samples // n_classes
    means = rng.normal(0.0, 1.5, size=(n_classes, n_features))
    inputs = np.concatenate(
        [means[c] + rng.normal(0.0, 1.0, size=(per_class, n_features)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    order = rng.permutation(n_samples)
    n_train = int(round(TRAIN_FRACTION * n_samples))
    if not 0 < n_train < n_samples:
        raise ValueError(f"a {TRAIN_FRACTION} train split of {n_samples} samples "
                         f"leaves an empty split")
    return SyntheticDataset(inputs[order], labels[order], int(seed), n_train)


def _init_params(dims: Sequence[int], rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _softmax_loss_grad(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = -np.log(probs[np.arange(n), labels] + 1e-300).mean()
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def gradients(weights, biases, x, labels):
    """Cross-entropy loss and analytic gradients for one batch (float64)."""
    acts = [x] + [np.empty((x.shape[0], w.shape[1])) for w in weights]
    _forward(weights, biases, x, acts[1:])
    loss, delta = _softmax_loss_grad(acts[-1], labels)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in reversed(range(len(weights))):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i:
            delta = (delta @ weights[i].T) * (acts[i] > 0)
    return loss, grads_w, grads_b


def train(dataset: SyntheticDataset, hidden_dims: Sequence[int] = DEFAULT_HIDDEN,
          epochs: int = DEFAULT_EPOCHS, lr: float = DEFAULT_LR,
          seed: int = DEFAULT_SEED) -> TrainResult:
    """Momentum SGD on the train split; bit-deterministic for fixed inputs.

    The model may hold at most :data:`MAX_PARAMETERS` parameters, checked
    before any is drawn.  Raises :class:`TrainingDivergedError` if a batch
    loss, or a trained parameter cast to float32, is not finite.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if not 0 <= lr < math.inf:
        raise ValueError(f"lr must be finite and non-negative, got {lr!r}")
    dims = [dataset.inputs.shape[1], *hidden_dims, int(dataset.labels.max()) + 1]
    if any(d < 1 for d in dims):
        raise ValueError("invalid layer dimensions")
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if n_params > MAX_PARAMETERS:
        raise ValueError(f"layer dims {dims} make {n_params} parameters, "
                         f"more than {MAX_PARAMETERS}")
    rng = make_rng(seed)
    weights, biases = _init_params(dims, rng)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    x, y = dataset.train_inputs, dataset.train_labels
    losses = []
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, x.shape[0], BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            # divergence surfaces through the finite-loss check, not FP traps
            with np.errstate(over="ignore", invalid="ignore"):
                loss, gw, gb = gradients(weights, biases, x[batch], y[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss {loss} at epoch {len(losses)}")
            for i in range(len(weights)):
                vel_w[i] = MOMENTUM * vel_w[i] + gw[i]
                vel_b[i] = MOMENTUM * vel_b[i] + gb[i]
                weights[i] = weights[i] - lr * vel_w[i]
                biases[i] = biases[i] - lr * vel_b[i]
            epoch_loss += loss
            n_batches += 1
        losses.append(float(epoch_loss / n_batches))
    # the last update can push a parameter past the float32 range, which
    # its own loss, taken before the update, does not show
    with np.errstate(over="ignore"):
        model = MlpModel(
            weights=tuple(w.astype(np.float32) for w in weights),
            biases=tuple(b.astype(np.float32) for b in biases),
        )
    if not all(np.isfinite(a).all() for a in model.weights + model.biases):
        raise TrainingDivergedError("training ended with non-finite float32 parameters")
    return TrainResult(model=model, epoch_losses=tuple(losses))


def quantize(model: MlpModel) -> QuantizedModel:
    """Asymmetric per-layer 8-bit post-training quantization of the weights.

    scale = (max - min) / 255 (floored at 1e-8 for constant layers),
    zero_point = round(-min/scale) clamped to [0, 255]; biases stay float32.
    """
    layers = []
    for w, b in zip(model.weights, model.biases):
        if not np.isfinite(w).all():
            raise ValueError("cannot quantize non-finite weights")
        lo, hi = float(w.min()), float(w.max())
        scale = max((hi - lo) / QMAX, SCALE_FLOOR)
        zero_point = int(np.clip(np.rint(-lo / scale), 0, QMAX))
        codes = np.clip(np.rint(w.astype(np.float64) / scale) + zero_point, 0, QMAX).astype(np.uint8)
        layers.append(QuantizedLayer(codes=codes, scale=scale, zero_point=zero_point, biases=b))
    return QuantizedModel(layers=tuple(layers))


def dequantized(codes: np.ndarray, scale, zero_point) -> np.ndarray:
    """u8 `codes` as float32 weights: ``scale * (code - zero_point)`` in float64."""
    return (scale * (codes.astype(np.float64) - zero_point)).astype(np.float32)


def dequantize(qmodel: QuantizedModel) -> MlpModel:
    weights = tuple(dequantized(l.codes, l.scale, l.zero_point) for l in qmodel.layers)
    return MlpModel(weights=weights, biases=tuple(l.biases for l in qmodel.layers))


def _as_mlp(model: MlpModel | QuantizedModel) -> MlpModel:
    return dequantize(model) if isinstance(model, QuantizedModel) else model


def _forward(weights, biases, h: np.ndarray, outs, start: int = 0) -> np.ndarray:
    """Run the layers from `start` on, given that layer's input `h`; layer i
    writes its output into ``outs[i]``.  Returns the last layer's logits.

    `weights` and `biases` are float64.  Training, :func:`infer` and the
    harness's readbacks all run this one loop.
    """
    # Models rebuilt from faulty storage may hold NaN/Inf weights; inference
    # must still run (argmax picks the first maximal element either way).
    with np.errstate(invalid="ignore", over="ignore"):
        last = len(weights) - 1
        for i in range(start, len(weights)):
            z = outs[i]
            np.matmul(h, weights[i], out=z)
            np.add(z, biases[i], out=z)
            if i < last:
                np.maximum(z, 0.0, out=z)
            h = z
    return h


def infer(model: MlpModel | QuantizedModel, inputs: np.ndarray) -> np.ndarray:
    """Predicted class ids; argmax ties resolve to the lowest id."""
    m = _as_mlp(model)
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != m.weights[0].shape[0]:
        raise ValueError(f"inputs of shape {inputs.shape} do not match model input dim")
    # casting a signalling NaN raises the invalid flag
    with np.errstate(invalid="ignore"):
        weights = [w.astype(np.float64) for w in m.weights]
        biases = [b.astype(np.float64) for b in m.biases]
    outs = [np.empty((inputs.shape[0], w.shape[1])) for w in weights]
    return np.argmax(_forward(weights, biases, inputs, outs), axis=1)


def accuracy(model: MlpModel | QuantizedModel, inputs: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    if labels.shape[0] != np.asarray(inputs).shape[0]:
        raise ValueError("inputs and labels disagree on sample count")
    return float((infer(model, inputs) == labels).mean())
