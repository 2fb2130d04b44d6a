"""Intent-recognition model: topology, training loop, inference,
activation export, and binary checkpoints.

The network maps each 64-value EEG sample to one of 5 intent classes.
Hidden layers share one width; the two hidden layers immediately before
the output are LSTM layers and every earlier hidden layer is affine.
A batch is treated as one time sequence: LSTM state resets at batch
start during training and at sequence start during prediction.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .dataset import DatasetSplit, SampleSet
from .errors import CheckpointError, DataError, NumericError, ShapeError
from .nn import (
    DenseParams,
    LstmParams,
    adam_init,
    adam_step,
    cross_entropy_loss,
    forward_sequence,
    glorot_uniform,
    map_layer,
    sequence_gradients,
    sequence_loss,
    softmax,
)

INPUT_WIDTH = 64
OUTPUT_WIDTH = 5

# LSTM forget-gate bias at initialization, so early gradients pass
# through the cell memory.
FORGET_BIAS = 1.0

CHECKPOINT_MAGIC = b"MCTL"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class HyperParams:
    """The five tuned training knobs.

    ``l2`` scales the weight penalty, ``lr`` is the Adam learning rate,
    ``width`` the shared hidden-layer size, ``layers`` the total layer
    count including input and output, and ``batches`` the number of
    training batches (which fixes the train/test proportion at
    batches/(batches+1)).
    """

    l2: float
    lr: float
    width: int
    layers: int
    batches: int

    def __post_init__(self):
        if self.l2 < 0:
            raise DataError(f"l2 coefficient must be >= 0, got {self.l2}")
        if self.lr <= 0:
            raise DataError(f"learning rate must be > 0, got {self.lr}")
        if self.width < 1:
            raise DataError(f"hidden width must be >= 1, got {self.width}")
        if self.layers < 4:
            raise DataError(
                f"need at least 4 layers (input, 2 recurrent, output), "
                f"got {self.layers}"
            )
        if self.batches < 1:
            raise DataError(f"batch count must be >= 1, got {self.batches}")


@dataclass(frozen=True)
class TrainingSchedule:
    """Stopping and bookkeeping knobs for the training loop."""

    max_epochs: int = 300
    patience: int = 20
    eval_every: int = 1
    bptt_window: int = 100

    def __post_init__(self):
        if self.max_epochs < 0:
            raise DataError("max_epochs must be >= 0")
        if self.patience < 1 or self.eval_every < 1 or self.bptt_window < 1:
            raise DataError(
                "patience, eval_every and bptt_window must be positive"
            )


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # input | dense | lstm | output
    width: int


@dataclass
class ModelParams:
    """All weights and biases plus the topology that shapes them.

    ``layers`` holds one parameter record per topology entry after the
    input (dense and output entries carry DenseParams, lstm entries
    LstmParams).
    """

    topology: list
    layers: list
    hyper: HyperParams
    seed: int
    epochs_run: int = 0
    final_loss: float | None = None


def plan_topology(hp: HyperParams) -> list:
    n_dense = hp.layers - 4  # hidden layers before the two recurrent ones
    specs = [LayerSpec("input", INPUT_WIDTH)]
    specs += [LayerSpec("dense", hp.width)] * n_dense
    specs += [LayerSpec("lstm", hp.width), LayerSpec("lstm", hp.width)]
    specs += [LayerSpec("output", OUTPUT_WIDTH)]
    return specs


def layer_layouts(topology) -> list:
    """``(class, {name: shape})`` per parameter layer, in checkpoint order.

    Dense and output entries are DenseParams and lstm entries
    LstmParams, each shaped by the previous entry's width and its own.
    """
    layouts = []
    for prev, spec in zip(topology, topology[1:]):
        cls = LstmParams if spec.kind == "lstm" else DenseParams
        layouts.append((cls, cls.layout(prev.width, spec.width)))
    return layouts


def build(hp: HyperParams, seed: int) -> ModelParams:
    """Deterministically initialize a model from the seed.

    Weight matrices draw, in layout order, from the uniform Glorot range
    +-sqrt(6/(fan_in+fan_out)); biases start at zero except the LSTM
    forget-gate block, which starts at ``FORGET_BIAS``.
    """
    topology = plan_topology(hp)
    rng = np.random.default_rng(seed)
    layers = []
    for cls, layout in layer_layouts(topology):
        layer = cls(**{
            name: glorot_uniform(rng, shape) if len(shape) == 2
            else np.zeros(shape)
            for name, shape in layout.items()
        })
        if cls is LstmParams:
            layer.b[layer.width : 2 * layer.width] = FORGET_BIAS
        layers.append(layer)
    return ModelParams(topology=topology, layers=layers, hyper=hp, seed=seed)


def predict(model: ModelParams, features):
    """Forward pass over a time-ordered sequence.

    Returns ``(labels, scores)``: per-sample argmax labels (1-based) and
    the 5-way softmax scores. LSTM state starts at zero and carries
    across the whole sequence, so outputs depend on sample order.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    if features.ndim != 2 or features.shape[1] != INPUT_WIDTH:
        raise ShapeError(
            f"features must be (n, {INPUT_WIDTH}), got {features.shape}"
        )
    logits, _, _ = forward_sequence(model.layers, features)
    scores = softmax(logits)
    labels = scores.argmax(axis=1) + 1
    return labels, scores


def accuracy(model: ModelParams, samples: SampleSet) -> float:
    labels, _ = predict(model, samples.features)
    return float((labels == samples.labels).mean())


def _evaluate_test(layers, split: DatasetSplit, l2: float):
    logits, _, _ = forward_sequence(layers, split.test.features)
    scores = softmax(logits)
    predicted = scores.argmax(axis=1) + 1
    acc = float((predicted == split.test.labels).mean())
    weights = [W for layer in layers for W in layer.weight_matrices()]
    loss = cross_entropy_loss(scores, split.test.labels, weights, l2)
    return acc, loss


def train(
    model: ModelParams,
    split: DatasetSplit,
    hp: HyperParams,
    schedule: TrainingSchedule,
):
    """Train on the split's batches; returns (best_model, history).

    Each epoch walks the training batches in order, treating every batch
    as one time sequence, and applies one Adam update per batch. The
    test set is scored every ``eval_every`` epochs; history rows are
    (epoch, train loss, test accuracy) and the returned model is the
    checkpoint with the best test accuracy seen. Training stops early
    after ``patience`` epochs without test-loss improvement.
    """
    if split.train.features.shape[1] != INPUT_WIDTH:
        raise ShapeError("split feature width does not match the model input")

    # The returned model shares no array with ``model``. adam_step returns
    # fresh arrays, so the best layers are kept by reference, uncopied.
    layers = [map_layer(np.copy, layer) for layer in model.layers]
    adam = adam_init(layers)
    window = schedule.bptt_window

    test_acc, test_loss = _evaluate_test(layers, split, hp.l2)
    train_loss = float(np.mean([
        sequence_loss(layers, batch.features, batch.labels, hp.l2)
        for batch in split.train_batches()
    ]))
    history = [(0, train_loss, test_acc)]
    best_acc, best_layers = test_acc, layers
    best_test_loss = test_loss
    epochs_without_improvement = 0
    epochs_run = 0

    for epoch in range(1, schedule.max_epochs + 1):
        epoch_losses = []
        for index, batch in enumerate(split.train_batches()):
            loss, grads, _ = sequence_gradients(
                layers, batch.features, batch.labels, hp.l2, window
            )
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss {loss} at epoch {epoch}, "
                    f"batch {index}"
                )
            layers, adam = adam_step(layers, grads, adam, hp.lr)
            epoch_losses.append(loss)
        train_loss = float(np.mean(epoch_losses))
        epochs_run = epoch

        if epoch % schedule.eval_every == 0 or epoch == schedule.max_epochs:
            test_acc, test_loss = _evaluate_test(layers, split, hp.l2)
            history.append((epoch, train_loss, test_acc))
            if test_acc > best_acc:
                best_acc = test_acc
                best_layers = layers
            if test_loss < best_test_loss:
                best_test_loss = test_loss
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += schedule.eval_every
                if epochs_without_improvement >= schedule.patience:
                    break

    trained = ModelParams(
        topology=list(model.topology),
        layers=best_layers,
        hyper=hp,
        seed=model.seed,
        epochs_run=epochs_run,
        final_loss=train_loss,
    )
    return trained, history


def save_history(history, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("epoch,train_loss,test_accuracy\n")
        for epoch, loss, acc in history:
            fh.write(f"{epoch},{repr(float(loss))},{repr(float(acc))}\n")


# ---------------------------------------------------------------------------
# activation export

def export_activations(model: ModelParams, samples: SampleSet,
                       layer_index: int) -> np.ndarray:
    """Per-sample activations at one topology position.

    ``layer_index`` is 1-based over the topology (1 = the input itself).
    Returns an (n, 2 + width) array: sample index, true label, then the
    activation vector, ready for class-separation plots.
    """
    if not 1 <= layer_index <= len(model.topology):
        raise IndexError(
            f"layer index {layer_index} outside 1..{len(model.topology)}"
        )
    _, _, activations = forward_sequence(model.layers, samples.features)
    act = activations[layer_index - 1]
    n = act.shape[0]
    out = np.empty((n, act.shape[1] + 2))
    out[:, 0] = np.arange(n)
    out[:, 1] = samples.labels
    out[:, 2:] = act
    return out


def save_activations(table: np.ndarray, path) -> None:
    width = table.shape[1] - 2
    header = "idx,label," + ",".join(f"a{i}" for i in range(1, width + 1))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in table:
            idx, label, *values = row.tolist()
            fh.write(",".join([str(int(idx)), str(int(label)), *map(repr, values)])
                     + "\n")


# ---------------------------------------------------------------------------
# checkpoints: magic + version byte + JSON manifest + little-endian
# float64 parameter blocks in declared order

def save(model: ModelParams) -> bytes:
    blob = bytearray()
    for layer in model.layers:
        for _, arr in layer.arrays():
            blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    manifest = {
        "topology": [[s.kind, s.width] for s in model.topology],
        "hyper": {
            "l2": model.hyper.l2,
            "lr": model.hyper.lr,
            "width": model.hyper.width,
            "layers": model.hyper.layers,
            "batches": model.hyper.batches,
        },
        "seed": model.seed,
        "epochs_run": model.epochs_run,
        "final_loss": model.final_loss,
        "param_bytes": len(blob),
        "param_crc32": zlib.crc32(bytes(blob)),
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return (
        CHECKPOINT_MAGIC
        + bytes([CHECKPOINT_VERSION])
        + struct.pack("<I", len(manifest_bytes))
        + manifest_bytes
        + bytes(blob)
    )


def _manifest_field(manifest: dict, key: str, kind=object):
    if key not in manifest:
        raise CheckpointError("manifest missing entry", field=key)
    if not isinstance(manifest[key], kind):
        raise CheckpointError(f"manifest entry is not {kind.__name__}", field=key)
    return manifest[key]


def load(data: bytes) -> ModelParams:
    if len(data) < 9:
        raise CheckpointError(
            f"checkpoint too short ({len(data)} bytes)", field="header"
        )
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}",
            field="magic",
        )
    if data[4] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported version {data[4]}", field="version"
        )
    (manifest_len,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + manifest_len:
        raise CheckpointError("manifest truncated", field="manifest")
    try:
        manifest = json.loads(data[9 : 9 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"manifest unreadable: {exc}", field="manifest")

    raw_topology = _manifest_field(manifest, "topology")
    try:
        topology = [LayerSpec(str(kind), int(width)) for kind, width in raw_topology]
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed topology: {exc}", field="topology")
    if (
        len(topology) < 4
        or topology[0] != LayerSpec("input", INPUT_WIDTH)
        or topology[-1] != LayerSpec("output", OUTPUT_WIDTH)
        or sum(s.kind == "lstm" for s in topology) != 2
        or any(s.kind not in ("input", "dense", "lstm", "output") for s in topology)
        or any(s.width < 1 for s in topology)
    ):
        raise CheckpointError(
            "topology must run input(64) .. two lstm layers .. output(5)",
            field="topology",
        )

    try:
        hyper = HyperParams(**_manifest_field(manifest, "hyper"))
    except (DataError, TypeError) as exc:
        raise CheckpointError(f"invalid hyperparameters: {exc}", field="hyper")
    if topology != plan_topology(hyper):
        raise CheckpointError(
            "topology does not match the recorded hyperparameters",
            field="hyper",
        )

    layouts = layer_layouts(topology)
    shapes = [shape for _, layout in layouts for shape in layout.values()]
    expected_bytes = 8 * sum(math.prod(shape) for shape in shapes)

    param_bytes = _manifest_field(manifest, "param_bytes")
    if param_bytes != expected_bytes:
        raise CheckpointError(
            f"topology implies {expected_bytes} parameter bytes but the "
            f"manifest declares {param_bytes}",
            field="param_bytes",
        )
    payload = data[9 + manifest_len :]
    if len(payload) != param_bytes:
        raise CheckpointError(
            f"parameter payload: expected {param_bytes} bytes, "
            f"got {len(payload)}",
            field="params",
        )
    if zlib.crc32(payload) != _manifest_field(manifest, "param_crc32"):
        raise CheckpointError(
            "parameter payload checksum mismatch", field="param_crc32"
        )

    flat = np.frombuffer(payload, dtype="<f8")
    layers = []
    cursor = 0
    for cls, layout in layouts:
        arrays = {}
        for name, shape in layout.items():
            size = math.prod(shape)
            arrays[name] = flat[cursor : cursor + size].reshape(shape).copy()
            cursor += size
        layers.append(cls(**arrays))

    return ModelParams(
        topology=topology,
        layers=layers,
        hyper=hyper,
        seed=_manifest_field(manifest, "seed", int),
        epochs_run=_manifest_field(manifest, "epochs_run", int),
        final_loss=manifest.get("final_loss"),
    )
