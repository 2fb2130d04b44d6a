"""Intent-recognition model: topology, training loop, inference,
activation export, and binary checkpoints.

The network maps each 64-value EEG sample to one of 5 intent classes.
Hidden layers share one width; the two hidden layers immediately before
the output are LSTM layers and every earlier hidden layer is affine.
A batch is treated as one time sequence: LSTM state resets at batch
start during training and at sequence start during prediction.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import N_CHANNELS, N_CLASSES, DatasetSplit, SampleSet, write_csv
from .errors import DataError, NumericError
from .nn import (
    DenseParams,
    LstmParams,
    adam_init,
    adam_step,
    cross_entropy_loss,
    flat,
    forward_sequence,
    glorot_uniform,
    sequence_gradients,
    softmax,
    unflat,
)

# LSTM forget-gate bias at initialization, so early gradients pass
# through the cell memory.
FORGET_BIAS = 1.0

CHECKPOINT_MAGIC = b"MCTL"
CHECKPOINT_VERSION = 1


def check_int(name: str, value, least: int = 0) -> None:
    """Reject ``value`` unless it is an ``int`` of at least ``least``.

    The type is exact, so a bool, 4.0 or NaN from a flag, config or
    checkpoint fails here rather than inside the array shapes or the
    first training step.
    """
    if type(value) is not int or value < least:
        raise DataError(f"{name} must be an integer >= {least}, got {value!r}")


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
        for name in ("width", "layers", "batches"):
            check_int(name, getattr(self, name), 1)
        for name in ("l2", "lr"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not math.isfinite(value):
                raise DataError(f"{name} must be a finite number, got {value!r}")
        if self.l2 < 0:
            raise DataError(f"l2 coefficient must be >= 0, got {self.l2}")
        if self.lr <= 0:
            raise DataError(f"lr (learning rate) must be > 0, got {self.lr}")
        if self.layers < 4:
            raise DataError(
                f"need at least 4 layers (input, 2 recurrent, output), "
                f"got {self.layers}"
            )


@dataclass(frozen=True)
class TrainingSchedule:
    """Stopping and bookkeeping knobs for the training loop."""

    max_epochs: int = 300
    patience: int = 20
    bptt_window: int = 100

    def __post_init__(self):
        check_int("max_epochs", self.max_epochs)
        check_int("patience", self.patience, 1)
        check_int("bptt_window", self.bptt_window, 1)


class LayerSpec(NamedTuple):
    """One topology entry; as JSON, the manifest's ``[kind, width]``."""

    kind: str  # input | dense | lstm | output
    width: int


@dataclass
class ModelParams:
    """All weights and biases plus the hyperparameters that shape them.

    ``layers`` holds one parameter record per topology entry after the
    input (dense and output entries carry DenseParams, lstm entries
    LstmParams).
    """

    layers: list
    hyper: HyperParams
    seed: int
    epochs_run: int = 0
    final_loss: float | None = None

    def __post_init__(self):
        # exact types, as in HyperParams: a checkpoint may hold any JSON value
        check_int("seed", self.seed)
        check_int("epochs_run", self.epochs_run)
        loss = self.final_loss
        if loss is not None and (type(loss) is not float or not math.isfinite(loss)):
            raise DataError(f"final_loss must be a finite number or None, got {loss!r}")

    @property
    def topology(self) -> list:
        return plan_topology(self.hyper)


def plan_topology(hp: HyperParams) -> list:
    n_dense = hp.layers - 4  # hidden layers before the two recurrent ones
    specs = [LayerSpec("input", N_CHANNELS)]
    specs += [LayerSpec("dense", hp.width)] * n_dense
    specs += [LayerSpec("lstm", hp.width), LayerSpec("lstm", hp.width)]
    specs += [LayerSpec("output", N_CLASSES)]
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
    model = ModelParams(layers=[], hyper=hp, seed=seed)
    rng = np.random.default_rng(seed)
    for cls, layout in layer_layouts(plan_topology(hp)):
        layer = cls(**{
            name: glorot_uniform(rng, shape) if len(shape) == 2
            else np.zeros(shape)
            for name, shape in layout.items()
        })
        if cls is LstmParams:
            layer.b[layer.width : 2 * layer.width] = FORGET_BIAS
        model.layers.append(layer)
    return model


def predict(model: ModelParams, features):
    """Forward pass over a time-ordered sequence.

    Returns ``(labels, scores)``: per-sample argmax labels (1-based) and
    the 5-way softmax scores. LSTM state starts at zero and carries
    across the whole sequence, so outputs depend on sample order.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != N_CHANNELS:
        raise DataError(
            f"features must be (n, {N_CHANNELS}), got {features.shape}"
        )
    logits, _ = forward_sequence(model.layers, features)
    scores = softmax(logits)
    labels = scores.argmax(axis=1) + 1
    return labels, scores


def _score(layers, logits, labels, l2: float):
    """``(accuracy, loss)`` of one sequence's logits against its labels."""
    scores = softmax(logits)
    predicted = scores.argmax(axis=1) + 1
    acc = float((predicted == labels).mean())
    weights = [W for layer in layers for W in layer.weight_matrices()]
    loss = cross_entropy_loss(scores, labels, weights, l2)
    return acc, loss


def _evaluate_test(layers, split: DatasetSplit, l2: float):
    logits, _ = forward_sequence(layers, split.test.features)
    return _score(layers, logits, split.test.labels, l2)


def _initial_pass(layers, split: DatasetSplit, l2: float, keep: bool):
    """Epoch 0's scores and, with ``keep``, the first batch's forward.

    The training batches and the test block are ``batch_size`` rows each
    and share the initial weights, so they run as one lockstep stack:
    the split's blocks seen as ``(n, k, 64)``, the first batch at column
    0 and the test block at the last. ``forward_sequence`` walks the
    stack in chunks of ceil(n/4k) rows, a quarter of one sequence's
    samples, and the caches it keeps are column 0's, the first batch's
    own forward; so the pass peaks below one training step on the batch.

    Returns ``((test accuracy, test loss, mean train loss), kept)``.
    ``kept`` is a list holding the first batch's ``(logits, caches)``
    when ``keep`` is set and is empty otherwise; the caller pops it, so
    nothing else holds the caches once the gradient has used them.
    """
    logits, caches = forward_sequence(
        layers, split.features.transpose(1, 0, 2), keep_caches=keep
    )
    scores = [_score(layers, logits[:, j], labels, l2)
              for j, labels in enumerate(split.labels)]
    test_acc, test_loss = scores.pop()
    train_loss = float(np.mean([loss for _, loss in scores]))
    kept = [(logits[:, 0].copy(), caches)] if keep else []
    return (test_acc, test_loss, train_loss), kept


def train(
    model: ModelParams,
    split: DatasetSplit,
    schedule: TrainingSchedule,
):
    """Train on the split's batches; returns (best_model, history).

    The l2 coefficient and learning rate come from ``model.hyper``. Each
    epoch walks the training batches in order, treating every batch as
    one time sequence, and applies one Adam update per batch. The test
    set is scored after every epoch; history rows are (epoch, train
    loss, test accuracy), where row 0 scores the initial weights, and
    the returned model is the checkpoint with the best test accuracy
    seen. Training stops early after ``patience`` epochs without
    test-loss improvement. Epoch 0's pass keeps the first batch's
    forward when an epoch follows, and epoch 1's first step takes it in
    place of running its own.
    """
    # The returned model shares no array with ``model``. adam_step returns
    # fresh arrays, so the best layers are kept by reference, uncopied.
    layers = unflat(flat(model.layers), layer_layouts(model.topology))
    adam = adam_init(layers)
    hp = model.hyper
    window = schedule.bptt_window

    (test_acc, test_loss, train_loss), kept = _initial_pass(
        layers, split, hp.l2, keep=schedule.max_epochs >= 1
    )
    history = [(0, train_loss, test_acc)]
    best_acc, best_layers = test_acc, layers
    best_test_loss = test_loss
    epochs_without_improvement = 0
    epochs_run = 0

    for epoch in range(1, schedule.max_epochs + 1):
        epoch_losses = []
        for index, batch in enumerate(split.train_batches()):
            # epoch 1's first batch takes its forward from epoch 0's pass
            loss, grads = sequence_gradients(
                layers,
                kept.pop() if kept else forward_sequence(
                    layers, batch.features, keep_caches=True
                ),
                batch.labels, hp.l2, window,
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

        test_acc, test_loss = _evaluate_test(layers, split, hp.l2)
        history.append((epoch, train_loss, test_acc))
        if test_acc > best_acc:
            best_acc = test_acc
            best_layers = layers
        if test_loss < best_test_loss:
            best_test_loss = test_loss
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= schedule.patience:
                break

    trained = dataclasses.replace(
        model, layers=best_layers, epochs_run=epochs_run, final_loss=train_loss
    )
    return trained, history


def save_history(history, path) -> None:
    write_csv(path, ("epoch", "train_loss", "test_accuracy"),
              ((epoch, float(loss), float(acc)) for epoch, loss, acc in history))


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
        raise DataError(
            f"layer index {layer_index} outside 1..{len(model.topology)}"
        )
    # position k is the output of the first k - 1 layers
    act, _ = forward_sequence(model.layers[: layer_index - 1], samples.features)
    n = act.shape[0]
    out = np.empty((n, act.shape[1] + 2))
    out[:, 0] = np.arange(n)
    out[:, 1] = samples.labels
    out[:, 2:] = act
    return out


def save_activations(table: np.ndarray, path) -> None:
    header = ("idx", "label", *(f"a{i}" for i in range(1, table.shape[1] - 1)))
    write_csv(path, header, ((int(idx), int(label), *values)
                             for idx, label, *values in map(np.ndarray.tolist, table)))


# ---------------------------------------------------------------------------
# checkpoints: magic + version byte + JSON manifest + the parameter
# vector (``nn.flat`` order) as little-endian float64

def _manifest(model: ModelParams, payload: bytes) -> bytes:
    """The manifest ``save`` writes for ``model`` and its parameter bytes."""
    manifest = {
        "topology": model.topology,
        "hyper": dataclasses.asdict(model.hyper),
        "seed": model.seed,
        "epochs_run": model.epochs_run,
        "final_loss": model.final_loss,
        "param_bytes": len(payload),
        "param_crc32": zlib.crc32(payload),
    }
    return json.dumps(manifest, sort_keys=True).encode("utf-8")


def save(model: ModelParams) -> bytes:
    payload = flat(model.layers).astype("<f8", copy=False).tobytes()
    manifest_bytes = _manifest(model, payload)
    return (
        CHECKPOINT_MAGIC
        + bytes([CHECKPOINT_VERSION])
        + struct.pack("<I", len(manifest_bytes))
        + manifest_bytes
        + payload
    )


def _manifest_field(manifest: dict, key: str, kind=None):
    if key not in manifest:
        raise DataError(f"manifest missing entry (field: {key})")
    if kind is not None and type(manifest[key]) is not kind:  # bool is no int
        raise DataError(f"manifest entry is not {kind.__name__} (field: {key})")
    return manifest[key]


def load(data: bytes) -> ModelParams:
    if len(data) < 9:
        raise DataError(f"checkpoint too short ({len(data)} bytes) (field: header)")
    if data[:4] != CHECKPOINT_MAGIC:
        raise DataError(
            f"bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r} (field: magic)"
        )
    if data[4] != CHECKPOINT_VERSION:
        raise DataError(f"unsupported version {data[4]} (field: version)")
    (manifest_len,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + manifest_len:
        raise DataError("manifest truncated (field: manifest)")
    try:
        manifest = json.loads(data[9 : 9 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"manifest unreadable: {exc} (field: manifest)")

    try:
        hyper = HyperParams(**_manifest_field(manifest, "hyper", dict))
    except (DataError, TypeError) as exc:
        raise DataError(f"invalid hyperparameters: {exc} (field: hyper)")
    # The length test comes first, so a huge recorded layer count is never
    # planned; as JSON text, 16.0 or true in place of 16 is a mismatch.
    recorded = _manifest_field(manifest, "topology", list)
    if len(recorded) != hyper.layers or json.dumps(recorded) != json.dumps(
        plan_topology(hyper)
    ):
        raise DataError(
            "topology does not match the recorded hyperparameters (field: topology)"
        )

    layouts = layer_layouts(plan_topology(hyper))
    expected_bytes = 8 * sum(math.prod(shape) for _, layout in layouts
                             for shape in layout.values())

    param_bytes = _manifest_field(manifest, "param_bytes", int)
    if param_bytes != expected_bytes:
        raise DataError(
            f"topology implies {expected_bytes} parameter bytes but the "
            f"manifest declares {param_bytes} (field: param_bytes)"
        )
    payload = data[9 + manifest_len :]
    if len(payload) != param_bytes:
        raise DataError(
            f"parameter payload: expected {param_bytes} bytes, "
            f"got {len(payload)} (field: params)"
        )
    if zlib.crc32(payload) != _manifest_field(manifest, "param_crc32", int):
        raise DataError("parameter payload checksum mismatch (field: param_crc32)")

    # one owned, writable copy of the payload, which the layers view
    layers = unflat(np.frombuffer(payload, dtype="<f8").astype(np.float64), layouts)

    run = {key: _manifest_field(manifest, key)
           for key in ("seed", "epochs_run", "final_loss")}
    try:
        model = ModelParams(layers=layers, hyper=hyper, **run)
    except DataError as exc:
        raise DataError(f"invalid manifest entry: {exc}") from None
    # JSON that spells the same values another way (spacing, 0e0 for 0.0,
    # a misspelt optional key) would not survive save; refuse it here
    if _manifest(model, payload) != data[9 : 9 + manifest_len]:
        raise DataError("manifest is not in the form save writes (field: manifest)")
    return model
