"""Topology, training behavior, activation export, and checkpoints."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindctl import HyperParams, TrainingSchedule, build, train
from mindctl.dataset import split
from mindctl.errors import CheckpointError, DataError, NumericError, ShapeError
from mindctl.model import (
    accuracy,
    export_activations,
    load,
    predict,
    save,
    save_activations,
    save_history,
)
from mindctl.nn import sequence_gradients
from helpers import make_toy_samples


def test_build_seven_layer_plan():
    hp = HyperParams(l2=0.004, lr=0.005, width=64, layers=7, batches=3)
    model = build(hp, seed=0)
    kinds = [s.kind for s in model.topology]
    widths = [s.width for s in model.topology]
    assert kinds == ["input", "dense", "dense", "dense", "lstm", "lstm", "output"]
    assert widths == [64, 64, 64, 64, 64, 64, 5]
    # recurrent layers sit at positions 5 and 6 of 7
    assert [i + 1 for i, s in enumerate(model.topology) if s.kind == "lstm"] == [5, 6]


def test_build_minimal_topology():
    hp = HyperParams(l2=0.0, lr=0.01, width=16, layers=4, batches=1)
    model = build(hp, seed=0)
    assert [s.kind for s in model.topology] == ["input", "lstm", "lstm", "output"]


def test_build_is_seed_deterministic():
    hp = HyperParams(l2=0.001, lr=0.01, width=8, layers=6, batches=2)
    a, b = build(hp, seed=21), build(hp, seed=21)
    for la, lb in zip(a.layers, b.layers):
        for (_, xa), (_, xb) in zip(la.arrays(), lb.arrays()):
            assert np.array_equal(xa, xb)
    c = build(hp, seed=22)
    assert not np.array_equal(a.layers[0].W, c.layers[0].W)


@pytest.mark.parametrize("width, layers, digest", [
    (64, 7, "0ab40379fd3d42ae61f00d05a4f77cdc5591eb5bd0165847b25d5dab0b918070"),
    (16, 4, "d22bbff1396205e91ea4f36077107b31be11d5fc1e834faf2016ae47daaacab9"),
])
def test_fresh_checkpoint_digest_is_pinned(width, layers, digest):
    # build draws only from PCG64 and does no BLAS arithmetic, so these
    # bytes are the same on every platform; a change to the layout, the
    # draw order or the checkpoint format changes them
    hp = HyperParams(l2=0.004, lr=0.005, width=width, layers=layers, batches=3)
    assert hashlib.sha256(save(build(hp, seed=0))).hexdigest() == digest


def test_forget_gate_bias_initialization():
    hp = HyperParams(l2=0.0, lr=0.01, width=4, layers=4, batches=1)
    model = build(hp, seed=0)
    b = model.layers[0].b
    assert np.array_equal(b[4:8], np.ones(4))  # forget block
    assert np.array_equal(b[:4], np.zeros(4))
    assert np.array_equal(b[8:], np.zeros(8))


def test_hyperparams_validation():
    with pytest.raises(DataError, match="at least 4 layers"):
        HyperParams(l2=0.0, lr=0.01, width=8, layers=3, batches=1)
    with pytest.raises(DataError, match="learning rate"):
        HyperParams(l2=0.0, lr=0.0, width=8, layers=5, batches=1)
    with pytest.raises(DataError, match="l2"):
        HyperParams(l2=-0.1, lr=0.01, width=8, layers=5, batches=1)


# ---------------------------------------------------------------------------
# prediction

def test_predict_single_sample_is_valid_distribution():
    hp = HyperParams(l2=0.0, lr=0.01, width=8, layers=5, batches=1)
    model = build(hp, seed=0)
    labels, scores = predict(model, np.zeros(64))
    assert labels.shape == (1,)
    assert 1 <= labels[0] <= 5
    assert scores.shape == (1, 5)
    assert np.all(scores > 0)
    assert abs(scores.sum() - 1.0) < 1e-12


def test_predict_is_deterministic(toy_model, toy_split):
    l1, s1 = predict(toy_model, toy_split.test.features)
    l2, s2 = predict(toy_model, toy_split.test.features)
    assert np.array_equal(l1, l2)
    assert np.array_equal(s1, s2)


def test_predict_argmax_invariant_under_output_bias_shift(toy_model, toy_split):
    import copy

    shifted = copy.deepcopy(toy_model)
    shifted.layers[-1].b += 3.7  # constant added to every output bias
    base_labels, _ = predict(toy_model, toy_split.test.features)
    new_labels, _ = predict(shifted, toy_split.test.features)
    assert np.array_equal(base_labels, new_labels)


def test_predict_rejects_wrong_width(toy_model):
    with pytest.raises(ShapeError):
        predict(toy_model, np.zeros((3, 10)))


def test_prediction_is_order_sensitive_through_state(toy_model, toy_split):
    features = toy_split.test.features[:30]
    _, forward_scores = predict(toy_model, features)
    _, reversed_scores = predict(toy_model, features[::-1])
    # same multiset of inputs, different order: recurrent state makes the
    # per-sample outputs differ in general
    assert not np.allclose(forward_scores, reversed_scores[::-1])


# ---------------------------------------------------------------------------
# training

def test_zero_epoch_schedule_returns_initial_model():
    samples = make_toy_samples(n=40, seed=3)
    splits = split(samples, 3)
    hp = HyperParams(l2=0.0, lr=0.01, width=8, layers=5, batches=3)
    model = build(hp, seed=5)
    schedule = TrainingSchedule(max_epochs=0, patience=5, eval_every=1,
                                bptt_window=10)
    trained, history = train(model, splits, hp, schedule)
    assert len(history) == 1 and history[0][0] == 0
    for la, lb in zip(model.layers, trained.layers):
        for (_, xa), (_, xb) in zip(la.arrays(), lb.arrays()):
            assert np.array_equal(xa, xb)


def test_train_returns_best_epoch_layers_sharing_no_array():
    # On this toy the test accuracy peaks at epoch 2 of 8, so the long
    # run must return the layers a run stopped at that epoch ends with.
    splits = split(make_toy_samples(n=80, seed=0, spread=0.2, n_classes=5), 3)
    hp = HyperParams(l2=0.0, lr=0.02, width=8, layers=5, batches=3)
    model = build(hp, seed=5)

    def run(epochs):
        schedule = TrainingSchedule(max_epochs=epochs, patience=20,
                                    bptt_window=10)
        return train(model, splits, hp, schedule)

    long_run, history = run(8)
    accuracies = [row[2] for row in history]
    best_epoch = accuracies.index(max(accuracies))
    assert 0 < best_epoch < 8
    short_run, _ = run(best_epoch)
    untrained, _ = run(0)
    assert not np.array_equal(long_run.layers[0].W, model.layers[0].W)
    for layers in zip(model.layers, long_run.layers, short_run.layers,
                      untrained.layers):
        for (_, given_arr), (_, long_arr), (_, short_arr), (_, zero_arr) in zip(
            *(layer.arrays() for layer in layers)
        ):
            assert np.array_equal(long_arr, short_arr)
            for arr in (long_arr, zero_arr):
                assert not np.shares_memory(arr, given_arr)


def test_toy_convergence(toy_model, toy_split):
    assert accuracy(toy_model, toy_split.train) >= 0.99


def test_training_is_bit_reproducible():
    samples = make_toy_samples(n=40, seed=3)
    splits = split(samples, 3)
    hp = HyperParams(l2=0.001, lr=0.01, width=8, layers=5, batches=3)
    schedule = TrainingSchedule(max_epochs=5, patience=10, eval_every=1,
                                bptt_window=10)
    a, hist_a = train(build(hp, seed=5), splits, hp, schedule)
    b, hist_b = train(build(hp, seed=5), splits, hp, schedule)
    assert hist_a == hist_b
    assert save(a) == save(b)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_training_aborts_on_non_finite_loss():
    samples = make_toy_samples(n=40, seed=3)
    splits = split(samples, 3)
    hp = HyperParams(l2=0.0, lr=0.01, width=8, layers=5, batches=3)
    model = build(hp, seed=5)
    model.layers[0].W[:] = 1e300  # overflow the forward pass
    schedule = TrainingSchedule(max_epochs=3, patience=5, eval_every=1,
                                bptt_window=10)
    with pytest.raises((NumericError, FloatingPointError), match="batch 0|non-finite"):
        train(model, splits, hp, schedule)


def test_history_rows_and_early_stop():
    samples = make_toy_samples(n=40, seed=3)
    splits = split(samples, 3)
    hp = HyperParams(l2=0.0, lr=0.01, width=8, layers=5, batches=3)
    schedule = TrainingSchedule(max_epochs=50, patience=3, eval_every=1,
                                bptt_window=10)
    trained, history = train(build(hp, seed=5), splits, hp, schedule)
    epochs = [h[0] for h in history]
    assert epochs[0] == 0
    assert epochs == sorted(epochs)
    assert trained.epochs_run <= 50


def test_batch_sequence_gradients(toy_model, toy_split):
    batch = next(toy_split.train_batches())
    loss, grads, _ = sequence_gradients(toy_model.layers, batch.features,
                                        batch.labels, l2=0.01)
    assert np.isfinite(loss)
    assert len(grads) == len(toy_model.layers)


def test_save_history_format(tmp_path):
    path = tmp_path / "history.csv"
    save_history([(0, 1.5, 0.2), (1, 1.25, 0.5)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,test_accuracy"
    assert lines[1] == "0,1.5,0.2"


# ---------------------------------------------------------------------------
# activation export

def test_input_layer_export_is_verbatim(toy_model, toy_split):
    table = export_activations(toy_model, toy_split.test, 1)
    assert np.array_equal(table[:, 2:], toy_split.test.features)
    assert np.array_equal(table[:, 1], toy_split.test.labels)
    assert np.array_equal(table[:, 0], np.arange(len(toy_split.test)))


def test_last_lstm_export_width(toy_model, toy_split):
    lstm_positions = [
        i + 1 for i, s in enumerate(toy_model.topology) if s.kind == "lstm"
    ]
    table = export_activations(toy_model, toy_split.test, lstm_positions[-1])
    assert table.shape == (len(toy_split.test), 2 + toy_model.hyper.width)


def test_export_twice_is_byte_identical(tmp_path, toy_model, toy_split):
    t1 = export_activations(toy_model, toy_split.test, 5)
    t2 = export_activations(toy_model, toy_split.test, 5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_activations(t1, p1)
    save_activations(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_layer_index_range_error(toy_model, toy_split):
    with pytest.raises(IndexError):
        export_activations(toy_model, toy_split.test, 0)
    with pytest.raises(IndexError):
        export_activations(toy_model, toy_split.test, 8)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_bytes_identical(toy_model):
    blob = save(toy_model)
    again = save(load(blob))
    assert blob == again


def test_checkpoint_preserves_inference(toy_model, toy_split):
    restored = load(save(toy_model))
    l1, s1 = predict(toy_model, toy_split.test.features)
    l2, s2 = predict(restored, toy_split.test.features)
    assert np.array_equal(l1, l2)
    assert np.array_equal(s1, s2)
    assert accuracy(restored, toy_split.test) == accuracy(toy_model, toy_split.test)


def test_corrupting_header_byte_is_loud(toy_model):
    blob = bytearray(save(toy_model))
    blob[2] ^= 0x01
    with pytest.raises(CheckpointError, match="magic"):
        load(bytes(blob))


def test_corrupting_version_byte(toy_model):
    blob = bytearray(save(toy_model))
    blob[4] = 99
    with pytest.raises(CheckpointError, match="version"):
        load(bytes(blob))


def test_truncated_payload_names_lengths(toy_model):
    blob = save(toy_model)
    with pytest.raises(CheckpointError, match="expected .* bytes"):
        load(blob[:-16])


def test_payload_corruption_detected_by_checksum(toy_model):
    blob = bytearray(save(toy_model))
    blob[-5] ^= 0xFF
    with pytest.raises(CheckpointError, match="checksum"):
        load(bytes(blob))


def test_manifest_tampering_detected(toy_model):
    # hyper record disagreeing with the topology must not load silently
    blob = save(toy_model)
    with pytest.raises(CheckpointError, match="hyper"):
        load(blob[:9] + blob[9:].replace(b'"width": 16', b'"width": 17', 1))


@pytest.mark.parametrize("key", ["seed", "epochs_run"])
def test_manifest_integer_of_wrong_type_is_checkpoint_error(toy_model, key):
    blob = save(toy_model)
    (length,) = struct.unpack("<I", blob[5:9])
    manifest = json.loads(blob[9 : 9 + length])
    manifest[key] = "1"
    text = json.dumps(manifest).encode()
    with pytest.raises(CheckpointError, match=key):
        load(blob[:5] + struct.pack("<I", len(text)) + text + blob[9 + length :])


@settings(max_examples=110, deadline=None)
@given(
    width=st.integers(1, 6),
    layers=st.integers(4, 7),
    seed=st.integers(0, 2**31 - 1),
    epochs_run=st.integers(0, 500),
)
def test_checkpoint_round_trip_randomized(width, layers, seed, epochs_run):
    hp = HyperParams(l2=0.001, lr=0.01, width=width, layers=layers, batches=2)
    model = build(hp, seed=seed)
    model.epochs_run = epochs_run
    model.final_loss = float(seed % 97) / 97.0
    blob = save(model)
    back = load(blob)
    assert save(back) == blob
    assert back.topology == model.topology
    assert back.hyper == model.hyper
    for la, lb in zip(model.layers, back.layers):
        for (_, xa), (_, xb) in zip(la.arrays(), lb.arrays()):
            assert np.array_equal(xa, xb)
