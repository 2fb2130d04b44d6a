"""Topology, training behavior, activation export, and checkpoints."""

import hashlib
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindctl.dataset import split
from mindctl.errors import DataError, NumericError
import mindctl.model
import mindctl.nn
from mindctl.model import (
    MAX_PARAMETERS,
    HyperParams,
    TrainingSchedule,
    _evaluate_test,
    _initial_pass,
    build,
    export_activations,
    load,
    parameter_count,
    predict,
    save,
    save_activations,
    save_history,
    train,
)
from mindctl.nn import forward_sequence, sequence_gradients, sequence_loss
from helpers import gradients, make_toy_samples, reference_train


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


@settings(max_examples=20, deadline=None)
@given(width=st.integers(1, 12), layers=st.integers(4, 8))
def test_parameter_count_matches_the_built_model(width, layers):
    hp = HyperParams(l2=0.0, lr=0.01, width=width, layers=layers, batches=1)
    assert parameter_count(hp) == mindctl.nn.flat(build(hp, seed=0).layers).size


@pytest.mark.parametrize("width, layers", [(200_000, 4), (744, 7), (2, 10**12)])
def test_oversized_model_is_rejected_before_it_is_built(width, layers):
    # counted, never built: width 200,000 alone would need 1.16 TiB of
    # recurrent weights, and width 744 is the first above the bound at 7
    # layers
    with pytest.raises(DataError, match=f"width {width} and {layers} layers"):
        HyperParams(l2=0.0, lr=0.01, width=width, layers=layers, batches=1)
    assert parameter_count(HyperParams(l2=0.0, lr=0.01, width=743, layers=7,
                                       batches=1)) <= MAX_PARAMETERS


# ---------------------------------------------------------------------------
# prediction

def test_predict_single_sample_is_valid_distribution():
    hp = HyperParams(l2=0.0, lr=0.01, width=8, layers=5, batches=1)
    model = build(hp, seed=0)
    labels, scores = predict(model, np.zeros((1, 64)))
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
    expected = "features must be (n, 64), got (3, 10)"
    with pytest.raises(DataError, match=re.escape(expected)):
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
    schedule = TrainingSchedule(max_epochs=0, patience=5, bptt_window=10)
    trained, history = train(model, splits, schedule)
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
        return train(model, splits, schedule)

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
    labels, _ = predict(toy_model, toy_split.train.features)
    assert (labels == toy_split.train.labels).mean() >= 0.99


def test_training_is_bit_reproducible():
    samples = make_toy_samples(n=40, seed=3)
    splits = split(samples, 3)
    hp = HyperParams(l2=0.001, lr=0.01, width=8, layers=5, batches=3)
    schedule = TrainingSchedule(max_epochs=5, patience=10, bptt_window=10)
    a, hist_a = train(build(hp, seed=5), splits, schedule)
    b, hist_b = train(build(hp, seed=5), splits, schedule)
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
    schedule = TrainingSchedule(max_epochs=3, patience=5, bptt_window=10)
    with pytest.raises((NumericError, FloatingPointError), match="batch 0|non-finite"):
        train(model, splits, schedule)


def test_history_rows_and_early_stop():
    samples = make_toy_samples(n=40, seed=3)
    splits = split(samples, 3)
    hp = HyperParams(l2=0.0, lr=0.01, width=8, layers=5, batches=3)
    schedule = TrainingSchedule(max_epochs=50, patience=3, bptt_window=10)
    trained, history = train(build(hp, seed=5), splits, schedule)
    epochs = [h[0] for h in history]
    assert epochs[0] == 0
    assert epochs == sorted(epochs)
    assert trained.epochs_run <= 50


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 5), layers=st.integers(4, 7), n_b=st.integers(1, 5),
       rows=st.integers(2, 12), epochs=st.integers(0, 4),
       patience=st.integers(1, 3), window=st.integers(1, 24),
       lr=st.sampled_from([0.01, 0.05, 0.1]), l2=st.sampled_from([0.0, 0.003]),
       seed=st.integers(0, 2**16))
# stops early at epoch 2, its best accuracy at epoch 1 and its best loss at 0
@example(width=2, layers=6, n_b=3, rows=12, epochs=4, patience=2, window=23,
         lr=0.05, l2=0.0, seed=21148)
# its first dense weights differ by 1.1e-11 of their largest after 2 epochs
@example(width=5, layers=7, n_b=5, rows=9, epochs=2, patience=1, window=9,
         lr=0.1, l2=0.0, seed=0)
def test_train_matches_the_straight_line_reference(width, layers, n_b, rows, epochs,
                                                   patience, window, lr, l2, seed):
    # BPTT windows of 1..24 steps fall on both sides of the 2..12-row
    # batches. The fused cell and the lockstep epoch 0 round differently
    # from the reference, and Adam's step, whose slope at a zero gradient
    # is lr / 1e-8, can turn a 1e-17 difference into lr * 1e-9: values
    # agree to 1e-10 of each array's largest magnitude (at least 1).
    splits = split(make_toy_samples(n=rows * (n_b + 1), seed=seed, n_classes=5),
                   n_b)
    model = build(HyperParams(l2=l2, lr=lr, width=width, layers=layers,
                              batches=n_b), seed=seed)
    schedule = TrainingSchedule(max_epochs=epochs, patience=patience,
                                bptt_window=window)
    trained, history = train(model, splits, schedule)
    ref_layers, ref_epochs, ref_history, ref_best = reference_train(model, splits,
                                                                    schedule)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    assert trained.epochs_run == ref_epochs
    assert [row[0] for row in history] == [row[0] for row in ref_history]
    accuracies = [row[2] for row in history]
    assert accuracies.index(max(accuracies)) == ref_best
    got, want = np.array(history), np.array(ref_history)
    assert close(got[:, 1], want[:, 1]) and close(got[:, 2], want[:, 2])
    for layer, ref in zip(trained.layers, ref_layers):
        for (name, arr), (_, ref_arr) in zip(layer.arrays(), ref.arrays()):
            assert close(arr, ref_arr), name


def test_epoch_zero_row_matches_separate_passes():
    # 280 rows and 3 batches: batch size 70 and k = 4 sequences, so the
    # lockstep pass walks 35 blocks of _lag(70, 4) = 2 rows
    splits = split(make_toy_samples(n=280, seed=3), 3)
    hp = HyperParams(l2=0.001, lr=0.01, width=8, layers=5, batches=3)
    model = build(hp, seed=5)
    schedule = TrainingSchedule(max_epochs=0, patience=5, bptt_window=10)
    _, [(epoch, train_loss, test_acc)] = train(model, splits, schedule)
    acc, loss = _evaluate_test(model.layers, splits, hp.l2)
    losses = [sequence_loss(model.layers, b.features, b.labels, hp.l2)
              for b in splits.train_batches()]
    assert epoch == 0 and test_acc == acc
    assert abs(train_loss - np.mean(losses)) < 1e-12
    scores, _ = _initial_pass(model.layers, splits, hp.l2, keep=False)
    assert abs(scores[1] - loss) < 1e-12


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_epoch_zero_scoring_needs_the_memory_of_one_sequence():
    # n_b 3 and n 700 at the paper topology. Scoring, one forward_sequence
    # call on the (700, 4, 64) view of the blocks, walked in blocks of
    # _lag(700, 4) = 2 rows, peaks at 0.56 times one 2-D forward of the
    # test block; with a 2-D sequence's lag, n // 16 = 43 rows, it peaks
    # at 2.37 times.
    splits = split(make_toy_samples(n=2800, seed=4), 3)
    hp = HyperParams(l2=0.001, lr=0.01, width=64, layers=7, batches=3)
    layers = build(hp, seed=1).layers
    one = _peak_traced_bytes(
        lambda: forward_sequence(layers, splits.test.features))
    lockstep = _peak_traced_bytes(
        lambda: _initial_pass(layers, splits, hp.l2, keep=False))
    assert lockstep < 0.6 * one


def test_no_cache_forward_frees_each_layer_before_the_next():
    # 700 rows at the paper topology: a forward without caches keeps no
    # LSTM gates or cells and no whole-sequence affine output, only the
    # ring of step rows, the block buffers and the output, 0.27 of the
    # cached forward's peak (0.48 for a walk holding one whole layer's
    # gates and cells at a time, 0.80 for two; 0.23 when the cached
    # forward also kept the affine outputs below the run)
    hp = HyperParams(l2=0.001, lr=0.01, width=64, layers=7, batches=3)
    layers = build(hp, seed=1).layers
    X = np.random.default_rng(2).normal(size=(700, 64))
    bare = _peak_traced_bytes(lambda: forward_sequence(layers, X))
    cached = _peak_traced_bytes(
        lambda: forward_sequence(layers, X, keep_caches=True))
    assert bare < 0.4 * cached


@pytest.mark.parametrize("max_epochs, rows, kept", [(0, 1, 0), (1, 4, 3)])
def test_first_step_takes_epoch_zero_forward(monkeypatch, max_epochs, rows,
                                             kept):
    # n_b 3 batches of n = 10 rows. One epoch sends (n_b + 1) * n rows
    # through forward_sequence: epoch 0's pass, batches 2 and 3 and the
    # test score; batch 1's step takes epoch 0's forward. With no epoch
    # to follow, epoch 0 keeps nothing.
    real = mindctl.nn.forward_sequence
    seen = []

    def counted(layers, X, *args, **kwargs):
        output, caches = real(layers, X, *args, **kwargs)
        seen.append((len(X), caches is not None))
        return output, caches

    steps = []
    real_gradients = mindctl.model.sequence_gradients

    def gradients_counted(*args, **kwargs):
        steps.append(args[1])
        return real_gradients(*args, **kwargs)

    monkeypatch.setattr("mindctl.nn.forward_sequence", counted)
    monkeypatch.setattr("mindctl.model.forward_sequence", counted)
    monkeypatch.setattr("mindctl.model.sequence_gradients", gradients_counted)
    splits = split(make_toy_samples(n=40, seed=3), 3)
    hp = HyperParams(l2=0.001, lr=0.01, width=8, layers=5, batches=3)
    schedule = TrainingSchedule(max_epochs=max_epochs, patience=5,
                                bptt_window=4)
    train(build(hp, seed=5), splits, schedule)
    assert sum(n for n, _ in seen) == rows * 10
    assert len(steps) == 3 * max_epochs
    assert len({id(forward) for forward in steps}) == len(steps)
    assert sum(n for n, cached in seen if cached) == kept * 10


@pytest.mark.parametrize("total, n_batches, layers, window", [
    (400, 3, 5, 10),  # n 100, k 4: 50 blocks of 2 rows
    (24, 5, 4, 3),    # n 4 < k 6: 2 blocks; the first layer an LSTM
    (600, 5, 4, 3),   # n 100, k 6: 50 blocks of 2 rows
    (74, 1, 6, 4),    # n 37, k 2: blocks of 5 rows, the last one 2
    (300, 1, 6, 4),   # n 150, k 2: 75 blocks of 2 rows
])
def test_kept_forward_gradients_match_the_batch_alone(total, n_batches,
                                                      layers, window):
    splits = split(make_toy_samples(n=total, seed=total, n_classes=5),
                   n_batches)
    hp = HyperParams(l2=0.003, lr=0.01, width=6, layers=layers,
                     batches=n_batches)
    params = build(hp, seed=total).layers
    batch = next(splits.train_batches())
    scores, [forward] = _initial_pass(params, splits, hp.l2, keep=True)
    assert scores == _initial_pass(params, splits, hp.l2, keep=False)[0]
    _, caches = forward
    assert np.shares_memory(caches[0]["input"], splits.train.features)
    loss, grads = sequence_gradients(params, forward, batch.labels, hp.l2,
                                     window)
    ref_loss, ref_grads = gradients(params, batch.features, batch.labels,
                                    hp.l2, window)
    assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
    for got, ref in zip(grads, ref_grads):
        for (name, a), (_, r) in zip(got.arrays(), ref.arrays()):
            gap = np.max(np.abs(a - r)) / max(1.0, np.max(np.abs(r)))
            assert gap < 1e-12, name


def test_kept_pass_needs_no_more_memory_than_a_training_step():
    # n_b 3 and n 700 at the paper topology: the pass that keeps batch
    # 1's forward, filling its full-length caches block by block, peaks
    # at 0.89 of the batch's own cached forward, and so below one
    # training step on the batch, which holds that forward's caches
    splits = split(make_toy_samples(n=2800, seed=4), 3)
    hp = HyperParams(l2=0.001, lr=0.01, width=64, layers=7, batches=3)
    layers = build(hp, seed=1).layers
    batch = next(splits.train_batches())
    forward = _peak_traced_bytes(
        lambda: forward_sequence(layers, batch.features, keep_caches=True))
    step = _peak_traced_bytes(lambda: sequence_gradients(
        layers, forward_sequence(layers, batch.features, keep_caches=True),
        batch.labels, hp.l2, 100))
    kept = _peak_traced_bytes(
        lambda: _initial_pass(layers, splits, hp.l2, keep=True))
    assert kept <= 0.95 * forward
    assert kept < step


def test_a_training_step_needs_about_the_memory_of_its_forward():
    # 700 rows at the paper topology: the backward computes in the caches
    # of the forward it takes and drops each layer's once it is done, so
    # a step peaks where its cached forward alone does, 1.00 times it
    # (1.22 when the backward made its own dZ and tanh(c))
    hp = HyperParams(l2=0.001, lr=0.01, width=64, layers=7, batches=3)
    layers = build(hp, seed=1).layers
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(700, 64)), rng.integers(1, 6, size=700)
    forward = _peak_traced_bytes(
        lambda: forward_sequence(layers, X, keep_caches=True))
    step = _peak_traced_bytes(lambda: sequence_gradients(
        layers, forward_sequence(layers, X, keep_caches=True), y, hp.l2, 100))
    assert step <= 1.05 * forward


def test_a_training_step_holds_only_its_lstm_caches():
    # 700 rows at the paper topology. The cached forward keeps the batch
    # itself and each LSTM layer's gates, cells and outputs, but no
    # output of the affine layers below the run. From its return, the
    # step peaks at those LSTM caches plus 2.61 (n, width) arrays, within
    # the bound of three (7.75 when the forward kept the affine outputs
    # and the backward held every layer's caches and a whole scratch)
    hp = HyperParams(l2=0.001, lr=0.01, width=64, layers=7, batches=3)
    layers = build(hp, seed=1).layers
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(700, 64)), rng.integers(1, 6, size=700)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forward = forward_sequence(layers, X, keep_caches=True)
        caches = forward[1]
        assert [sorted(cache) for cache in caches] == [
            ["input", "k"], [], [], ["c", "gates", "h"],
            ["c", "gates", "h", "input"], ["input"]]
        assert caches[0]["input"] is X
        lstm = sum(cache[name].nbytes for cache in caches[3:5]
                   for name in ("gates", "c", "h"))
        tracemalloc.reset_peak()
        sequence_gradients(layers, forward, y, hp.l2, 100)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= lstm + 3 * X.nbytes  # X is (n, width)


def test_a_forward_feeds_one_gradient(toy_model, toy_split):
    # the backward computes in the caches, so they are spent: a second
    # gradient from them would be silently wrong
    batch = next(toy_split.train_batches())
    forward = forward_sequence(toy_model.layers, batch.features,
                               keep_caches=True)
    sequence_gradients(toy_model.layers, forward, batch.labels)
    assert forward[1] == []
    with pytest.raises(DataError, match="a forward feeds one gradient"):
        sequence_gradients(toy_model.layers, forward, batch.labels)


def test_batch_sequence_gradients(toy_model, toy_split):
    batch = next(toy_split.train_batches())
    loss, grads = gradients(toy_model.layers, batch.features,
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
    with pytest.raises(DataError):
        export_activations(toy_model, toy_split.test, 0)
    with pytest.raises(DataError):
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


@pytest.mark.parametrize("change, message", [
    (lambda blob: blob[:8], r"too short \(8 bytes\) \(field: header\)"),
    (lambda blob: _replaced(blob, ("param_bytes",), "8"),
     r"not int \(field: param_bytes\)"),
    (lambda blob: _replaced(blob, ("param_bytes",), 8),
     r"declares 8 \(field: param_bytes\)"),
    (lambda blob: blob[:20], r"manifest truncated \(field: manifest\)"),
    (lambda blob: blob[:9] + b"\xff" + blob[10:],
     r"manifest unreadable: .* \(field: manifest\)"),
], ids=["shorter-than-the-header", "param-bytes-a-string",
        "param-bytes-off-the-topology", "manifest-cut-short", "manifest-not-utf8"])
def test_load_names_the_field_it_rejects(toy_model, change, message):
    with pytest.raises(DataError, match=message):
        load(change(save(toy_model)))


def test_corrupting_header_byte_is_loud(toy_model):
    blob = bytearray(save(toy_model))
    blob[2] ^= 0x01
    with pytest.raises(DataError, match="magic"):
        load(bytes(blob))


def test_corrupting_version_byte(toy_model):
    blob = bytearray(save(toy_model))
    blob[4] = 99
    with pytest.raises(DataError, match="version"):
        load(bytes(blob))


def test_truncated_payload_names_lengths(toy_model):
    blob = save(toy_model)
    with pytest.raises(DataError, match="expected .* bytes"):
        load(blob[:-16])


def test_payload_corruption_detected_by_checksum(toy_model):
    blob = bytearray(save(toy_model))
    blob[-5] ^= 0xFF
    with pytest.raises(DataError, match="checksum"):
        load(bytes(blob))


def test_manifest_tampering_detected(toy_model):
    # hyper record disagreeing with the topology must not load silently
    blob = save(toy_model)
    with pytest.raises(DataError, match="hyper"):
        load(blob[:9] + blob[9:].replace(b'"width": 16', b'"width": 17', 1))


@pytest.mark.parametrize("key", ["seed", "epochs_run"])
def test_manifest_integer_of_wrong_type_is_checkpoint_error(toy_model, key):
    blob = save(toy_model)
    (length,) = struct.unpack("<I", blob[5:9])
    manifest = json.loads(blob[9 : 9 + length])
    manifest[key] = "1"
    text = json.dumps(manifest).encode()
    with pytest.raises(DataError, match=key):
        load(blob[:5] + struct.pack("<I", len(text)) + text + blob[9 + length :])


def _replaced(blob, path, value):
    """``blob`` with the manifest value at ``path`` replaced, re-framed."""
    (length,) = struct.unpack("<I", blob[5:9])
    manifest = json.loads(blob[9 : 9 + length])
    *parents, key = path
    entry = manifest
    for step in parents:
        entry = entry[step]
    entry[key] = value
    text = json.dumps(manifest, sort_keys=True).encode()
    return blob[:5] + struct.pack("<I", len(text)) + text + blob[9 + length :]


@pytest.mark.parametrize("path, value", [
    (("hyper", "layers"), 7.0),
    (("hyper", "width"), 16.0),
    (("hyper", "batches"), 2.5),
    (("hyper", "batches"), True),
    (("hyper", "l2"), float("nan")),
    (("hyper", "lr"), float("inf")),
    (("topology", 4), ["lstm", 16.0]),
    (("seed",), True),
], ids=lambda v: ".".join(map(str, v)) if type(v) is tuple else repr(v))
def test_manifest_value_of_wrong_type_is_checkpoint_error(toy_model, path, value):
    # 7.0 == 7 and True == 1 in Python, but neither is the saved integer
    with pytest.raises(DataError, match=path[0]):
        load(_replaced(save(toy_model), path, value))


def test_manifest_in_another_json_spelling_is_checkpoint_error(toy_model):
    # the values are the same, but save would write other bytes
    blob = save(toy_model)
    for old, new in [(b'"seed": 1', b'"seed":\t1'), (b'"l2": 0.0', b'"l2": 0e0'),
                     (b'"final_loss"', b'"final_losz"')]:
        assert old in blob
        (length,) = struct.unpack("<I", blob[5:9])
        changed = blob.replace(old, new, 1)
        changed = (changed[:5] + struct.pack("<I", length + len(new) - len(old))
                   + changed[9:])
        with pytest.raises(DataError, match="manifest"):
            load(changed)


# ---------------------------------------------------------------------------
# fuzzing load with mutations of a small checkpoint

def _fuzz_base():
    hp = HyperParams(l2=0.001, lr=0.01, width=16, layers=5, batches=2)
    model = build(hp, seed=3)
    model.epochs_run = 4
    model.final_loss = 0.75
    return save(model)


_FUZZ_BASE = _fuzz_base()
_FUZZ_PATHS = [
    *[("hyper", key) for key in ("l2", "lr", "width", "layers", "batches")],
    ("topology",),
    *[("topology", i) for i in range(5)],
    *[("topology", i, j) for i in range(5) for j in range(2)],
    ("seed",), ("epochs_run",), ("final_loss",), ("param_bytes",), ("param_crc32",),
]
_JSON_SCALARS = (
    st.sampled_from([5.0, True, "3", -1, 1e308, float("nan"), [], None, 0, 16])
    | st.integers() | st.floats() | st.text(max_size=4)
)
_JSON_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)


@st.composite
def mutated_checkpoint(draw):
    if draw(st.booleans()):
        return _replaced(_FUZZ_BASE, draw(st.sampled_from(_FUZZ_PATHS)),
                         draw(_JSON_VALUES))
    data = bytearray(_FUZZ_BASE)
    (length,) = struct.unpack("<I", data[5:9])
    # half the changes land in the header and manifest, the rest anywhere
    where = st.integers(0, 8 + length) | st.integers(0, len(data) - 1)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(where)] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(mutated_checkpoint())
@example(_replaced(_FUZZ_BASE, ("hyper", "layers"), 5.0))
@example(_replaced(_FUZZ_BASE, ("topology", 3), ["lstm", 16.0]))
@example(_replaced(_FUZZ_BASE, ("final_loss",), "3"))
@example(_replaced(_FUZZ_BASE, ("final_loss",), []))
@example(_replaced(_FUZZ_BASE, ("final_loss",), {"a": 1}))
@example(_replaced(_FUZZ_BASE, ("final_loss",), True))
@example(_replaced(_FUZZ_BASE, ("final_loss",), 3))
@example(_replaced(_FUZZ_BASE, ("final_loss",), float("nan")))
@example(_replaced(_FUZZ_BASE, ("final_loss",), float("inf")))
@example(_replaced(_FUZZ_BASE, ("seed",), -3))
@example(_replaced(_FUZZ_BASE, ("epochs_run",), -5))
def test_mutated_checkpoint_loads_exactly_or_fails_as_checkpoint_error(blob):
    try:
        model = load(blob)
    except DataError:
        return
    assert save(model) == blob
    for value in (model.seed, model.epochs_run):
        assert type(value) is int and value >= 0
    loss = model.final_loss
    assert loss is None or (type(loss) is float and math.isfinite(loss))


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
