"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values marked as fixtures below are known outcomes of the
original tuning/evaluation runs; everything else is computed by
independent oracles inside the tests.
"""

import os
import time
from datetime import datetime

import numpy as np
import pytest

from mindctl.dataset import split
from mindctl.device import (
    APPLIANCE_PROFILE,
    LED_HOLD_MS,
    Command,
    DeviceSession,
    encode_command,
    replay,
)
from mindctl.edf import EdfAnnotation, EdfChannel, EdfRecording, parse_edf, serialize_edf
from mindctl.evaluation import knn_classify, metrics
from mindctl.model import HyperParams, TrainingSchedule, build, predict, train
from mindctl.model import load as load_checkpoint
from mindctl.model import save as save_checkpoint
from mindctl.nn import gradient_check
from mindctl.oa import L16, SAVINGS, build_plan, is_orthogonal, range_analysis
from helpers import make_toy_samples

TUNING_LEVELS = (
    (0.002, 0.004, 0.006, 0.008),
    (0.005, 0.01, 0.015, 0.02),
    (16, 32, 48, 64),
    (5, 6, 7, 8),
    (1, 3, 6, 13),
)

TUNING_RUN_ACCURACIES = [
    0.689, 0.91, 0.893, 0.667, 0.925, 0.717, 0.848, 0.77,
    0.926, 0.826, 0.322, 0.367, 0.93, 0.422, 0.684, 0.404,
]

EVALUATION_COUNTS = np.array(
    [
        [2062, 19, 23, 18, 22],
        [17, 1120, 19, 15, 20],
        [13, 13, 1146, 14, 11],
        [10, 5, 7, 1162, 10],
        [18, 21, 15, 23, 1197],
    ]
)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_oa_analysis_oracle():
    started = time.monotonic()
    plan = build_plan(TUNING_LEVELS)
    analysis = range_analysis(plan, TUNING_RUN_ACCURACIES)
    sums = analysis.level_sums
    checks = [
        abs(sums[0][0] - 3.159) <= 0.001,
        abs(sums[0][1] - 3.26) <= 0.001,
        abs(sums[0][2] - 2.441) <= 0.001,
        abs(sums[0][3] - 2.44) <= 0.001,
        abs(sums[1][0] - 3.47) <= 0.001,
        abs(sums[2][3] - 3.271) <= 0.001,
        abs(sums[3][2] - 3.048) <= 0.001,
        abs(sums[4][1] - 3.088) <= 0.001,
        analysis.best_values == (0.004, 0.005, 64, 7, 3),
    ]
    elapsed = time.monotonic() - started
    _report(
        "range analysis reproduces the recorded level sums and best levels",
        all(checks) and elapsed < 1.0,
        f"best={analysis.best_values}, {elapsed:.3f}s",
    )


def test_criterion_orthogonality():
    started = time.monotonic()
    ok = is_orthogonal(L16)
    # independent exhaustive check: 10 factor pairs x 16 ordered level pairs
    import itertools

    for fa, fb in itertools.combinations(range(5), 2):
        pairs = sorted((row[fa], row[fb]) for row in L16)
        ok = ok and pairs == sorted(itertools.product((1, 2, 3, 4), repeat=2))
    elapsed = time.monotonic() - started
    _report(
        "16-run plan is strength-2 orthogonal",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_savings_arithmetic():
    value = SAVINGS
    # 1 - 16/1024 = 0.984375; the published figure 98.4% rounds it to
    # three decimals, so the reproduction target is that rounded value
    ok = value == 1.0 - 16.0 / 1024.0 and round(value, 3) == 0.984
    _report("plan avoids 98.4% of the exhaustive sweep", ok,
            f"savings={value}")


def test_criterion_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        width = int(rng.integers(2, 9))       # K <= 8
        layers = int(rng.integers(5, 8))      # I in {5, 6, 7}
        seq = int(rng.integers(2, 9))         # sequence length <= 8
        hp = HyperParams(l2=float(rng.uniform(0, 0.01)), lr=0.01,
                         width=width, layers=layers, batches=1)
        model = build(hp, seed=int(rng.integers(0, 2**31)))
        X = rng.normal(size=(seq, 64))
        y = rng.integers(1, 6, size=seq)
        worst = max(worst, gradient_check(model.layers, X, y, hp.l2,
                                          step=1e-5))
    elapsed = time.monotonic() - started
    _report(
        "analytic gradients match central finite differences",
        worst < 1e-4 and elapsed < 120.0,
        f"max error {worst:.2e} over 20 models, {elapsed:.1f}s",
    )


def test_criterion_metrics_oracle():
    m = metrics(EVALUATION_COUNTS)
    expected_precisions = (0.9618, 0.9404, 0.9574, 0.9732, 0.9396)
    ok = all(
        abs(m.precision[c] - expected_precisions[c]) <= 0.0001
        for c in range(5)
    )
    ok = ok and abs(m.accuracy - 0.9553) <= 0.0001
    # known difference: the fixture's printed recall for the first class
    # (0.9380) contradicts its own counts; the standard column-total
    # definition gives 2062/2120
    standard_recall = 2062 / 2120
    ok = ok and abs(m.recall[0] - standard_recall) < 1e-12
    ok = ok and abs(m.recall[0] - 0.9726) <= 0.0001
    ok = ok and abs(m.recall[0] - 0.9380) > 0.03
    _report(
        "metrics reproduce recorded precisions/accuracy; recall follows "
        "the standard definition",
        ok,
        f"accuracy={m.accuracy:.4f}, recall_1={m.recall[0]:.4f}",
    )


def test_criterion_convergence_sanity():
    started = time.monotonic()

    def run():
        samples = make_toy_samples(n=200, seed=7)
        splits = split(samples, 3)
        hp = HyperParams(l2=0.0, lr=0.01, width=16, layers=7, batches=3)
        schedule = TrainingSchedule(max_epochs=50, patience=50,
                                    bptt_window=100)
        trained, _ = train(build(hp, seed=1), splits, schedule)
        labels, _ = predict(trained, splits.train.features)
        return trained, float((labels == splits.train.labels).mean())

    model_a, acc_a = run()
    model_b, acc_b = run()
    elapsed = time.monotonic() - started
    deterministic = save_checkpoint(model_a) == save_checkpoint(model_b)
    _report(
        "separable toy reaches 0.99 training accuracy within 50 epochs, "
        "deterministically",
        acc_a >= 0.99 and acc_a == acc_b and deterministic and elapsed < 60.0,
        f"accuracy={acc_a:.4f}, {elapsed:.1f}s",
    )


def test_criterion_replay_protocol(five_class_model):
    started = time.monotonic()
    # 80 decision samples drawn from the 5-class toy distributions
    samples = make_toy_samples(n=80, seed=99, n_classes=5)
    session = DeviceSession(APPLIANCE_PROFILE)
    step_ms = 700  # close enough for consecutive holds to overlap
    log = replay(five_class_model, samples.features, session, cadence=1,
                 step_ms=step_ms)

    ok = len(log) == 80
    ok = ok and len(session.transcript) == 80
    seqs = [entry[1] for entry in session.transcript]
    ok = ok and seqs == list(range(1, 81))  # every command acked once, in order
    ok = ok and all(
        action == APPLIANCE_PROFILE.actions[label]
        for _, _, label, action in log
    )
    ok = ok and {label for _, _, label, _ in log} == {1, 2, 3, 4, 5}

    # event-list oracle: feed the replayed lines to a fresh session one
    # command at a time and probe LED state between commands; an LED is on
    # at time p exactly when some earlier command's [t, t+2000) interval
    # covers p
    color_of = {1: ("blue",), 2: ("white",), 3: ("yellow",), 4: ("red",),
                5: ("blue", "white", "yellow", "red")}

    device = DeviceSession(APPLIANCE_PROFILE)
    events = []  # (t, colors)
    for i, (t_ms, seq, label, _) in enumerate(log):
        device.handle_line(encode_command(
            Command(seq, label, APPLIANCE_PROFILE.wire_ids[label], t_ms)))
        events.append((t_ms, color_of[label]))
        next_t = log[i + 1][0] if i + 1 < len(log) else t_ms + 2 * LED_HOLD_MS
        probes = set(range(t_ms, next_t, 211))
        for t_done, colors in events:
            probes.add(min(next_t - 1, t_done + LED_HOLD_MS - 1))
            probes.add(min(next_t - 1, t_done + LED_HOLD_MS))
        for probe in sorted(probes):
            if probe < t_ms:
                continue
            for color in ("blue", "white", "yellow", "red"):
                oracle = any(
                    t0 <= probe < t0 + LED_HOLD_MS
                    for t0, cs in events
                    if color in cs
                )
                if device.led_on(color, probe) != oracle:
                    ok = False
    elapsed = time.monotonic() - started
    _report(
        "80-command replay: all acknowledged, mapped per profile, LEDs "
        "off exactly 2000 ms after activation",
        ok and elapsed < 5.0,
        f"{len(log)} commands, {elapsed:.2f}s",
    )


def test_criterion_round_trips():
    rng = np.random.default_rng(31)

    # EDF: 100 randomized recordings through serialize/parse
    edf_ok = True
    for case in range(100):
        n_channels = int(rng.integers(1, 4))
        n_records = int(rng.integers(1, 3))
        channels, signals = [], []
        for i in range(n_channels):
            spr = int(rng.integers(1, 6))
            dmin = int(rng.integers(-32768, 32700))
            dmax = int(rng.integers(dmin + 1, 32768))
            pmin = float(rng.integers(-9999, 9999))
            pmax = pmin + float(rng.integers(1, 999))
            channels.append(
                EdfChannel(
                    label=f"ch{i}",
                    physical_min=pmin,
                    physical_max=pmax,
                    digital_min=dmin,
                    digital_max=dmax,
                    samples_per_record=spr,
                )
            )
            signals.append(
                rng.integers(dmin, dmax + 1, size=n_records * spr).astype(np.int16)
                if dmax < 32768
                else np.zeros(n_records * spr, dtype=np.int16)
            )
        onsets = np.sort(rng.integers(0, 300, size=int(rng.integers(0, 4))))
        annotations = [
            EdfAnnotation(float(o), float(rng.integers(0, 50)) / 10.0, "T1")
            for o in onsets
        ]
        rec = EdfRecording(
            patient_id=f"case {case}",
            recording_id="rt",
            start=datetime(2020, 5, 17, 1, 2, 3),
            n_records=n_records,
            record_duration=float(rng.integers(1, 5)),
            channels=channels,
            signals=signals,
            annotations=annotations,
        )
        blob = serialize_edf(rec)
        if parse_edf(blob) != rec or serialize_edf(parse_edf(blob)) != blob:
            edf_ok = False
            break

    # checkpoints: 100 randomized models through save/load
    ckpt_ok = True
    for case in range(100):
        hp = HyperParams(
            l2=0.001, lr=0.01,
            width=int(rng.integers(1, 7)),
            layers=int(rng.integers(4, 8)),
            batches=int(rng.integers(1, 5)),
        )
        model = build(hp, seed=int(rng.integers(0, 2**31)))
        model.epochs_run = int(rng.integers(0, 1000))
        model.final_loss = float(rng.uniform(0, 3))
        blob = save_checkpoint(model)
        back = load_checkpoint(blob)
        if save_checkpoint(back) != blob:
            ckpt_ok = False
            break
        for la, lb in zip(model.layers, back.layers):
            for (_, xa), (_, xb) in zip(la.arrays(), lb.arrays()):
                if not np.array_equal(xa, xb):
                    ckpt_ok = False

    _report(
        "EDF and checkpoint round trips exact on 100 randomized instances each",
        edf_ok and ckpt_ok,
        f"edf={edf_ok}, checkpoint={ckpt_ok}",
    )


# ---------------------------------------------------------------------------
# long-running, data-dependent criterion

EEGMMIDB_ENV = "MINDCTL_EEGMMIDB_DIR"


def test_criterion_end_to_end_dataset():
    """Per-subject protocol over the public 64-channel recordings.

    For each of the first 10 subjects: extract 28,000 labeled samples,
    split with batch count 3 (21,000 train / 7,000 test), train at the
    tuned settings, and score the held-out batch; the exact KNN (k=3)
    baseline runs on the same split. The pass bar is (a) mean model
    accuracy strictly above the mean KNN accuracy and (b) mean KNN
    accuracy within +-0.05 of the recorded 0.8369 reference.
    """
    data_dir = os.environ.get(EEGMMIDB_ENV)
    if not data_dir or not os.path.isdir(data_dir):
        pytest.skip(
            f"set {EEGMMIDB_ENV} to a directory of S###R##.edf recordings "
            f"to run the full-dataset criterion (multi-hour, needs the "
            f"public dataset)"
        )

    from mindctl.dataset import default_mapping, find_recordings, ingest_subject

    max_epochs = int(os.environ.get("MINDCTL_E2E_EPOCHS", "100"))
    mapping = default_mapping()
    found = find_recordings(data_dir)
    subjects = sorted(found)[:10]
    assert len(subjects) == 10, f"need 10 subjects, found {len(subjects)}"

    hp = HyperParams(l2=0.004, lr=0.005, width=64, layers=7, batches=3)
    schedule = TrainingSchedule(max_epochs=max_epochs, patience=10,
                                bptt_window=100)
    model_accs, knn_accs = [], []
    for subject in subjects:
        samples = ingest_subject(
            found[subject], (2, 4, 6, 8, 10, 12, 14), mapping, cap=28000
        )
        assert len(samples) == 28000
        splits = split(samples, 3)
        assert len(splits.train) == 21000 and len(splits.test) == 7000

        trained, _ = train(build(hp, seed=0), splits, schedule)
        labels, _ = predict(trained, splits.test.features)
        acc = float((labels == splits.test.labels).mean())
        knn_labels = knn_classify(splits.train, splits.test.features, k=3)
        knn_acc = float((knn_labels == splits.test.labels).mean())
        print(f"subject {subject}: model {acc:.4f}, knn {knn_acc:.4f}")
        model_accs.append(acc)
        knn_accs.append(knn_acc)

    mean_model = float(np.mean(model_accs))
    mean_knn = float(np.mean(knn_accs))
    _report(
        "full-dataset run: model beats KNN and KNN lands near its reference",
        mean_model > mean_knn and abs(mean_knn - 0.8369) <= 0.05,
        f"model {mean_model:.4f} vs knn {mean_knn:.4f} (reference 0.9553/0.8369)",
    )
