"""Byte pins for every CSV and JSON artifact mindctl writes.

Each writer gets a fixed input and its file is compared with literal
text. No pinned value comes from trained weights, whose last bits
depend on the host's BLAS kernel: the command-level checks use a model
whose output layer has zero weights, so every score is exactly 0 or 1.
"""

import argparse
import json

import numpy as np
import pytest

from mindctl import cli, device, evaluation, model, oa
from mindctl.cli import main
from mindctl.dataset import SampleSet, save_table
from mindctl.evaluation import RocCurve
from mindctl.model import HyperParams, build, save

_LEVELS = (
    (0.001, 0.002, 0.003, 0.004),
    (0.01, 0.02, 0.03, 0.04),
    (4, 5, 6, 7),
    (4, 5, 6, 7),
    (1, 2, 3, 4),
)
_ACCURACIES = [((7 * k) % 16) / 16 for k in range(16)]
_RESULTS_CSV = (
    "run,l2,lr,width,layers,batches,accuracy\n"
    "1,0.001,0.01,4,4,1,0.0\n"
    "2,0.001,0.02,5,5,2,0.4375\n"
    "3,0.001,0.03,6,6,3,0.875\n"
    "4,0.001,0.04,7,7,4,0.3125\n"
    "5,0.002,0.01,5,6,4,0.75\n"
    "6,0.002,0.02,4,7,3,\n"
    "7,0.002,0.03,7,4,2,0.625\n"
    "8,0.002,0.04,6,5,1,0.0625\n"
    "9,0.003,0.01,6,7,2,0.5\n"
    "10,0.003,0.02,7,6,1,0.9375\n"
    "11,0.003,0.03,4,5,4,0.375\n"
    "12,0.003,0.04,5,4,3,0.8125\n"
    "13,0.004,0.01,7,5,3,0.25\n"
    "14,0.004,0.02,6,4,4,0.6875\n"
    "15,0.004,0.03,5,7,1,0.125\n"
    "16,0.004,0.04,4,6,2,0.5625\n"
)
_ANALYSIS_CSV = (
    "factor,level1_sum,level2_sum,level3_sum,level4_sum,best_level,best_value\n"
    "l2,1.625,1.625,2.625,1.625,3,0.003\n"
    "lr,1.5,2.25,2.0,1.75,2,0.02\n"
    "width,1.125,2.125,2.125,2.125,2,5\n"
    "layers,2.125,1.125,3.125,1.125,3,6\n"
    "batches,1.125,2.125,2.125,2.125,2,2\n"
)


def _history(path):
    model.save_history([(0, 1.6094379124341003, 0.2), (1, np.float64(0.5), 1),
                        (2, 0.1, 2 / 3)], path)


def _roc(path):
    points = np.array([[0.0, 0.0], [0.0, 0.5], [0.25, 0.75], [1.0, 1.0]])
    evaluation.save_roc(RocCurve(points, auc=0.8), path)


def _report(path):
    counts = np.array([[3, 1, 0, 0, 0], [0, 2, 0, 0, 0], [1, 0, 4, 0, 0],
                       [0, 0, 0, 0, 0], [0, 0, 1, 0, 2]])
    evaluation.save_report(counts, evaluation.metrics(counts),
                           [0.9, 0.75, 2 / 3, None, 1.0], None, path)


def _plan(path):
    results = list(_ACCURACIES)
    results[5] = None
    oa.save_plan(oa.build_plan(_LEVELS), results, path)


def _analysis(path):
    plan = oa.build_plan(_LEVELS)
    oa.save_analysis(oa.range_analysis(plan, _ACCURACIES), path)


def _transcript(path):
    device.save_transcript([(0, 1, 1, "Turn on Blue LEDs", 1),
                            (250, 2, 5, "Turn on All LEDs", 2)], path)


def _command_log(path):
    device.save_command_log([(0, 1, 2, "Turn Left", 1), (250, 2, 4, "Grasp", 2)],
                            path)


def _activations(path):
    table = np.array([[0, 1, 0.5, -0.25], [1, 3, 1e-300, 0.1]])
    model.save_activations(table, path)


def _config(path):
    # func, out_dir and config are not recorded; a resolved value wins
    args = argparse.Namespace(command="export-activations", layer=2, knn_k=3,
                              data="t.csv", output="o.csv", func=print,
                              out_dir="out", config="c.json")
    cli._write_config(path.parent, args, output=None, l2=0.004)
    (path.parent / "export_activations_config.json").rename(path)


_PINNED = {
    "history": (_history, (
        "epoch,train_loss,test_accuracy\n"
        "0,1.6094379124341003,0.2\n"
        "1,0.5,1.0\n"
        "2,0.1,0.6666666666666666\n"
    )),
    "roc": (_roc, (
        "fpr,log10_fpr,tpr\n"
        "0.0,-inf,0.0\n"
        "0.0,-inf,0.5\n"
        "0.25,-0.6020599913279624,0.75\n"
        "1.0,0.0,1.0\n"
    )),
    "report": (_report, (
        "predicted,truth_1,truth_2,truth_3,truth_4,truth_5,precision,recall,f1,auc\n"
        "1,3,1,0,0,0,0.75,0.75,0.75,0.9\n"
        "2,0,2,0,0,0,1.0,0.6666666666666666,0.8,0.75\n"
        "3,1,0,4,0,0,0.8,0.8,0.8000000000000002,0.6666666666666666\n"
        "4,0,0,0,0,0,0.0,0.0,0.0,\n"
        "5,0,0,1,0,2,0.6666666666666666,1.0,0.8,1.0\n"
        "total,4,3,5,0,2,,,,\n"
        "average,,,,,,0.6433333333333333,0.6433333333333333,0.6300000000000001,\n"
        "accuracy,0.7857142857142857\n"
    )),
    "plan": (_plan, _RESULTS_CSV),
    "analysis": (_analysis, _ANALYSIS_CSV),
    "transcript": (_transcript, (
        "t_ms,seq,label,action,ack\n"
        "0,1,1,Turn on Blue LEDs,1\n"
        "250,2,5,Turn on All LEDs,2\n"
    )),
    "command_log": (_command_log, (
        "t_ms,seq,label,action\n"
        "0,1,2,Turn Left\n"
        "250,2,4,Grasp\n"
    )),
    "activations": (_activations, (
        "idx,label,a1,a2\n"
        "0,1,0.5,-0.25\n"
        "1,3,1e-300,0.1\n"
    )),
    "config": (_config, (
        '{\n  "command": "export-activations",\n  "data": "t.csv",\n'
        '  "knn_k": 3,\n  "l2": 0.004,\n  "layer": 2,\n  "output": null\n}\n'
    )),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_writer_bytes_are_pinned(tmp_path, name):
    write, expected = _PINNED[name]
    path = tmp_path / "artifact"
    write(path)
    assert path.read_bytes() == expected.encode("ascii")


_TEST_LABELS = [1, 2, 1, 3, 4, 1, 2, 3, 1, 4]
_TEST_FEATURES = np.arange(640, dtype=np.float64).reshape(10, 64) * 0.25 - 80.0


@pytest.fixture
def fixed_run(tmp_path):
    """Tables and a checkpoint whose scores are exactly (1, 0, 0, 0, 0)."""
    save_table(SampleSet(_TEST_FEATURES, _TEST_LABELS), tmp_path / "test.csv")
    save_table(SampleSet(_TEST_FEATURES[::-1] + 0.5,
                         [2, 2, 3, 1, 1, 4, 4, 5, 1, 3]), tmp_path / "train.csv")
    net = build(HyperParams(l2=0.0, lr=0.01, width=3, layers=4, batches=1), seed=0)
    net.layers[-1].W[:] = 0.0
    net.layers[-1].b[:] = [10.0, -1000.0, -1000.0, -1000.0, -1000.0]
    (tmp_path / "m.mctl").write_bytes(save(net))
    return tmp_path


def test_command_artifacts_are_pinned(fixed_run):
    tmp, out = fixed_run, fixed_run / "out"
    common = ["--model", str(tmp / "m.mctl"), "--data", str(tmp / "test.csv"),
              "--out-dir", str(out)]
    assert main(["eval", *common, "--knn-train", str(tmp / "train.csv")]) == 0
    assert main(["predict", *common]) == 0
    assert main(["replay", *common, "--profile", "robot", "--cadence", "3"]) == 0
    levels = tmp / "levels.json"
    levels.write_text(json.dumps(dict(zip(oa.FACTOR_NAMES, _LEVELS))))
    complete = _RESULTS_CSV.replace(",4,7,3,\n", ",4,7,3,1.0\n")
    (out / "results.csv").write_text(complete)
    assert main(["tune", "--levels", str(levels), "--no-confirm",
                 "--out-dir", str(out)]) == 0

    walk = [f"{250 * k},{k + 1},1,Walk Ahead" for k in range(4)]
    expected = {
        "summary.json": (
            '{\n  "accuracy": 0.4,\n  "auc": [\n    0.5,\n    0.5,\n    0.5,\n'
            '    0.5,\n    null\n  ],\n  "knn_accuracy": 0.3,\n'
            '  "macro_auc": null,\n  "macro_f1": 0.1142857142857143,\n'
            '  "macro_precision": 0.08,\n  "macro_recall": 0.2\n}\n'
        ),
        "report.csv": (
            "predicted,truth_1,truth_2,truth_3,truth_4,truth_5,precision,recall,f1,auc\n"
            "1,4,2,2,2,0,0.4,1.0,0.5714285714285715,0.5\n"
            "2,0,0,0,0,0,0.0,0.0,0.0,0.5\n"
            "3,0,0,0,0,0,0.0,0.0,0.0,0.5\n"
            "4,0,0,0,0,0,0.0,0.0,0.0,0.5\n"
            "5,0,0,0,0,0,0.0,0.0,0.0,\n"
            "total,4,2,2,2,0,,,,\n"
            "average,,,,,,0.08,0.2,0.1142857142857143,\n"
            "accuracy,0.4\n"
        ),
        "roc_class4.csv": "fpr,log10_fpr,tpr\n0.0,-inf,0.0\n1.0,0.0,1.0\n",
        "predictions.csv": "label,score1,score2,score3,score4,score5\n"
                           + "1,1.0,0.0,0.0,0.0,0.0\n" * 10,
        "replay_summary.json": '{\n  "commands": 4,\n  "match_rate": 0.75\n}\n',
        "command_log.csv": "t_ms,seq,label,action\n" + "".join(
            f"{row}\n" for row in walk),
        "transcript.csv": "t_ms,seq,label,action,ack\n" + "".join(
            f"{row},{seq}\n" for seq, row in enumerate(walk, start=1)),
        "results.csv": complete,  # a replayed sweep rewrites the same bytes
        "best.json": (
            '{\n  "best": {\n    "batches": 3,\n    "l2": 0.003,\n'
            '    "layers": 6,\n    "lr": 0.02,\n    "width": 5\n  },\n'
            '  "savings": 0.984375\n}\n'
        ),
    }
    assert not (out / "roc_class5.csv").exists()  # no class-5 positives
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode("ascii"), name

    # each config is every flag as parsed plus what the command resolved
    inputs = {"model": str(tmp / "m.mctl"), "data": str(tmp / "test.csv")}
    configs = {
        "eval": {**inputs, "knn_train": str(tmp / "train.csv"), "knn_k": 3},
        "predict": {**inputs, "output": str(out / "predictions.csv")},
        "replay": {**inputs, "profile": "robot", "cadence": 3, "step_ms": 250},
        "tune": {"data": None, "levels": dict(zip(oa.FACTOR_NAMES,
                                                  map(list, _LEVELS))),
                 "seed": 0, "epochs": 300, "patience": 20, "bptt": 100,
                 "workers": 1, "confirm": False},
    }
    for command, flags in configs.items():
        config = json.loads((out / f"{command}_config.json").read_text())
        assert config == {"command": command, **flags}, command


def test_predict_writes_scores_in_shortest_round_trip_form(tmp_path):
    # a freshly built model; the expected text is formatted here from the
    # model's own scores, so no BLAS-dependent value is pinned
    net = build(HyperParams(l2=0.0, lr=0.01, width=4, layers=5, batches=1), seed=5)
    (tmp_path / "m.mctl").write_bytes(save(net))
    save_table(SampleSet(_TEST_FEATURES, _TEST_LABELS), tmp_path / "t.csv")
    assert main(["predict", "--model", str(tmp_path / "m.mctl"),
                 "--data", str(tmp_path / "t.csv"), "--out-dir", str(tmp_path)]) == 0
    labels, scores = model.predict(net, _TEST_FEATURES)
    rows = "".join(f"{label}," + ",".join(repr(float(s)) for s in row) + "\n"
                   for label, row in zip(labels.tolist(), scores))
    expected = "label,score1,score2,score3,score4,score5\n" + rows
    assert (tmp_path / "predictions.csv").read_text() == expected
