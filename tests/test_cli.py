"""End-to-end subcommand tests over tiny synthetic inputs."""

from datetime import datetime

import numpy as np
import pytest

from mindctl.cli import main
from mindctl.dataset import load_table, save_table
from mindctl.edf import EdfAnnotation, EdfChannel, EdfRecording, serialize_edf
from helpers import make_toy_samples

RATE = 10  # Hz, 1-second records


def _write_run(path, seed, annotations):
    rng = np.random.default_rng(seed)
    channels = [
        EdfChannel(
            label=f"EEG {i}",
            physical_min=-2048.0,
            physical_max=2047.0,
            digital_min=-2048,
            digital_max=2047,
            samples_per_record=RATE,
        )
        for i in range(64)
    ]
    signals = [
        rng.integers(-2048, 2048, size=4 * RATE).astype(np.int16)
        for _ in range(64)
    ]
    rec = EdfRecording(
        patient_id="p",
        recording_id="r",
        start=datetime(2009, 1, 1),
        n_records=4,
        record_duration=1.0,
        channels=channels,
        signals=signals,
        annotations=annotations,
    )
    path.write_bytes(serialize_edf(rec))


@pytest.fixture
def edf_dir(tmp_path):
    root = tmp_path / "edf"
    for s, subject in enumerate(("S001", "S002")):
        d = root / subject
        d.mkdir(parents=True)
        _write_run(d / f"{subject}R02.edf", 10 * s + 2,
                   [EdfAnnotation(0.0, 4.0, "T0")])
        _write_run(d / f"{subject}R04.edf", 10 * s + 4,
                   [EdfAnnotation(0.0, 2.0, "T1"), EdfAnnotation(2.0, 2.0, "T2")])
        _write_run(d / f"{subject}R06.edf", 10 * s + 6,
                   [EdfAnnotation(0.0, 2.0, "T1"), EdfAnnotation(2.0, 2.0, "T2")])
    return root


def test_ingest_builds_combined_table(edf_dir, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6",
        "--out-dir", str(out),
    ])
    assert rc == 0
    table = load_table(out / "dataset.csv")
    assert len(table) == 240  # 2 subjects x 3 runs x 40 samples
    assert set(table.labels) == {1, 2, 3, 4, 5}
    assert (out / "ingest_config.json").exists()


def test_ingest_per_subject_cap(edf_dir, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6",
        "--per-subject", "100", "--subjects", "2", "--out-dir", str(out),
    ])
    assert rc == 0
    assert len(load_table(out / "dataset.csv")) == 200


def test_split_writes_proportional_tables(tmp_path):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=1), data)
    out = tmp_path / "out"
    rc = main(["split", "--data", str(data), "--n-b", "3",
               "--out-dir", str(out)])
    assert rc == 0
    assert len(load_table(out / "train.csv")) == 21
    assert len(load_table(out / "test.csv")) == 7


def test_split_indivisible_is_data_error(tmp_path):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=27, seed=1), data)
    rc = main(["split", "--data", str(data), "--n-b", "3",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3


def _train_args(data, out, seed="7"):
    return [
        "train", "--data", str(data), "--n-b", "3", "--lambda", "0.001",
        "--lr", "0.01", "--width", "6", "--layers", "5", "--seed", seed,
        "--epochs", "3", "--out-dir", str(out),
    ]


def test_train_same_seed_byte_identical_checkpoints(tmp_path):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=1), data)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(data, out_a)) == 0
    assert main(_train_args(data, out_b)) == 0
    assert (out_a / "model.mctl").read_bytes() == (out_b / "model.mctl").read_bytes()
    history = (out_a / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,test_accuracy"
    assert len(history) == 1 + 1 + 3  # header + pre-training row + 3 epochs


def test_train_config_rerun_is_identical(tmp_path):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=1), data)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(data, out_a)) == 0
    rc = main(["train", "--config", str(out_a / "train_config.json"),
               "--out-dir", str(out_b)])
    assert rc == 0
    assert (out_a / "model.mctl").read_bytes() == (out_b / "model.mctl").read_bytes()


def test_tune_stub_objective_reproduces_best_levels(tmp_path):
    accuracies = [
        0.689, 0.91, 0.893, 0.667, 0.925, 0.717, 0.848, 0.77,
        0.926, 0.826, 0.322, 0.367, 0.93, 0.422, 0.684, 0.404,
    ]
    stub = tmp_path / "stub.csv"
    stub.write_text(
        "run,accuracy\n"
        + "".join(f"{i + 1},{a}\n" for i, a in enumerate(accuracies))
    )
    out = tmp_path / "out"
    rc = main(["tune", "--accuracies-csv", str(stub), "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "analysis.csv").read_text().splitlines()
    best = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
    assert best == {"l2": "0.004", "lr": "0.005", "width": "64",
                    "layers": "7", "batches": "3"}
    assert (out / "results.csv").exists()
    assert (out / "best.json").exists()


def test_tune_trains_tiny_sweep(tmp_path):
    # real objective on a tiny dataset: levels shrunk so every run is fast
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(
        '{"l2": [0.0, 0.001, 0.002, 0.003],'
        ' "lr": [0.01, 0.02, 0.03, 0.04],'
        ' "width": [2, 3, 4, 5],'
        ' "layers": [4, 5, 6, 7],'
        ' "batches": [1, 3, 6, 13]}'
    )
    out = tmp_path / "out"
    rc = main([
        "tune", "--data", str(data), "--levels", str(levels),
        "--epochs", "1", "--out-dir", str(out), "--no-confirm",
    ])
    assert rc == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 17
    assert all(row.split(",")[-1] for row in rows[1:])  # all 16 ran


def test_tune_resumes_from_partial_results(tmp_path):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(
        '{"l2": [0.0, 0.001, 0.002, 0.003],'
        ' "lr": [0.01, 0.02, 0.03, 0.04],'
        ' "width": [2, 3, 4, 5],'
        ' "layers": [4, 5, 6, 7],'
        ' "batches": [1, 3, 6, 13]}'
    )
    out = tmp_path / "out"
    out.mkdir()

    # a previous sweep that finished all but run 7
    from mindctl import oa

    plan = oa.build_plan((
        (0.0, 0.001, 0.002, 0.003), (0.01, 0.02, 0.03, 0.04),
        (2, 3, 4, 5), (4, 5, 6, 7), (1, 3, 6, 13),
    ))
    partial = [0.5] * 16
    partial[6] = None
    oa.save_plan(plan, partial, out / "results.csv")

    rc = main([
        "tune", "--data", str(data), "--levels", str(levels),
        "--epochs", "1", "--out-dir", str(out), "--no-confirm",
    ])
    assert rc == 0
    _, results = oa.load_plan(out / "results.csv")
    assert all(a is not None for a in results)
    assert results[:6] == [0.5] * 6  # recorded runs were not re-trained
    assert results[7:] == [0.5] * 9
    assert results[6] != 0.5


@pytest.fixture
def trained_run(tmp_path):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=70, seed=1), data)
    out = tmp_path / "train_out"
    args = [
        "train", "--data", str(data), "--n-b", "4", "--lambda", "0.0",
        "--lr", "0.01", "--width", "8", "--layers", "5", "--seed", "3",
        "--epochs", "25", "--out-dir", str(out),
    ]
    assert main(args) == 0
    split_out = tmp_path / "split_out"
    assert main(["split", "--data", str(data), "--n-b", "4",
                 "--out-dir", str(split_out)]) == 0
    return {
        "model": out / "model.mctl",
        "train": split_out / "train.csv",
        "test": split_out / "test.csv",
        "tmp": tmp_path,
    }


def test_eval_writes_report_and_summary(trained_run):
    out = trained_run["tmp"] / "eval_out"
    rc = main([
        "eval", "--model", str(trained_run["model"]),
        "--data", str(trained_run["test"]),
        "--knn-train", str(trained_run["train"]),
        "--out-dir", str(out),
    ])
    assert rc == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[-1].startswith("accuracy,")
    import json

    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["accuracy"] <= 1.0
    assert "knn_accuracy" in summary
    # binary toy: classes 1 and 2 have defined AUCs, 3..5 do not
    assert (out / "roc_class1.csv").exists()
    assert summary["auc"][0] is not None
    assert summary["auc"][2] is None
    assert summary["macro_auc"] is None


def test_predict_row_count(trained_run):
    out = trained_run["tmp"] / "pred_out"
    rc = main(["predict", "--model", str(trained_run["model"]),
               "--data", str(trained_run["test"]), "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert len(lines) == 1 + 14  # header + test rows


def test_export_activations_input_layer_verbatim(trained_run):
    out = trained_run["tmp"] / "act_out"
    rc = main([
        "export-activations", "--model", str(trained_run["model"]),
        "--data", str(trained_run["test"]), "--layer", "1",
        "--out-dir", str(out),
    ])
    assert rc == 0
    lines = (out / "activations_layer1.csv").read_text().splitlines()
    test_table = load_table(trained_run["test"])
    assert len(lines) == 1 + len(test_table)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0
    assert first[1] == test_table.labels[0]
    assert np.array_equal(first[2:], test_table.features[0])


def test_replay_writes_logs(trained_run):
    out = trained_run["tmp"] / "replay_out"
    rc = main([
        "replay", "--model", str(trained_run["model"]),
        "--data", str(trained_run["test"]), "--profile", "appliance",
        "--out-dir", str(out),
    ])
    assert rc == 0
    log = (out / "command_log.csv").read_text().splitlines()
    assert log[0] == "t_ms,seq,label,action"
    assert len(log) == 1 + 14
    transcript = (out / "transcript.csv").read_text().splitlines()
    assert len(transcript) == 1 + 14
    import json

    summary = json.loads((out / "replay_summary.json").read_text())
    assert summary["commands"] == 14


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_missing_data_file_is_data_error(tmp_path):
    rc = main(["split", "--data", str(tmp_path / "nope.csv"), "--n-b", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 3


def test_eval_non_finite_table_is_data_error(trained_run):
    lines = trained_run["test"].read_text().splitlines()
    lines[1] = "nan" + lines[1][lines[1].index(","):]
    bad = trained_run["tmp"] / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--model", str(trained_run["model"]),
               "--data", str(bad), "--out-dir", str(trained_run["tmp"] / "e")])
    assert rc == 3


def test_ingest_invalid_utf8_annotation_is_data_error(edf_dir, tmp_path):
    path = edf_dir / "S002" / "S002R04.edf"
    blob = path.read_bytes()
    at = blob.index(b"\x14T1\x14")
    path.write_bytes(blob[: at + 1] + b"\xff" + blob[at + 2 :])
    rc = main(["ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3


def test_corrupt_checkpoint_is_data_error(tmp_path):
    bad = tmp_path / "bad.mctl"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    data = tmp_path / "d.csv"
    save_table(make_toy_samples(n=14, seed=0), data)
    rc = main(["predict", "--model", str(bad), "--data", str(data),
               "--out-dir", str(tmp_path)])
    assert rc == 3
