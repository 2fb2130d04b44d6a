"""End-to-end subcommand tests over tiny synthetic inputs."""

import itertools
import json
import multiprocessing
import os
import re
import shlex
import signal
import socket
import subprocess
import sys
import threading
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import mindctl
from mindctl import cli, dataset, device, model, oa
from mindctl.cli import DEFAULT_LEVELS, EXIT_INTERNAL, build_parser, main
from mindctl.dataset import TABLE_HEADER, SampleSet, load_table, save_table
from mindctl.edf import EdfAnnotation, EdfChannel, EdfRecording, serialize_edf
from mindctl.errors import ProtocolError
from helpers import make_toy_samples

RATE = 10  # Hz, 1-second records


def _write_run(path, seed, annotations, first_rate=RATE):
    rng = np.random.default_rng(seed)
    rates = [first_rate] + [RATE] * 63
    channels = [
        EdfChannel(
            label=f"EEG {i}",
            physical_min=-2048.0,
            physical_max=2047.0,
            digital_min=-2048,
            digital_max=2047,
            samples_per_record=rate,
        )
        for i, rate in enumerate(rates)
    ]
    signals = [
        rng.integers(-2048, 2048, size=4 * rate).astype(np.int16)
        for rate in rates
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


def test_ingest_finds_recordings_in_any_letter_case(edf_dir, tmp_path):
    run = edf_dir / "S002" / "S002R04.edf"
    run.rename(run.with_suffix(".EDF"))
    out = tmp_path / "out"
    assert main(["ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6",
                 "--out-dir", str(out)]) == 0
    assert len(load_table(out / "dataset.csv")) == 240


def test_ingest_rejects_a_run_recorded_twice(edf_dir, tmp_path, capsys):
    first = edf_dir / "S001" / "S001R04.edf"
    second = edf_dir / "copy" / "s001r04.edf"
    second.parent.mkdir()
    second.write_bytes(first.read_bytes())
    out = tmp_path / "out"
    assert main(["ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6",
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    assert not (out / "dataset.csv").exists()


@pytest.mark.parametrize("runs", ["4,4", "4,04"])
def test_ingest_rejects_a_repeated_run_number(edf_dir, tmp_path, capsys, runs):
    out = tmp_path / "out"
    assert main(["ingest", "--edf-dir", str(edf_dir), "--runs", runs,
                 "--out-dir", str(out)]) == 3
    assert "run 4 given more than once" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


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


@pytest.mark.parametrize("source", ["train.csv", "test.csv", "link.csv"])
def test_split_may_overwrite_its_own_source(tmp_path, source):
    # the source is read whole before either output is written
    d = tmp_path / "d"
    d.mkdir()
    save_table(make_toy_samples(n=48, seed=1), d / "all.csv")
    assert main(["split", "--data", str(d / "all.csv"), "--n-b", "3",
                 "--out-dir", str(d)]) == 0
    (d / "link.csv").symlink_to(d / "test.csv")
    samples = load_table(d / source)
    blocks = dataset.split(samples, 2)
    want = tmp_path / "want"
    want.mkdir()
    save_table(blocks.train, want / "train.csv")
    save_table(blocks.test, want / "test.csv")
    assert main(["split", "--data", str(d / source), "--n-b", "2",
                 "--out-dir", str(d)]) == 0
    for name in ("train.csv", "test.csv", "train.csv.bin", "test.csv.bin"):
        assert (d / name).read_bytes() == (want / name).read_bytes()


@pytest.mark.parametrize("edit", [(b"\n", b"\n# note\n"), (b",2\n", b",2#9\n")],
                         ids=["comment_line", "comment_in_cell"])
def test_table_with_a_hash_is_a_data_error(tmp_path, capsys, edit):
    data = tmp_path / "data.csv"
    samples = make_toy_samples(n=28, seed=1)
    samples.labels[:] = 2
    save_table(samples, data)
    data.write_bytes(data.read_bytes().replace(*edit, 1))
    out = tmp_path / "out"
    assert main(["split", "--data", str(data), "--n-b", "3",
                 "--out-dir", str(out)]) == 3
    assert f"error: {data}: malformed table row" in capsys.readouterr().err
    assert not (out / "train.csv").exists()


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


def test_blas_thread_count_leaves_checkpoint_bytes_unchanged(tmp_path):
    # Importing mindctl pins BLAS to one thread unless the caller set a
    # count, so a run with OPENBLAS_NUM_THREADS unset writes the bytes of a
    # run with it set to 1. On a 1-core host BLAS uses one thread either way
    # and this test cannot fail.
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=2000, seed=3, n_classes=5, spread=0.15), data)
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    src = str(Path(mindctl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    checkpoints = []
    for pin in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"out{len(checkpoints)}"
        subprocess.run(
            [sys.executable, "-m", "mindctl", "train", "--data", str(data),
             "--width", "64", "--layers", "5", "--n-b", "3", "--epochs", "1",
             "--patience", "2", "--out-dir", str(out)],
            env={**env, **pin}, check=True, capture_output=True, timeout=120,
        )
        checkpoints.append((out / "model.mctl").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_tune_stub_objective_reproduces_best_levels(tmp_path, monkeypatch):
    # a recorded outcome replays from a complete results.csv, no data read
    accuracies = [
        0.689, 0.91, 0.893, 0.667, 0.925, 0.717, 0.848, 0.77,
        0.926, 0.826, 0.322, 0.367, 0.93, 0.422, 0.684, 0.404,
    ]
    out = tmp_path / "out"
    out.mkdir()
    oa.save_plan(oa.build_plan(DEFAULT_LEVELS), accuracies, out / "results.csv")
    recorded = (out / "results.csv").read_bytes()

    def no_table(path):
        raise AssertionError(f"load_table({path}) called")

    monkeypatch.setattr("mindctl.dataset.load_table", no_table)
    rc = main(["tune", "--no-confirm", "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "analysis.csv").read_text().splitlines()
    best = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
    assert best == {"l2": "0.004", "lr": "0.005", "width": "64",
                    "layers": "7", "batches": "3"}
    assert (out / "results.csv").read_bytes() == recorded
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
    results = oa.load_results(plan, out / "results.csv")
    assert all(a is not None for a in results)
    assert results[:6] == [0.5] * 6  # recorded runs were not re-trained
    assert results[7:] == [0.5] * 9
    assert results[6] != 0.5


@pytest.mark.parametrize("last_line", [
    "0,0.404",      # outside 1..16: once stored as run 16
    "17,0.404",     # outside 1..16
    "1,0.404",      # repeated
    "sixteen,0.404",
    "16,0.404,1",
    "16,nan",
    "16,1.5",
])
def test_tune_stub_rejects_bad_run_lines(tmp_path, capsys, last_line):
    # the last results.csv row becomes "run,<values>,accuracy[,extra]",
    # with the factor values of that run (run 16's if there is no such run)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "results.csv"
    oa.save_plan(oa.build_plan(DEFAULT_LEVELS), [0.5] * 16, path)
    lines = path.read_text().splitlines()
    run, rest = last_line.split(",", 1)
    source = lines[int(run)] if run in ("1", "16") else lines[16]
    lines[16] = ",".join([run, *source.split(",")[1:-1], rest])
    path.write_text("\n".join(lines) + "\n")
    recorded = path.read_bytes()
    rc = main(["tune", "--no-confirm", "--out-dir", str(out)])
    assert rc == 3
    assert "results.csv" in capsys.readouterr().err
    assert path.read_bytes() == recorded
    assert not (out / "analysis.csv").exists()


_TINY_LEVELS = {
    "l2": [0.0, 0.001, 0.002, 0.003], "lr": [0.01, 0.02, 0.03, 0.04],
    "width": [2, 3, 4, 5], "layers": [4, 5, 6, 7], "batches": [1, 3, 6, 13],
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_tune_run_with_bad_input_is_recorded_as_failed(tmp_path, capsys, workers):
    # 28 rows do not split into 5 + 1 batches: those 4 runs fail in their
    # worker process, the rest complete, and the analysis refuses the
    # gaps; the failures and results.csv do not depend on the worker count
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps({**_TINY_LEVELS, "batches": [1, 3, 6, 5]}))

    def tune(workers, out):
        rc = main(["tune", "--data", str(data), "--levels", str(levels),
                   "--epochs", "1", "--workers", workers, "--no-confirm",
                   "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and "missing accuracies" in err
        failed = sorted(line for line in err.splitlines() if ": failed: " in line)
        return failed, (out / "results.csv").read_bytes()

    failed, results = tune(workers, tmp_path / "out")
    assert len(failed) == 4
    rows = results.decode().splitlines()[1:]
    assert sum(not row.split(",")[-1] for row in rows) == 4
    if workers != "1":
        assert tune("1", tmp_path / "one") == (failed, results)


def test_fault_inside_a_tune_run_is_internal_error(tmp_path, monkeypatch,
                                                   capsys):
    def faulty(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr("mindctl.model.sequence_gradients", faulty)
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps(_TINY_LEVELS))
    rc = main(["tune", "--data", str(data), "--levels", str(levels),
               "--epochs", "1", "--no-confirm", "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "injected fault" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_stopped_sweep_keeps_finished_runs_and_resumes(tmp_path, monkeypatch,
                                                       capsys, workers):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps(_TINY_LEVELS))
    tune = ["tune", "--data", str(data), "--levels", str(levels), "--epochs", "1",
            "--workers", workers, "--confirm", "--out-dir"]
    names = ("results.csv", "analysis.csv", "best.json", "tuned_model.mctl")
    whole, out = tmp_path / "whole", tmp_path / "out"
    assert main([*tune, str(whole)]) == 0

    calls = itertools.count(1)
    real = model.sequence_gradients

    def faulty(*args, **kwargs):
        # runs 1-3 take 1 + 3 + 6 calls at one epoch, run 4 takes 13
        if next(calls) > 20:
            raise ValueError("injected fault")
        return real(*args, **kwargs)

    monkeypatch.setattr("mindctl.model.sequence_gradients", faulty)
    capsys.readouterr()
    assert main([*tune, str(out)]) == EXIT_INTERNAL
    finished = capsys.readouterr().err.count(": accuracy ")
    plan = oa.build_plan(tuple(_TINY_LEVELS[n] for n in oa.FACTOR_NAMES))
    recorded = oa.load_results(plan, out / "results.csv")
    assert 0 < finished == sum(a is not None for a in recorded) < 16
    if workers == "1":
        assert finished == 3

    monkeypatch.setattr("mindctl.model.sequence_gradients", real)
    assert main([*tune, str(out)]) == 0
    assert capsys.readouterr().err.count(": accuracy ") == 16 - finished
    assert ({n: (out / n).read_bytes() for n in names}
            == {n: (whole / n).read_bytes() for n in names})


_REAL_TUNE_RUN = cli._tune_run


def _tune_run_killed_at_width_5(samples, values, seed, schedule):
    # module level, so the pool can pickle it by name as cli._tune_run's
    # stand-in; it runs in a worker process, which kills itself
    if values[2] == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_TUNE_RUN(samples, values, seed, schedule)


def test_worker_process_that_dies_is_a_fault_and_keeps_finished_runs(
        tmp_path, monkeypatch, capsys):
    # a killed worker sends no exception back: the pool breaks for every
    # run in flight, and tune says so in one line instead of a traceback
    monkeypatch.setattr(cli, "_tune_run", _tune_run_killed_at_width_5)
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps(_TINY_LEVELS))
    out = tmp_path / "out"
    tune = ["tune", "--data", str(data), "--levels", str(levels), "--epochs", "1",
            "--workers", "2", "--no-confirm", "--out-dir", str(out)]
    assert main(tune) == EXIT_INTERNAL
    lines = capsys.readouterr().err.splitlines()
    assert "Traceback" not in "\n".join(lines)
    assert [line for line in lines if ": accuracy " not in line] == [
        "error: a tune worker process died; results.csv keeps the finished "
        "runs and a re-run resumes from them"]
    finished = len(lines) - 1
    plan = oa.build_plan(tuple(_TINY_LEVELS[n] for n in oa.FACTOR_NAMES))
    recorded = oa.load_results(plan, out / "results.csv")
    assert 0 < finished == sum(a is not None for a in recorded) < 16
    assert all(a is None for run, a in enumerate(recorded)
               if oa.run_values(plan, run)[2] == 5)
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(cli, "_tune_run", _REAL_TUNE_RUN)
    assert main(tune) == 0
    err = capsys.readouterr().err
    assert f"resuming: {finished} of 16 runs already recorded" in err
    assert err.count(": accuracy ") == 16 - finished
    resumed = oa.load_results(plan, out / "results.csv")
    assert None not in resumed
    assert [b for a, b in zip(recorded, resumed) if a is not None] == [
        a for a in recorded if a is not None]


def test_tune_forks_no_more_workers_than_pending_runs(tmp_path, monkeypatch):
    sizes, real = [], cli.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording)
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps(_TINY_LEVELS))
    out = tmp_path / "out"
    out.mkdir()
    plan = oa.build_plan(tuple(_TINY_LEVELS[n] for n in oa.FACTOR_NAMES))
    oa.save_plan(plan, [0.5] * 15 + [None], out / "results.csv")
    tune = ["tune", "--data", str(data), "--levels", str(levels), "--epochs", "1",
            "--workers", "4", "--no-confirm", "--out-dir", str(out)]
    assert main(tune) == 0 and main(tune) == 0  # one run pending, then none
    assert sizes == [1, 1]


def test_tune_forks_its_workers_before_any_dispatch_thread(tmp_path, monkeypatch):
    # a process that forks while other threads run hands the child copies
    # of whatever locks they hold; Python 3.12 and later warn about it
    counts, real = [], os.fork

    def recording():
        counts.append(threading.active_count())
        return real()

    monkeypatch.setattr(os, "fork", recording)
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps(_TINY_LEVELS))
    before = threading.active_count()
    assert main(["tune", "--data", str(data), "--levels", str(levels), "--epochs", "1",
                 "--workers", "2", "--no-confirm", "--out-dir", str(tmp_path / "out")]) == 0
    assert counts == [before, before]


def test_tune_confirm_outputs_identical_for_one_and_two_workers(tmp_path):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps({
        "l2": [0.0, 0.001, 0.002, 0.003], "lr": [0.01, 0.02, 0.03, 0.04],
        "width": [2, 3, 4, 5], "layers": [4, 5, 6, 7], "batches": [1, 3, 6, 13],
    }))
    names = ("results.csv", "analysis.csv", "best.json", "tuned_model.mctl")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert main([
            "tune", "--data", str(data), "--levels", str(levels), "--epochs", "2",
            "--workers", workers, "--confirm", "--out-dir", str(out),
        ]) == 0
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("duration", [b"nan     ", b"inf     "])
def test_ingest_non_finite_record_duration_is_data_error(edf_dir, tmp_path,
                                                         capsys, duration):
    path = edf_dir / "S002" / "S002R04.edf"
    blob = path.read_bytes()
    path.write_bytes(blob[:244] + duration + blob[252:])  # record duration field
    rc = main(["ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "non-finite record duration" in capsys.readouterr().err


@pytest.mark.parametrize("duration, onset", [
    (b"1e-300  ", 1e10),  # the onset's sample index overflows to inf
    (b"5e-324  ", 0.0),   # an infinite rate puts onset 0 at NaN
])
def test_ingest_extreme_record_timing_is_data_error(edf_dir, tmp_path, capsys,
                                                    duration, onset):
    # the one matched window's bounds are not finite, so it is skipped and
    # the run has none: one line, no traceback
    path = edf_dir / "S001" / "S001R04.edf"
    _write_run(path, 4, [EdfAnnotation(onset, 2.0, "T1")])
    blob = path.read_bytes()
    path.write_bytes(blob[:244] + duration + blob[252:])  # record duration field
    rc = main(["ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: mapping matches no annotation present in run 4"]


def test_corrupt_checkpoint_is_data_error(tmp_path):
    bad = tmp_path / "bad.mctl"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    data = tmp_path / "d.csv"
    save_table(make_toy_samples(n=14, seed=0), data)
    rc = main(["predict", "--model", str(bad), "--data", str(data),
               "--out-dir", str(tmp_path)])
    assert rc == 3



@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_device_port_outside_its_range_is_data_error(tmp_path, capsys, port):
    # checked before the config is written: socket.bind would raise an
    # OverflowError, an internal error, with the config already on disk
    rc = main(["serve-device", "--profile", "robot", "--port", port,
               "--transcript", str(tmp_path / "transcript.csv")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: --port must be in 0..65535, got {port}"]
    assert list(tmp_path.iterdir()) == []


def test_serve_device_serves_one_session(tmp_path, monkeypatch):
    # the port comes from the "listening on port N" log line of port 0
    logged, ready = [], threading.Event()

    def log(message):
        logged.append(message)
        if message.startswith("listening on port "):
            ready.set()

    monkeypatch.setattr(cli, "_log", log)
    transcript = tmp_path / "transcript.csv"
    rc = []
    server = threading.Thread(target=lambda: rc.append(main(
        ["serve-device", "--profile", "robot", "--once", "--port", "0",
         "--transcript", str(transcript)])), daemon=True)
    server.start()
    try:
        assert ready.wait(5), logged
        port = int(logged[-1].rsplit(" ", 1)[1])
        with socket.create_connection(("127.0.0.1", port), 5) as conn:
            with conn.makefile("rb") as reader:
                conn.sendall(b"CMD 1 4 GRASP 0\n")
                assert reader.readline() == b"ACK 1\n"
    finally:
        server.join(5)
    assert not server.is_alive() and rc == [0]
    assert transcript.read_text().splitlines() == ["t_ms,seq,label,action,ack",
                                                   "0,1,4,Grasp,1"]
    config = json.loads((tmp_path / "serve_device_config.json").read_text())
    assert (config["profile"], config["port"], config["once"]) == ("robot", 0, True)


_BAD_CONFIGS = {"config": {"width": "x"}, "config_key": {"widht": 4},
                "config_data_int": {"data": 5}, "config_data_list": {"data": ["a"]}}
_BAD_LEVELS = {
    "levels": {"l2": 0.001},
    "levels_list": {"l2": [[0], [1], [2], [3]]},
    "levels_text": {"l2": "abcd"},
    "levels_nan": {"lr": [float("nan"), 0.02, 0.03, 0.04]},
    "levels_bool": {"layers": [True, 5, 6, 7]},
    "levels_fraction": {"width": [2.5, 3, 4, 5]},
    "levels_layers": {"layers": [3, 4, 5, 6]},
    "levels_lr": {"lr": [0, 0.01, 0.02, 0.03]},
}
_BAD_FLAGS = {"lambda_nan": ["--lambda", "nan"], "lr_inf": ["--lr", "inf"],
              "seed": ["--seed", "-1"]}
_BAD_TUNE_FLAGS = {"tune_epochs": ["--epochs", "-1"], "tune_seed": ["--seed", "-1"],
                   "tune_bptt": ["--bptt", "0"]}
_BAD_INGEST_FLAGS = {"subjects": ["--subjects", "-1"],
                     "per_subject": ["--per-subject", "0"]}
# the setting each case's message names, where the case checks it
_NAMED = {"levels_layers": "layers", "levels_lr": "lr", "tune_epochs": "epochs",
          "tune_seed": "seed", "tune_bptt": "bptt", "subjects": "--subjects",
          "per_subject": "--per-subject", "step_ms": "step_ms"}


@pytest.mark.parametrize("case", [
    "runs", "layer", "knn_k", "cadence", "step_ms", "empty_table",
    "non_utf8_table", *_BAD_LEVELS, "tune_no_data", "workers", *_BAD_TUNE_FLAGS,
    *_BAD_INGEST_FLAGS, *_BAD_CONFIGS, *_BAD_FLAGS,
])
def test_bad_input_at_each_boundary_is_data_error(trained_run, edf_dir, case,
                                                  capsys, monkeypatch):
    def no_pool(*args, **kwargs):  # bad tune input fails before any run
        raise AssertionError("tune created its process pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    tmp = trained_run["tmp"]
    net, test = str(trained_run["model"]), str(trained_run["test"])
    header_only = tmp / "header_only.csv"
    save_table(SampleSet(np.empty((0, 64)), np.empty(0)), header_only)
    non_utf8 = tmp / "non_utf8.csv"
    non_utf8.write_bytes(trained_run["test"].read_bytes().replace(b",", b"\xff,", 1))
    levels = tmp / "levels.json"
    levels.write_text(json.dumps({**_TINY_LEVELS, **_BAD_LEVELS.get(case, {})}))
    config = tmp / "config.json"
    config.write_text(json.dumps({"data": str(trained_run["train"]),
                                  **_BAD_CONFIGS.get(case, {})}))
    tune = ["tune", "--data", test, "--levels", str(levels)]
    argv = {
        "runs": ["ingest", "--edf-dir", str(edf_dir), "--runs", "a"],
        "layer": ["export-activations", "--model", net, "--data", test,
                  "--layer", "99"],
        "knn_k": ["eval", "--model", net, "--data", test,
                  "--knn-train", str(trained_run["train"]), "--knn-k", "0"],
        "cadence": ["replay", "--model", net, "--data", test,
                    "--profile", "appliance", "--cadence", "0"],
        "step_ms": ["replay", "--model", net, "--data", test,
                    "--profile", "appliance", "--step-ms", "-1"],
        "empty_table": ["eval", "--model", net, "--data", str(header_only)],
        "non_utf8_table": ["eval", "--model", net, "--data", str(non_utf8)],
        **{name: tune for name in _BAD_LEVELS},
        "tune_no_data": ["tune", "--levels", str(levels)],
        "workers": [*tune, "--workers", "0"],
        **{name: [*tune, *flags] for name, flags in _BAD_TUNE_FLAGS.items()},
        **{name: ["ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6", *flags]
           for name, flags in _BAD_INGEST_FLAGS.items()},
        **{name: ["train", "--config", str(config)] for name in _BAD_CONFIGS},
        **{name: ["train", "--data", str(trained_run["train"]), "--epochs", "1",
                  *flags] for name, flags in _BAD_FLAGS.items()},
    }[case]
    assert main([*argv, "--out-dir", str(tmp / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert _NAMED.get(case, "") in err
    assert not (tmp / "out" / "results.csv").exists()  # no tune run trained
    assert not (tmp / "out" / "model.mctl").exists()
    assert not (tmp / "out" / "dataset.csv").exists()
    assert not (tmp / "out" / "command_log.csv").exists()
    assert not (tmp / "out" / "report.csv").exists()  # eval writes all or none
    assert not list((tmp / "out").glob("roc_class*.csv"))


@pytest.mark.parametrize("case", [
    "no_recordings", "too_many_subjects", "missing_run", "too_few_samples",
    "mixed_samples_per_record", "negative_onset", "unknown_reserved_field",
    "mapping_rule_without_label", "config_array", "no_dataset",
    "wrong_column_count", "whitespace_rows", "n_b_0", "n_b_negative",
])
def test_bad_input_exits_3_in_one_line(edf_dir, tmp_path, capsys, case):
    run = edf_dir / "S001" / "S001R04.edf"
    if case == "mixed_samples_per_record":
        _write_run(run, 4, [EdfAnnotation(0.0, 2.0, "T1")], first_rate=2 * RATE)
    elif case == "negative_onset":  # the T2 annotation's TAL, onset +2
        run.write_bytes(run.read_bytes().replace(b"+2\x152\x14T2", b"-2\x152\x14T2"))
    elif case == "unknown_reserved_field":  # the 44 bytes at offset 192
        blob = run.read_bytes()
        run.write_bytes(blob[:192] + b"EDF+X".ljust(44) + blob[236:])
    empty = tmp_path / "empty"
    empty.mkdir()
    mapping, config = tmp_path / "mapping.json", tmp_path / "config.json"
    mapping.write_text(json.dumps({"rules": [{"runs": [4], "annotation": "T1"}]}))
    config.write_text("[1]")
    table = tmp_path / "table.csv"
    table.write_text(TABLE_HEADER + {"wrong_column_count": "\n1,2,3\n",
                                     "whitespace_rows": "\n   \n"}.get(case, "\n"))
    good = tmp_path / "good.csv"
    save_table(make_toy_samples(n=28, seed=1), good)
    ingest = ["ingest", "--edf-dir", str(edf_dir), "--runs", "2,4,6"]
    argv, line = {
        "no_recordings": (["ingest", "--edf-dir", str(empty)],
                          f"no recordings named like S001R04.edf under {empty}"),
        "too_many_subjects": ([*ingest, "--subjects", "3"],
                              "requested 3 subjects, found 2"),
        "missing_run": ([*ingest[:-1], "2,4,8"], "run 8 not found (have [2, 4, 6])"),
        "too_few_samples": ([*ingest, "--per-subject", "121"],
                            "subject yields 120 labeled samples, fewer than the "
                            "requested 121"),
        "mixed_samples_per_record": (
            ingest, "first 64 channels disagree on samples per record: [10, 20]"),
        "negative_onset": (ingest, "negative annotation onset -2.0"),
        "unknown_reserved_field": (ingest, "unrecognized reserved field 'EDF+X'"),
        "mapping_rule_without_label": ([*ingest, "--mapping", str(mapping)],
                                       f"invalid mapping file {mapping}: 'label'"),
        "config_array": (["train", "--config", str(config)],
                         f"{config}: expected a JSON object"),
        "no_dataset": (["train"], "no dataset given (flag --data or config entry "
                                  "'data')"),
        "wrong_column_count": (["split", "--data", str(table), "--n-b", "1"],
                               f"{table}: expected 65 columns, got 3"),
        # numpy names the cell it could not read; the line starts as given
        "whitespace_rows": (["split", "--data", str(table), "--n-b", "1"],
                            f"{table}: malformed table row: "),
        "n_b_0": (["split", "--data", str(good), "--n-b", "0"],
                  "batch count must be >= 1, got 0"),
        "n_b_negative": (["split", "--data", str(good), "--n-b", "-1"],
                         "batch count must be >= 1, got -1"),
    }[case]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {line}"), err
    assert case == "whitespace_rows" or err[0] == f"error: {line}"
    assert not list(out.glob("*"))  # nothing written


def test_non_finite_loss_exits_4_in_one_line(tmp_path, capsys):
    # an l2 of 1e308 puts the penalty, and so the first step's loss, at inf
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=1), data)
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--lambda", "1e308", "--width", "8",
                 "--layers", "4", "--epochs", "1", "--out-dir", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == [  # after the "training ..." line
        "numeric failure: non-finite training loss inf at epoch 1, batch 0"]
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command", ["train", "predict", "eval",
                                     "export-activations", "replay", "tune"])
def test_features_that_overflow_the_forward_exit_4_in_one_line(tmp_path, capsys,
                                                               command):
    # finite features between 1e308 and 1.7e308 in magnitude: the forward's
    # first product overflows, so every command that runs it on them fails
    # naming the magnitudes, and writes nothing; tune records the failure
    # of each run and then has no accuracies to analyse (exit 3)
    samples = make_toy_samples(n=28, seed=1)
    scaled = samples.features / np.abs(samples.features).max() * 1.7e308
    big = tmp_path / "big.csv"
    save_table(SampleSet(np.where(np.abs(scaled) < 1e308, np.copysign(1e308, scaled),
                                  scaled), samples.labels), big)
    save_table(samples, tmp_path / "good.csv")
    assert main(["train", "--data", str(tmp_path / "good.csv"), "--width", "8",
                 "--layers", "4", "--epochs", "0", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    trained = ["--model", str(tmp_path / "model.mctl"), "--data", str(big)]
    argv = {
        "train": ["train", "--data", str(big), "--width", "8", "--layers", "4",
                  "--epochs", "1"],
        "predict": ["predict", *trained],
        "eval": ["eval", *trained],
        "export-activations": ["export-activations", *trained, "--layer", "3"],
        "replay": ["replay", *trained, "--profile", "robot"],
        "tune": ["tune", "--data", str(big), "--epochs", "1", "--workers", "1"],
    }[command]
    out = tmp_path / "out"
    cause = ("non-finite values in the forward pass (overflow encountered in "
             "matmul): inputs up to 1.7e+308 and weights up to 1 in magnitude")
    if command == "tune":
        assert main([*argv, "--out-dir", str(out)]) == 3
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("  run (")]
        assert len(failed) == 16 and all(line.endswith(f"failed: {cause}")
                                         for line in failed)
        return
    assert main([*argv, "--out-dir", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[command == "train":] == [f"numeric failure: {cause}"]
    assert not list(out.glob("*"))


def test_protocol_error_inside_a_command_is_internal_error(tmp_path, monkeypatch,
                                                           capsys):
    # serve answers a ProtocolError with ERR and replay builds only valid
    # commands, so one that reaches main is a fault: exit 1, a traceback
    def faulty(*args, **kwargs):
        raise ProtocolError("injected fault")

    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=1), data)
    assert main(["train", "--data", str(data), "--width", "8", "--layers", "4",
                 "--epochs", "0", "--out-dir", str(tmp_path)]) == 0
    monkeypatch.setattr(device.DeviceSession, "handle", faulty)
    rc = main(["replay", "--model", str(tmp_path / "model.mctl"), "--data", str(data),
               "--profile", "robot", "--out-dir", str(tmp_path / "replay")])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "ProtocolError: injected fault" in err


@pytest.mark.parametrize("content", [b'{"rules": "\xff"}', b'{"rules": '],
                         ids=["non_utf8", "truncated"])
@pytest.mark.parametrize("command", ["train", "tune", "ingest"])
def test_unreadable_json_input_names_the_file(edf_dir, tmp_path, capsys,
                                              command, content):
    bad = tmp_path / "input.json"
    bad.write_bytes(content)
    argv = {
        "train": ["train", "--config", str(bad)],
        "tune": ["tune", "--levels", str(bad)],
        "ingest": ["ingest", "--edf-dir", str(edf_dir), "--mapping", str(bad)],
    }[command]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err
    assert "Traceback" not in err


def test_tune_levels_unknown_factor_names_file_and_key(tmp_path, capsys):
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=2), data)
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps({**_TINY_LEVELS, "momentum": [1, 2, 3, 4]}))
    out = tmp_path / "out"
    rc = main(["tune", "--data", str(data), "--levels", str(levels),
               "--epochs", "1", "--no-confirm", "--out-dir", str(out)])
    assert rc == 3
    assert f"error: {levels}: unknown factor 'momentum'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()
    levels.write_text(json.dumps(list(_TINY_LEVELS.values())))
    assert main(["tune", "--data", str(data), "--levels", str(levels),
                 "--out-dir", str(out)]) == 3
    assert f"error: {levels}: expected a JSON object" in capsys.readouterr().err


def test_oversized_model_exits_as_data_error_before_any_allocation(
        tmp_path, monkeypatch, capsys):
    # the parameter bound fires before model.build, which must not run:
    # width 200,000 would ask for a 1.16 TiB recurrent matrix
    def no_build(*args, **kwargs):
        raise AssertionError("the oversized model was built")

    monkeypatch.setattr(model, "build", no_build)
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=1), data)
    out = tmp_path / "out"
    rc = main(["train", "--data", str(data), "--width", "200000", "--layers", "4",
               "--n-b", "3", "--epochs", "0", "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: width 200000 and 4 layers make 480,053,800,005 parameters, "
        "above the limit of 10,000,000"
    ]
    assert not list(out.iterdir())


def test_fault_inside_a_subcommand_is_internal_error(tmp_path, monkeypatch,
                                                     capsys):
    # a ValueError from program code is a bug, not bad input
    def faulty(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr("mindctl.model.sequence_gradients", faulty)
    data = tmp_path / "data.csv"
    save_table(make_toy_samples(n=28, seed=1), data)
    rc = main(_train_args(data, tmp_path / "out"))
    assert rc == EXIT_INTERNAL
    assert rc not in (0, 2, 3, 4, 5)
    err = capsys.readouterr().err
    assert "Traceback" in err and "injected fault" in err


# ---------------------------------------------------------------------------
# documentation

def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    script = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S))
    lines = [shlex.split(line, comments=True)
             for line in script.replace("\\\n", " ").splitlines()]
    commands = [line[1:] for line in lines if line[:1] == ["mindctl"]]
    assert {argv[0] for argv in commands} == {
        "ingest", "split", "train", "tune", "eval", "predict",
        "export-activations", "replay", "serve-device",
    }
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: mindctl {shlex.join(argv)}")
