"""Command-line pipeline: ingest, split, train, tune, eval, predict,
export-activations, replay, serve-device.

Progress goes to standard error; machine-readable results go to files
under the output directory (flag ``--out-dir``, or the working
directory). Every artifact-producing run writes its configuration beside
its outputs so it can be reproduced exactly: every flag as parsed, plus
the values the command resolved.

Exit codes: 0 success, 1 internal error (a traceback is printed),
2 usage, 3 data error, 4 numeric failure, 5 protocol error.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dataset, device, evaluation, model, oa
from .errors import DataError, NumericError, PipelineError, ProtocolError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_PROTOCOL = 5

DEFAULT_RUNS = (2, 4, 6, 8, 10, 12, 14)

# Candidate values per tuned factor: l2, lr, width, layers, batches.
DEFAULT_LEVELS = (
    (0.002, 0.004, 0.006, 0.008),
    (0.005, 0.01, 0.015, 0.02),
    (16, 32, 48, 64),
    (5, 6, 7, 8),
    (1, 3, 6, 13),
)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config(out: Path, args, **resolved) -> None:
    """``<command>_config.json``: every parsed flag, then ``resolved``, the
    values the command worked out, over any flag of the same name."""
    flags = {key: value for key, value in vars(args).items()
             if key not in ("func", "out_dir", "config")}
    path = out / f"{args.command.replace('-', '_')}_config.json"
    dataset.write_json(path, {**flags, **resolved})


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ingest(args) -> int:
    out = _out_dir(args)
    for flag, count in (("--subjects", args.subjects),
                        ("--per-subject", args.per_subject)):
        if count is not None:  # both slice, so 0 or -1 would drop rows silently
            model.check_int(flag, count, 1)
    mapping = (
        dataset.load_mapping(args.mapping)
        if args.mapping
        else dataset.default_mapping()
    )
    if not all(r.strip().isdecimal() for r in args.runs.split(",")):
        raise DataError(f"--runs: expected run numbers like 4,8,12, got {args.runs!r}")
    runs = [int(r) for r in args.runs.split(",")]
    repeated = [r for r in runs if runs.count(r) > 1]
    if repeated:  # ingest would read the run twice and double its rows
        raise DataError(
            f"--runs: run {repeated[0]} given more than once in {args.runs!r}")
    found = dataset.find_recordings(args.edf_dir)
    if not found:
        raise DataError(f"no recordings named like S001R04.edf under {args.edf_dir}")
    subjects = sorted(found)
    if args.subjects is not None:
        if len(subjects) < args.subjects:
            raise DataError(
                f"requested {args.subjects} subjects, found {len(subjects)}"
            )
        subjects = subjects[: args.subjects]

    parts = []
    for subject in subjects:
        samples = dataset.ingest_subject(found[subject], runs, mapping,
                                         cap=args.per_subject)
        _log(f"subject {subject}: {len(samples)} samples")
        parts.append(samples)
    combined = dataset.SampleSet.concat(parts)
    table_path = out / "dataset.csv"
    dataset.save_table(combined, table_path)
    _log(f"wrote {len(combined)} samples to {table_path}")

    _write_config(out, args, subjects=subjects, runs=runs,
                  mapping=args.mapping or "builtin-default",
                  output=str(table_path))
    return EXIT_OK


def _cmd_split(args) -> int:
    out = _out_dir(args)
    samples = dataset.load_table(args.data)
    result = dataset.split(samples, args.n_b)
    dataset.save_table(result.train, out / "train.csv")
    dataset.save_table(result.test, out / "test.csv")
    _log(
        f"split {len(samples)} samples into {len(result.train)} train / "
        f"{len(result.test)} test (batch size {result.batch_size})"
    )
    _write_config(out, args, train=str(out / "train.csv"),
                  test=str(out / "test.csv"))
    return EXIT_OK


_SCHEDULE = model.TrainingSchedule()
_TRAIN_DEFAULTS = {
    "l2": 0.004,
    "lr": 0.005,
    "width": 64,
    "layers": 7,
    "n_b": 3,
    "seed": 0,
    "epochs": _SCHEDULE.max_epochs,
    "patience": _SCHEDULE.patience,
    "bptt": _SCHEDULE.bptt_window,
}


def _fit(samples, values, seed, schedule, announce: bool = False):
    """Train at factor ``values`` (oa.FACTOR_NAMES order) from ``seed`` on
    ``schedule``; returns (model, history, best test accuracy)."""
    hp = model.HyperParams(*values)
    splits = dataset.split(samples, hp.batches)
    net = model.build(hp, seed)
    if announce:
        _log(
            f"training {hp.layers}-layer model (width {hp.width}) on "
            f"{len(splits.train)} samples, {hp.batches} batches"
        )
    trained, history = model.train(net, splits, schedule)
    return trained, history, max(h[2] for h in history)


def _tune_run(samples, values, seed, schedule) -> float:
    """Best test accuracy of one tuning run; runs in a worker process."""
    return _fit(samples, values, seed, schedule)[2]


def _resolve_train_settings(args) -> dict:
    """Explicit flag > persisted config > built-in default."""
    from_config = dataset.read_json(args.config) if args.config else {}
    if not isinstance(from_config, dict):
        raise DataError(f"{args.config}: expected a JSON object")
    unknown = sorted(from_config.keys() - _TRAIN_DEFAULTS.keys()
                     - {"command", "data", "checkpoint"})
    if unknown:
        raise DataError(f"{args.config}: unknown key {unknown[0]!r}")
    settings = {}
    for key, default in _TRAIN_DEFAULTS.items():
        value = getattr(args, key)
        if value is None:
            value = from_config.get(key, default)
        if type(value) not in (type(default), int):  # exact type: bool is out
            raise DataError(f"{args.config}: {key} needs type {type(default).__name__}")
        settings[key] = value
    if args.data is None and "data" in from_config:
        if type(from_config["data"]) is not str:
            raise DataError(f"{args.config}: data needs type str")
        args.data = from_config["data"]
    if args.data is None:
        raise DataError("no dataset given (flag --data or config entry 'data')")
    return settings


def _cmd_train(args) -> int:
    out = _out_dir(args)
    settings = _resolve_train_settings(args)
    schedule = model.TrainingSchedule(settings["epochs"], settings["patience"],
                                      settings["bptt"])
    samples = dataset.load_table(args.data)
    values = [settings[key] for key in ("l2", "lr", "width", "layers", "n_b")]
    trained, history, best_acc = _fit(samples, values, settings["seed"],
                                      schedule, announce=True)
    checkpoint = out / "model.mctl"
    checkpoint.write_bytes(model.save(trained))
    model.save_history(history, out / "history.csv")
    _log(f"best test accuracy {best_acc:.4f} after {trained.epochs_run} epochs")

    _write_config(out, args, **settings, checkpoint=str(checkpoint))
    return EXIT_OK


def _cmd_tune(args) -> int:
    out = _out_dir(args)
    model.check_int("--workers", args.workers, 1)
    # the settings every run shares are checked once, before any run
    schedule = model.TrainingSchedule(args.epochs, args.patience, args.bptt)
    model.check_int("seed", args.seed)  # the rule ModelParams applies
    levels = DEFAULT_LEVELS
    if args.levels:
        raw = dataset.read_json(args.levels)
        if not isinstance(raw, dict):
            raise DataError(f"{args.levels}: expected a JSON object")
        unknown = sorted(raw.keys() - set(oa.FACTOR_NAMES))
        if unknown:
            raise DataError(f"{args.levels}: unknown factor {unknown[0]!r}")
        try:
            levels = tuple(tuple(raw[name]) for name in oa.FACTOR_NAMES)
        except (KeyError, TypeError) as exc:
            raise DataError(f"{args.levels}: factor lists expected ({exc})") from None
    levels = oa.build_plan(levels)

    results_path = out / "results.csv"
    results = [None] * oa.N_RUNS
    if results_path.exists():
        results = oa.load_results(levels, results_path)
        done = sum(a is not None for a in results)
        _log(f"resuming: {done} of {oa.N_RUNS} runs already recorded")
    samples = None
    if None in results or args.confirm:
        if args.data is None:
            raise DataError("tune needs --data to train its pending runs "
                            "or the confirmation model")
        samples = dataset.load_table(args.data)

    def runner(values):
        try:
            best = pool.submit(_tune_run, samples, values, args.seed,
                               schedule).result()
        except PipelineError as exc:  # bad input for this run, not a fault
            _log(f"  run {values}: failed: {exc}")
            return None
        _log(f"  run {values}: accuracy {best:.4f}")
        return best

    # worker processes train the runs; the threads of oa.execute only hand
    # them over and wait, and the with block joins the workers before tune
    # goes on. fork, because spawn and forkserver leave a resource tracker
    # or fork server running until the interpreter exits.
    workers = min(args.workers, max(results.count(None), 1))  # no idle forks
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            # a fork pool starts every worker at its first submit: make that
            # here, before oa.execute's threads exist, so no fork copies them
            pool.submit(int).result()
            oa.execute(levels, runner, workers, results)
    finally:  # a stopped sweep keeps its finished runs for the resume
        oa.save_plan(levels, results, results_path)
    analysis = oa.range_analysis(levels, results)
    oa.save_analysis(analysis, out / "analysis.csv")
    best = dict(zip(oa.FACTOR_NAMES, analysis.best_values))
    _log(f"best levels: {best}")

    summary = {"best": best, "savings": oa.SAVINGS}
    if args.confirm:
        trained, _, summary["confirmation_accuracy"] = _fit(
            samples, analysis.best_values, args.seed, schedule
        )
        (out / "tuned_model.mctl").write_bytes(model.save(trained))
        _log(f"confirmation run accuracy {summary['confirmation_accuracy']:.4f}")
    dataset.write_json(out / "best.json", summary)

    _write_config(out, args, levels={
        name: list(vals) for name, vals in zip(oa.FACTOR_NAMES, levels)})
    return EXIT_OK


def _cmd_eval(args) -> int:
    net = model.load(Path(args.model).read_bytes())
    samples = dataset.load_table(args.data)
    predicted, scores = model.predict(net, samples.features)
    counts = evaluation.confusion(predicted, samples.labels)
    m = evaluation.metrics(counts)

    curves = {}  # none for a class with no positives or no negatives
    for label in dataset.LABELS:
        try:
            curves[label] = evaluation.roc_auc(scores, samples.labels, label)
        except DataError:
            _log(f"class {label}: AUC undefined (missing positives or negatives)")
    auc = [curves[label].auc if label in curves else None
           for label in dataset.LABELS]
    macro_auc = None if None in auc else float(np.mean(auc))
    summary = {
        "accuracy": m.accuracy,
        "macro_precision": m.macro_precision,
        "macro_recall": m.macro_recall,
        "macro_f1": m.macro_f1,
        "macro_auc": macro_auc,
        "auc": auc,
    }

    if args.knn_train:
        knn_train = dataset.load_table(args.knn_train)
        knn_labels = evaluation.knn_classify(knn_train, samples.features,
                                             k=args.knn_k)
        summary["knn_accuracy"] = float((knn_labels == samples.labels).mean())
        _log(f"knn (k={args.knn_k}) accuracy {summary['knn_accuracy']:.4f}")

    # every result exists before the first file, so a failed run writes none
    out = _out_dir(args)
    for label, curve in curves.items():
        evaluation.save_roc(curve, out / f"roc_class{label}.csv")
    evaluation.save_report(counts, m, auc, macro_auc, out / "report.csv")
    dataset.write_json(out / "summary.json", summary)
    _log(f"accuracy {m.accuracy:.4f}")
    _write_config(out, args)
    return EXIT_OK


def _cmd_predict(args) -> int:
    out = _out_dir(args)
    net = model.load(Path(args.model).read_bytes())
    samples = dataset.load_table(args.data)
    labels, scores = model.predict(net, samples.features)
    path = out / "predictions.csv"
    header = ("label", *(f"score{c}" for c in range(1, dataset.N_CLASSES + 1)))
    dataset.write_csv(path, header, ((label, *row) for label, row
                                     in zip(labels.tolist(), scores.tolist())))
    _log(f"wrote {len(labels)} predictions to {path}")
    _write_config(out, args, output=str(path))
    return EXIT_OK


def _cmd_export_activations(args) -> int:
    out = _out_dir(args)
    net = model.load(Path(args.model).read_bytes())
    samples = dataset.load_table(args.data)
    table = model.export_activations(net, samples, args.layer)
    path = out / f"activations_layer{args.layer}.csv"
    model.save_activations(table, path)
    _log(f"wrote layer {args.layer} activations for {len(samples)} samples")
    _write_config(out, args, output=str(path))
    return EXIT_OK


def _cmd_replay(args) -> int:
    out = _out_dir(args)
    net = model.load(Path(args.model).read_bytes())
    samples = dataset.load_table(args.data)
    session = device.DeviceSession(device.PROFILES[args.profile])
    log = device.replay(net, samples.features, session,
                        cadence=args.cadence, step_ms=args.step_ms)
    device.save_command_log(log, out / "command_log.csv")
    device.save_transcript(session.transcript, out / "transcript.csv")

    # decision-level match rate against the recorded labels
    truth = device.majority_votes(samples.labels, args.cadence)
    matches = sum(1 for t, entry in zip(truth, log) if t == entry[2])
    rate = matches / len(log) if log else 0.0
    _log(f"replayed {len(log)} commands, match rate {rate:.4f}")
    dataset.write_json(out / "replay_summary.json",
                       {"commands": len(log), "match_rate": rate})
    _write_config(out, args)
    return EXIT_OK


def _cmd_serve_device(args) -> int:
    profile = device.PROFILES[args.profile]
    _log(f"serving {args.profile} device on {args.host}:{args.port}")
    if args.transcript:
        _write_config(Path(args.transcript).resolve().parent, args)
    device.serve(
        args.host, args.port, profile,
        once=args.once,
        transcript_path=args.transcript,
        on_ready=lambda port: _log(f"listening on port {port}"),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindctl",
        description="EEG intent recognition pipeline and device simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="EDF recordings to a dataset table")
    p.add_argument("--edf-dir", required=True)
    p.add_argument("--runs", default=",".join(str(r) for r in DEFAULT_RUNS))
    p.add_argument("--mapping", help="label mapping JSON (default: builtin)")
    p.add_argument("--subjects", type=int, help="use the first N subjects")
    p.add_argument("--per-subject", type=int,
                   help="keep exactly N samples per subject")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("split", help="partition a dataset table")
    p.add_argument("--data", required=True)
    p.add_argument("--n-b", type=int, required=True, dest="n_b",
                   help="training batch count; test share is 1/(n_b+1)")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train the intent model")
    p.add_argument("--data")
    p.add_argument("--config", help="re-run from a persisted train config")
    p.add_argument("--lambda", dest="l2", type=float, help="l2 penalty")
    p.add_argument("--lr", type=float)
    p.add_argument("--width", type=int, help="hidden layer width")
    p.add_argument("--layers", type=int, help="total layer count")
    p.add_argument("--n-b", dest="n_b", type=int, help="training batch count")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--bptt", type=int, help="truncation window")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tune", help="16-run orthogonal-array sweep")
    p.add_argument("--data", help="dataset table; not needed when results.csv in "
                   "--out-dir records every run and --no-confirm is given")
    p.add_argument("--levels", help="JSON file overriding factor level values")
    p.add_argument("--seed", type=int, default=_TRAIN_DEFAULTS["seed"])
    p.add_argument("--epochs", type=int, default=_SCHEDULE.max_epochs)
    p.add_argument("--patience", type=int, default=_SCHEDULE.patience)
    p.add_argument("--bptt", type=int, default=_SCHEDULE.bptt_window)
    p.add_argument("--workers", type=int, default=1,
                   help="runs trained at once, each in a forked worker process")
    p.add_argument("--confirm", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="retrain once at the selected best levels")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("eval", help="confusion matrix, metrics, ROC, baseline")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--knn-train", help="train table for the knn baseline")
    p.add_argument("--knn-k", type=int, default=3)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="per-sample labels and scores")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("export-activations",
                       help="per-layer activation table for one layer")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layer", type=int, required=True,
                   help="1-based topology position (1 = input)")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_export_activations)

    p = sub.add_parser("replay", help="drive the simulated device from EEG")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--profile", choices=sorted(device.PROFILES), required=True)
    p.add_argument("--cadence", type=int, default=1,
                   help="predictions per emitted command (majority vote)")
    p.add_argument("--step-ms", dest="step_ms", type=int, default=250)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("serve-device", help="run the device endpoint over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--profile", choices=sorted(device.PROFILES), required=True)
    p.add_argument("--transcript", help="CSV transcript path")
    p.add_argument("--once", action=argparse.BooleanOptionalAction, default=False,
                   help="exit after the first session")
    p.set_defaults(func=_cmd_serve_device)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ProtocolError as exc:
        _log(f"protocol error: {exc}")
        return EXIT_PROTOCOL
    except NumericError as exc:
        _log(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (PipelineError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
