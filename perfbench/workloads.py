"""The three benchmark workloads.

Every workload is a closed loop: one operation starts when the previous
one returns. An operation drives the program the way its users do,
through ``mindctl.cli.main([...])`` in-process, plus direct calls to
``evaluation.knn_classify`` and ``device.serve`` in score-actuate.

Why these three:

* ``train-paper`` -- ``mindctl train`` at the tuned paper topology
  (width 64, 7 layers, three 7,000-step batches, BPTT 100). Nearly all
  of its time is LSTM forward and backward over long sequences, the
  dominant cost of the pipeline.
* ``tune-sweep`` -- the default 16-run ``mindctl tune`` plus its
  confirmation retrain on 2,800 rows with ``--workers`` = nproc. The
  same nn/model code runs at widths 16..64 with up to 13 short batches
  per epoch, which shifts cost to per-step Python overhead, Adam calls
  and training bookkeeping; it alone runs ``oa.execute`` with
  concurrent worker threads.
* ``score-actuate`` -- every stage after training: ingest and split,
  eval, exact KNN against all 21,000 training rows (for every fourth
  test row), replay, and a TCP client driving ``device.serve``. It
  trains nothing in the timed loop, so a training change should leave
  it flat.

Each workload counts what it attempts (CLI calls, tuning runs, device
commands, oracle checks) and what fails; a failure never aborts the run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import socket
import statistics
import threading
import time
from pathlib import Path

import numpy as np

import mindctl
import mindctl.cli
import oracles
import synth

TRAIN_EPOCHS = 1
TUNE_EPOCHS = 1
KNN_K = 3
# KNN searches all 21,000 training rows for every fourth test row: the
# per-query work of the full 21k x 7k baseline at a quarter of the time.
KNN_QUERY_STRIDE = 4
KNN_ORACLE_QUERIES = 200
REFERENCE_ROWS = 400
PROFILE = "appliance"
# Spans every training operation must produce in a traced run.
TRAINING_SPANS = frozenset({
    "dataset.load_table", "nn.forward_sequence", "nn.sequence_gradients",
    "nn.cross_entropy_loss", "nn.softmax", "nn.adam_step", "model.train",
    "model.save",
})


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Ledger:
    """Attempted and failed operations; failures keep their reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{what}: {detail}" if detail else what)

    def count(self, what: str, attempted: int, failed: int, detail: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} {detail}".rstrip())


def cli(argv, ledger: Ledger) -> None:
    """Run one subcommand in-process; a non-zero exit is a failed operation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = mindctl.cli.main([str(a) for a in argv])
    ledger.record(f"mindctl {argv[0]}", code == 0,
                  f"exit {code}: {err.getvalue().strip()[-300:]}")


def check_round_trip(path, ledger: Ledger) -> None:
    data = Path(path).read_bytes()
    again = mindctl.model.save(mindctl.model.load(data))
    ledger.record("checkpoint save -> load -> save", again == data,
                  f"{path.name} bytes differ")


def check_reference_forward(checkpoint, features, ledger: Ledger) -> None:
    net = mindctl.model.load(Path(checkpoint).read_bytes())
    _, scores = mindctl.model.predict(net, features)
    ref = oracles.reference_scores(net.layers, features)
    worst = float(np.abs(scores - ref).max())
    ledger.record("forward pass vs step-by-step reference",
                  worst <= oracles.SCORE_TOL, f"max |diff| {worst:.3e}")


def check_table(path, expected, ledger: Ledger) -> None:
    table = mindctl.dataset.load_table(path)
    ledger.record(
        "ingested table equals generated samples",
        np.array_equal(table.features, expected["features"])
        and np.array_equal(table.labels, expected["labels"]),
        f"{path} differs from the generator's samples",
    )


def lap(spans: dict, name: str, start: float) -> float:
    """Record the stage ``name`` as [start, now]; return now."""
    end = time.perf_counter()
    spans[name] = (start, end)
    return end


def check_same(what, digests, ledger: Ledger) -> None:
    distinct = len(set(digests))
    ledger.record(what, distinct == 1, f"{distinct} distinct digests")


def ingest(edf_dir, layout, out_dir, ledger: Ledger) -> None:
    cli(["ingest", "--edf-dir", edf_dir, "--per-subject", layout.per_subject,
         "--out-dir", out_dir], ledger)


class Workload:
    """Set-up, one closed-loop operation, and the end-of-run checks."""

    name = ""
    layout = synth.PAPER
    spans: frozenset = frozenset()
    workers = 1
    connections = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: Path, ledger: Ledger) -> dict:
        """Generate the recordings and ingest them into ``dataset.csv``."""
        expected = synth.generate(root / "edf", self.layout, self.seed)
        ingest(root / "edf", self.layout, root, ledger)
        table = root / "dataset.csv"
        return {"expected": expected, "table": table,
                "digest": expected["digest"] + sha(table)}

    def op(self, state: dict, out: Path, ledger: Ledger) -> dict:
        raise NotImplementedError

    def finish(self, state: dict, ops: list, ledger: Ledger) -> None:
        """Run the output oracles over every operation of the run."""
        raise NotImplementedError

    def detail(self, timed: list) -> dict:
        """The workload's own rates, from the untraced operations."""
        raise NotImplementedError

    def settle(self, op: dict, ledger: Ledger, keep_files: bool) -> None:
        """Check what needs an operation's bulky files, then drop them
        unless ``keep_files``, so written data does not pile up."""


class TrainPaper(Workload):
    name = "train-paper"
    spans = TRAINING_SPANS | {"cli.train"}

    def op(self, state, out, ledger):
        cli(["train", "--data", state["table"], "--width", 64, "--layers", 7,
             "--n-b", 3, "--bptt", 100, "--seed", 0, "--epochs", TRAIN_EPOCHS,
             "--patience", TRAIN_EPOCHS + 1, "--out-dir", out], ledger)
        return {"checkpoint": out / "model.mctl", "history": out / "history.csv"}

    def finish(self, state, ops, ledger):
        check_table(state["table"], state["expected"], ledger)
        done = [op for op in ops if op["checkpoint"].exists()]
        ledger.record("every train run wrote a checkpoint", len(done) == len(ops))
        if done:
            check_same("same-seed checkpoints",
                       [sha(op["checkpoint"]) for op in done], ledger)
            check_round_trip(done[0]["checkpoint"], ledger)
            net = mindctl.model.load(done[0]["checkpoint"].read_bytes())
            rows = list(csv.reader(done[0]["history"].open()))[1:]
            first_loss = float(rows[0][1])
            ledger.record(
                "final train loss finite and below the epoch-0 loss",
                net.final_loss is not None and math.isfinite(net.final_loss)
                and net.final_loss < first_loss,
                f"final {net.final_loss} vs epoch 0 {first_loss}",
            )
            n = self.layout.rows
            check_reference_forward(
                done[0]["checkpoint"],
                state["expected"]["features"][n * 3 // 4 :][:REFERENCE_ROWS],
                ledger,
            )

    def detail(self, timed):
        ref = statistics.median(op["ref"] for op in timed)
        rows = self.layout.rows * 3 // 4
        return {"train_samples_per_s": rows * TRAIN_EPOCHS / ref}


class TuneSweep(Workload):
    name = "tune-sweep"
    layout = synth.SMALL
    spans = TRAINING_SPANS | {"cli.tune", "oa.execute", "oa.run"}

    def __init__(self, seed):
        super().__init__(seed)
        self.workers = nproc()

    def op(self, state, out, ledger):
        cli(["tune", "--data", state["table"], "--epochs", TUNE_EPOCHS,
             "--patience", TUNE_EPOCHS + 1, "--seed", 0, "--workers", self.workers,
             "--out-dir", out], ledger)
        missing = 16
        if (out / "results.csv").exists():
            rows = list(csv.reader((out / "results.csv").open()))[1:]
            missing = 16 - len(rows) + sum(not r[-1] for r in rows)
        ledger.count("tuning runs left without accuracy", 16, missing)
        best = out / "best.json"
        confirmed = best.exists() and "confirmation_accuracy" in json.loads(best.read_text())
        ledger.record("confirmation retrain", confirmed)
        return {"out": out}

    def finish(self, state, ops, ledger):
        check_table(state["table"], state["expected"], ledger)
        names = ("results.csv", "analysis.csv", "best.json", "tuned_model.mctl")
        done = [op["out"] for op in ops
                if all((op["out"] / n).exists() for n in names)]
        ledger.record("every tune run wrote its outputs", len(done) == len(ops))
        if done:
            check_same("same-seed tuning results",
                       ["".join(sha(out / n) for n in names) for out in done],
                       ledger)
            self.check_analysis(done[0], ledger)
            check_round_trip(done[0] / "tuned_model.mctl", ledger)

    def detail(self, timed):
        return {"tune_sweep_s": statistics.median(op["ref"] for op in timed)}

    @staticmethod
    def check_analysis(out, ledger):
        config = json.loads((out / "tune_config.json").read_text())
        names = list(mindctl.oa.FACTOR_NAMES)
        levels = [config["levels"][n] for n in names]
        rows = []
        for r in list(csv.reader((out / "results.csv").open()))[1:]:
            rows.append((tuple(float(v) for v in r[1:-1]), float(r[-1])))
        ledger.record("16 accuracies in [0, 1]",
                      len(rows) == 16 and all(0 <= a <= 1 for _, a in rows))
        sums, best = oracles.range_sums(rows, levels)
        table = list(csv.reader((out / "analysis.csv").open()))[1:]
        ok = len(table) == len(names) and all(
            row[0] == name
            and all(abs(float(x) - s) <= 1e-12 for x, s in zip(row[1:5], sums[f]))
            and float(row[6]) == float(best[f])
            for f, (name, row) in enumerate(zip(names, table))
        )
        ledger.record("range analysis matches recomputed level sums", ok)


class ScoreActuate(Workload):
    name = "score-actuate"
    connections = 1
    spans = {"cli.ingest", "cli.split", "cli.eval", "cli.replay", "edf.parse_edf",
             "dataset.label_samples", "dataset.save_table", "dataset.load_table",
             "model.load", "model.predict", "nn.forward_sequence", "nn.softmax",
             "evaluation.confusion", "evaluation.metrics", "evaluation.roc_auc",
             "evaluation.knn_classify", "device.replay", "device.handle_line"}

    def setup(self, root, ledger):
        expected = synth.generate(root / "edf", self.layout, self.seed)
        small = synth.generate(root / "edf_small", synth.SMALL, self.seed)
        ingest(root / "edf_small", synth.SMALL, root, ledger)
        cli(["train", "--data", root / "dataset.csv", "--width", 64,
             "--layers", 7, "--n-b", 3, "--seed", 0, "--epochs", 1,
             "--patience", 2, "--out-dir", root], ledger)
        checkpoint = root / "model.mctl"
        digest = expected["digest"] + small["digest"]
        if checkpoint.exists():
            digest += sha(checkpoint)
        return {"expected": expected, "edf": root / "edf",
                "checkpoint": checkpoint, "digest": digest}

    def op(self, state, out, ledger):
        spans = {}
        t = time.perf_counter()
        ingest(state["edf"], self.layout, out, ledger)
        cli(["split", "--data", out / "dataset.csv", "--n-b", 3, "--out-dir", out],
            ledger)
        t = lap(spans, "ingest", t)
        cli(["eval", "--model", state["checkpoint"], "--data", out / "test.csv",
             "--out-dir", out / "eval"], ledger)
        lap(spans, "eval", t)
        train = mindctl.dataset.load_table(out / "train.csv")
        test = mindctl.dataset.load_table(out / "test.csv")
        queries = test.features[::KNN_QUERY_STRIDE]
        t = time.perf_counter()
        knn = mindctl.evaluation.knn_classify(train, queries, k=KNN_K)
        t = lap(spans, "knn", t)
        ledger.record("knn_classify", len(knn) == len(queries))
        cli(["replay", "--model", state["checkpoint"], "--data", out / "test.csv",
             "--profile", PROFILE, "--out-dir", out / "replay"], ledger)
        t = lap(spans, "replay", t)
        commands = []
        log = out / "replay" / "command_log.csv"
        if log.exists():
            wire = mindctl.device.PROFILES[PROFILE].wire_ids
            for row in list(csv.reader(log.open()))[1:]:
                t_ms, seq, label = int(row[0]), int(row[1]), int(row[2])
                commands.append(f"CMD {seq} {label} {wire[label]} {t_ms}\n".encode())
        t = time.perf_counter()
        session = device_session(commands, ledger)
        lap(spans, "device", t)
        return {"spans": spans, "out": out, "rows": len(train) + len(test),
                "test_rows": len(test), "train": train, "test": test, "knn": knn,
                "commands": len(commands), **session}

    def settle(self, op, ledger, keep_files):
        out = op["out"]
        whole = (out / "dataset.csv").read_bytes()
        head, train_rows = (out / "train.csv").read_bytes().split(b"\n", 1)
        test_rows = (out / "test.csv").read_bytes().split(b"\n", 1)[1]
        ledger.record("split = first 3/4 and last 1/4 of the table",
                      whole == head + b"\n" + train_rows + test_rows)
        op["digests"] = (sha(out / "eval" / "summary.json"),
                         hashlib.sha256(op["knn"].tobytes()).hexdigest(),
                         sha(out / "replay" / "command_log.csv"))
        if not keep_files:
            for name in ("dataset.csv", "train.csv", "test.csv"):
                (out / name).unlink()
            del op["train"], op["test"]

    def finish(self, state, ops, ledger):
        first = ops[0]
        out = first["out"]
        check_table(out / "dataset.csv", state["expected"], ledger)
        check_same("same-input eval summaries, knn labels and command logs",
                   [op["digests"] for op in ops], ledger)

        test, train = first["test"], first["train"]
        net = mindctl.model.load(state["checkpoint"].read_bytes())
        predicted, scores = mindctl.model.predict(net, test.features)
        summary = json.loads((out / "eval" / "summary.json").read_text())
        ledger.record("eval accuracy equals recount",
                      summary["accuracy"] == float((predicted == test.labels).mean()))
        for c, auc in enumerate(summary["auc"]):
            want = oracles.auc_pairwise(scores[:, c], test.labels == c + 1)
            ledger.record(f"AUC class {c + 1} equals pairwise count",
                          auc is not None and abs(auc - want) <= oracles.AUC_TOL,
                          f"{auc} vs {want}")
        check_reference_forward(state["checkpoint"], test.features[:REFERENCE_ROWS],
                                ledger)

        queries = test.features[::KNN_QUERY_STRIDE]
        pick = np.random.default_rng(self.seed).choice(
            len(queries), KNN_ORACLE_QUERIES, replace=False)
        direct = oracles.knn_direct(train.features, train.labels,
                                    queries[pick], KNN_K)
        ledger.count("knn labels differing from the direct (x-y)^2 oracle",
                     KNN_ORACLE_QUERIES, int((direct != first["knn"][pick]).sum()))

        replay = json.loads((out / "replay" / "replay_summary.json").read_text())
        ledger.record(
            "replay commands and match rate",
            replay["commands"] == len(test)
            and replay["match_rate"] == float((predicted == test.labels).mean()),
            str(replay),
        )
        transcript = list(csv.reader((out / "replay" / "transcript.csv").open()))[1:]
        ledger.record("replay transcript acknowledges every sequence number",
                      [r[1] for r in transcript] == [r[4] for r in transcript]
                      and len(transcript) == len(test))

    def detail(self, timed):
        def rate(stage, count):
            return count / statistics.median(op["stage_ref"][stage] for op in timed)

        first = timed[0]
        rtts = sorted(r for op in timed for r in op["rtt"])
        return {
            "stage_ref_s": {stage: statistics.median(op["stage_ref"][stage]
                                                     for op in timed)
                            for stage in first["spans"]},
            "ingest_samples_per_s": rate("ingest", first["rows"]),
            "eval_samples_per_s": rate("eval", first["test_rows"]),
            "knn_queries_per_s": rate("knn", len(first["knn"])),
            "replay_cmds_per_s": rate("replay", first["commands"]),
            "ack_rtt_ms_p50": 1e3 * percentile(rtts, 0.50),
            "ack_rtt_ms_p99": 1e3 * percentile(rtts, 0.99),
            "ack_rtt_samples": len(rtts),
        }


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1,
                             math.ceil(q * len(sorted_values)) - 1)]


MALFORMED = b"CMD not-a-command\n"


def device_session(commands, ledger: Ledger) -> dict:
    """Send ``commands`` over TCP to ``device.serve`` on port 0, one at a time.

    Every command waits for its reply before the next is sent. The
    session ends with one malformed line, which the device must answer
    with ``ERR``. Returns round-trip times and the server thread's id.
    """
    device = mindctl.device
    ready = threading.Event()
    port, served = [], {}

    def serve():
        try:
            served["session"] = device.serve(
                "127.0.0.1", 0, device.PROFILES[PROFILE], once=True,
                on_ready=lambda p: (port.append(p), ready.set()))
        except Exception as exc:  # reported through the ledger below
            served["error"] = repr(exc)
            ready.set()

    thread = threading.Thread(target=serve, name="device-serve", daemon=True)
    thread.start()
    rtt, acked = [], 0
    err_reply = b""
    try:
        if ready.wait(30) and port:
            with socket.create_connection(("127.0.0.1", port[0]), timeout=30) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with sock.makefile("rb") as reader:
                    for line in commands:
                        t0 = time.perf_counter()
                        sock.sendall(line)
                        reply = reader.readline()
                        rtt.append(time.perf_counter() - t0)
                        acked += reply == b"ACK " + line.split(b" ", 2)[1] + b"\n"
                    sock.sendall(MALFORMED)
                    err_reply = reader.readline()
    except OSError as exc:
        served.setdefault("error", repr(exc))
    finally:
        if thread.is_alive() and port:
            # release an accept() that never saw our client
            with contextlib.suppress(OSError):
                socket.create_connection(("127.0.0.1", port[0]), timeout=5).close()
        thread.join(60)
    ledger.count("commands without a matching ACK", len(commands),
                 len(commands) - acked, served.get("error", ""))
    ledger.record("malformed line answered with ERR",
                  err_reply.startswith(b"ERR "), repr(err_reply[:80]))
    session = served.get("session")
    ledger.record("device transcript holds every command",
                  session is not None and len(session.transcript) == len(commands))
    return {"rtt": rtt, "server_thread": thread.ident}


WORKLOADS = {w.name: w for w in (TrainPaper, TuneSweep, ScoreActuate)}
