"""Runtime span tracer used by the benchmark's traced runs.

The program carries no instrumentation of its own, so the tracer wraps
public functions from outside at run time. A function is replaced
everywhere callers look it up: ``forward_sequence`` is bound both in
``mindctl.nn`` and, through ``from .nn import ...``, in ``mindctl.model``;
replacing only one binding would miss every call through the other.

Each call records a span: name, start, end, thread id, parent span id,
the exception type if it raised, and an optional per-call measurement
(rows, bytes). Parents follow a per-thread stack. Runs of a tuning
sweep execute in ``oa.execute``'s worker threads, so the runner handed
to ``oa.execute`` is wrapped too: each run becomes an ``oa.run`` span
whose parent is the ``oa.execute`` span and which records its thread's
CPU time, from which the sweep's wait share follows.

A span's self time is its duration minus the durations of its child
spans on the same thread (children on the same thread nest strictly).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict


CLI_COMMANDS = ("ingest", "split", "train", "tune", "eval", "replay")


class TraceError(RuntimeError):
    """A span the workload must produce never fired: a patch was missed."""


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "error",
                 "info", "cpu")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = self.cpu = 0.0
        self.error = None
        self.info = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(index):
    return lambda args, kwargs, result: len(args[index])


def _result_len(args, kwargs, result):
    return len(result)


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}"


def targets(mindctl):
    """(owner, attribute, span name, per-call measurement) for each layer."""
    cli, dataset, device, edf = mindctl.cli, mindctl.dataset, mindctl.device, mindctl.edf
    evaluation, model, nn, oa = (mindctl.evaluation, mindctl.model, mindctl.nn,
                                 mindctl.oa)
    return [
        (edf, "parse_edf", "edf.parse_edf", _rows(0)),
        (dataset, "label_samples", "dataset.label_samples", None),
        (dataset, "save_table", "dataset.save_table", _rows(0)),
        (dataset, "load_table", "dataset.load_table", _result_len),
        (nn, "forward_sequence", "nn.forward_sequence", _rows(1)),
        (nn, "sequence_gradients", "nn.sequence_gradients", None),
        (nn, "cross_entropy_loss", "nn.cross_entropy_loss", None),
        (nn, "softmax", "nn.softmax", None),
        (nn, "adam_step", "nn.adam_step", None),
        (model, "train", "model.train", None),
        (model, "predict", "model.predict", None),
        (model, "save", "model.save", _result_len),
        (model, "load", "model.load", None),
        (oa, "execute", "oa.execute", None),
        (evaluation, "knn_classify", "evaluation.knn_classify", _rows(1)),
        (evaluation, "confusion", "evaluation.confusion", None),
        (evaluation, "metrics", "evaluation.metrics", None),
        (evaluation, "roc_auc", "evaluation.roc_auc", None),
        (device.DeviceSession, "handle_line", "device.handle_line", None),
        (device, "replay", "device.replay", None),
        (cli, "main", _cli_name, None),
    ]


class Tracer:
    """Collects spans in memory while installed; :meth:`uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else getattr(self._local, "root", None)
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name, fn, measure=None):
        """``fn`` recording one span per call; ``name`` may be a callable."""
        if name == "oa.execute":
            fn = self._wrap_runner(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if measure is not None:
                span.info = measure(args, kwargs, result)
            return result

        return traced

    def _wrap_runner(self, execute):
        tracer = self

        @functools.wraps(execute)
        def traced_execute(plan, runner, *args, **kwargs):
            parent = tracer._stack()[-1].id

            def run(values):
                tracer._local.root = parent
                span = tracer._open("oa.run")
                cpu = time.thread_time()
                try:
                    result = runner(values)
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    span.cpu = time.thread_time() - cpu
                    tracer._close(span)
                    tracer._local.root = None
                if result is None:
                    span.error = "None"
                return result

            return execute(plan, run, *args, **kwargs)

        return traced_execute

    def install(self, mindctl) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mindctl" or n.startswith("mindctl."))]
        for owner, attr, name, measure in targets(mindctl):
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, measure)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def require(self, names) -> None:
        fired = {s.name for s in self.spans}
        missing = sorted(set(names) - fired)
        if missing:
            raise TraceError(f"spans never fired: {', '.join(missing)}")


def self_times(spans) -> dict:
    """Span id -> duration minus same-thread child durations."""
    by_id = {s.id: s for s in spans}
    own = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.duration
    return own


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, n_ops: int, ack_wait_ms=()) -> dict:
    """Per-layer metrics, each a per-operation figure over ``n_ops`` traced ops.

    Times are self times in seconds, counts are per operation; the
    ``_p50``/``_max`` metrics and the wait share are taken over all spans.
    """
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(int)
    for s in spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
        info[s.name] += s.info
    runs = [s for s in spans if s.name == "oa.run"]
    handle = [s.duration for s in spans if s.name == "device.handle_line"]
    run_wall = sum(s.duration for s in runs)
    per = 1.0 / n_ops
    m = {
        "edf.parse_s": self_s["edf.parse_edf"] * per,
        "edf.parse_bytes": info["edf.parse_edf"] * per,
        "dataset.label_s": self_s["dataset.label_samples"] * per,
        "dataset.save_table_s": self_s["dataset.save_table"] * per,
        "dataset.save_table_rows": info["dataset.save_table"] * per,
        "dataset.load_table_s": self_s["dataset.load_table"] * per,
        "dataset.load_table_rows": info["dataset.load_table"] * per,
        "nn.forward_s": self_s["nn.forward_sequence"] * per,
        "nn.forward_steps": info["nn.forward_sequence"] * per,
        "nn.backward_s": self_s["nn.sequence_gradients"] * per,
        "nn.grad_calls": calls["nn.sequence_gradients"] * per,
        "nn.loss_s": (self_s["nn.cross_entropy_loss"] + self_s["nn.softmax"]) * per,
        "nn.adam_s": self_s["nn.adam_step"] * per,
        "nn.adam_calls": calls["nn.adam_step"] * per,
        "model.train_self_s": self_s["model.train"] * per,
        "model.predict_s": self_s["model.predict"] * per,
        "model.save_s": self_s["model.save"] * per,
        "model.load_s": self_s["model.load"] * per,
        "model.checkpoint_bytes": info["model.save"] * per,
        "oa.execute_s": sum(s.duration for s in spans if s.name == "oa.execute") * per,
        "oa.runs": len(runs) * per,
        "oa.runs_failed": sum(1 for s in runs if s.error) * per,
        "oa.run_s_p50": _median([s.duration for s in runs]),
        "oa.run_s_max": max((s.duration for s in runs), default=0.0),
        "oa.run_wait_share": (1.0 - sum(s.cpu for s in runs) / run_wall) if runs else 0.0,
        "evaluation.knn_s": self_s["evaluation.knn_classify"] * per,
        "evaluation.knn_queries": info["evaluation.knn_classify"] * per,
        "evaluation.confusion_s": self_s["evaluation.confusion"] * per,
        "evaluation.metrics_s": self_s["evaluation.metrics"] * per,
        "evaluation.roc_s": self_s["evaluation.roc_auc"] * per,
        "device.handle_line_s_p50": _median(handle),
        "device.cmds": len(handle) * per,
        "device.errs": sum(1 for s in spans
                           if s.name == "device.handle_line" and s.error) * per,
        "device.ack_wait_ms_p50": _median(list(ack_wait_ms)),
        "device.replay_s": self_s["device.replay"] * per,
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = self_s[f"cli.{command}"] * per
    return m
