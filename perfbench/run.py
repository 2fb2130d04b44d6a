"""mindctl benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src/`` directory. The run sets up its inputs several times (the
median is ``setup_s``), then runs the workload's closed loop for about
``--seconds`` seconds, checks every output, and prints a detail line
(environment, per-stage rates, failures) followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` operations alternate between untraced
and traced, and the metrics are per-layer figures from the traced ones
plus the tracing overhead against the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy loads; the value is recorded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
SETUPS = 5

import probe  # noqa: E402  (after the BLAS pin and the path set-up)
import tracer  # noqa: E402


def environment(workload) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the record is informative only
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "blas_threads": int(BLAS_THREADS),
        "workers": workload.workers,
        "connections": workload.connections,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import mindctl
    except ImportError as exc:
        print(f"perfbench: cannot import mindctl from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(mindctl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: mindctl imported from {mindctl.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ledger = workloads.Ledger()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        with probe.SpeedProbe() as speed:
            result = measure(args, mindctl, workload, ledger, work, speed)
    except tracer.TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    metrics, detail = result

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"perfbench_detail": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(workload),
        "ops_failed_ratio": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.notes[:20],
        **detail,
    }}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


def measure(args, mindctl, workload, ledger, work, speed):
    """Set up, run the closed loop, check outputs; (metrics, detail)."""
    from workloads import check_same  # importable once main found mindctl

    setups, digests = [], []
    for i in range(SETUPS):
        start = time.perf_counter()
        state = workload.setup(work / f"setup{i}", ledger)
        setups.append((start, time.perf_counter()))
        digests.append(state["digest"])
        if i < SETUPS - 1:  # only the last set-up's files are used
            shutil.rmtree(work / f"setup{i}")
    check_same("repeated set-ups build identical inputs", digests, ledger)

    timed, traced, ack_wait = [], [], []
    trace = tracer.Tracer()
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(timed) > len(traced)
        out = work / f"op{len(timed) + len(traced)}"
        if use_trace:
            first_span = len(trace.spans)
            trace.install(mindctl)
            try:
                op = run_op(workload, state, out, ledger)
            finally:
                trace.uninstall()
            traced.append(op)
            ack_wait += ack_waits(op, trace.spans[first_span:])
        else:
            op = run_op(workload, state, out, ledger)
            timed.append(op)
        workload.settle(op, ledger, keep_files=len(timed) + len(traced) == 1)
        # start another operation only if it should end within the window
        typical = statistics.median(op["wall"] for op in timed + traced)
        if (time.perf_counter() - start + typical > args.seconds
                and (traced or not args.trace)):
            break

    for op in timed + traced:  # every probe sample is in by now
        op["ref"] = speed.ref_seconds(*op["span"])
        op["stage_ref"] = {name: speed.ref_seconds(*span)
                           for name, span in op.get("spans", {}).items()}
    workload.finish(state, timed + traced, ledger)
    detail = {
        "setup_walls_s": [end - begin for begin, end in setups],
        "setup_ref_s": [speed.ref_seconds(*span) for span in setups],
        "op_walls_s": [op["wall"] for op in timed],
        "op_ref_s": [op["ref"] for op in timed],
        "traced_op_ref_s": [op["ref"] for op in traced],
        **workload.detail(timed),
    }
    if args.trace:
        trace.require(workload.spans)
        metrics = tracer.layer_metrics(trace.spans, len(traced), ack_wait)
        metrics["trace.overhead_share"] = (
            statistics.median(op["ref"] for op in traced)
            / statistics.median(op["ref"] for op in timed) - 1.0
        )
    else:
        metrics = {
            "setup_s": statistics.median(detail["setup_ref_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_s": statistics.median(detail["op_ref_s"]),
        }
    return metrics, detail


def run_op(workload, state, out, ledger) -> dict:
    """Run one operation and record its wall-clock span."""
    start = time.perf_counter()
    op = workload.op(state, out, ledger)
    end = time.perf_counter()
    op["span"], op["wall"] = (start, end), end - start
    return op


def ack_waits(op, spans) -> list:
    """Per-command round trip minus the server's handle_line time, in ms."""
    if "rtt" not in op:
        return []
    handled = [s for s in spans
               if s.name == "device.handle_line" and s.thread == op["server_thread"]]
    return [1e3 * (rtt - s.duration) for rtt, s in zip(op["rtt"], handled)]


if __name__ == "__main__":
    sys.exit(main())
