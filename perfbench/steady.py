"""Steadiness self-check: run workloads over several seeds and summarise.

    python3 perfbench/steady.py --seeds 1-10 [--workloads train-paper,...]
                                [--trace 0|1] [--out summary.json]

Runs ``run.py`` once per (workload, seed), one run at a time, and reports
for every metric -- the end-to-end ones and the workload's own detail
rates -- the median, the quartiles from ``statistics.quantiles(n=4)``
and the spread (q3 - q1) / median. An end-to-end metric whose spread
exceeds its bound in BENCHMARK.json is flagged ``over_bound``; one above
a third of its bound is flagged ``thin_margin``. ``setup_s`` is exempt
from the spread rule but is reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["perfbench_detail"]
    result = json.loads(lines[-1])
    return {"detail": detail, "result": result}


def spread(values) -> dict:
    if len(values) < 2:
        return {"values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: "
                  f"{json.dumps(run['result']['metrics'])}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            entry = spread([r["result"]["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            if bound and entry.get("spread") is not None and name != "setup_s":
                entry["bound"] = bound
                entry["over_bound"] = entry["spread"] > bound
                entry["thin_margin"] = entry["spread"] > bound / 3
            metrics[name] = entry
        for name, value in runs[0]["detail"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"detail.{name}"] = spread(
                    [r["detail"][name] for r in runs])
        summary[workload] = {
            "seeds": seeds(args.seeds),
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "env": runs[0]["detail"]["env"],
            "metrics": metrics,
        }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    flagged = [(w, m) for w, s in summary.items() for m, e in s["metrics"].items()
               if e.get("over_bound")]
    for workload, metric in flagged:
        print(f"over bound: {workload} {metric}", file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
