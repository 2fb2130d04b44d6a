"""Orthogonal-array tuning: one fixed design, level checks, execution
and range analysis.

The design ``L16`` covers 5 factors at 4 levels each in 16 runs with
strength-2 balance: across the 16 runs, every ordered pair of levels of
every pair of factors occurs exactly once, and every level of every
factor occurs exactly four times. Range analysis sums the response
over the four runs sharing a factor level and picks the level with the
largest sum.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import write_csv
from .errors import DataError
from .model import HyperParams

FACTOR_NAMES = tuple(f.name for f in fields(HyperParams))
N_LEVELS = 4
N_FACTORS = 5

# The fixed design: the standard 16-run, 5-factor, 4-level assignment.
# ``L16[r][f]`` is the 1-based level factor ``f`` takes in run ``r``.
L16 = (
    (1, 1, 1, 1, 1),
    (1, 2, 2, 2, 2),
    (1, 3, 3, 3, 3),
    (1, 4, 4, 4, 4),
    (2, 1, 2, 3, 4),
    (2, 2, 1, 4, 3),
    (2, 3, 4, 1, 2),
    (2, 4, 3, 2, 1),
    (3, 1, 3, 4, 2),
    (3, 2, 4, 3, 1),
    (3, 3, 1, 2, 4),
    (3, 4, 2, 1, 3),
    (4, 1, 4, 2, 3),
    (4, 2, 3, 1, 4),
    (4, 3, 2, 4, 1),
    (4, 4, 1, 3, 2),
)
N_RUNS = len(L16)
# Fraction of the exhaustive 4**5 = 1,024-run sweep the design avoids.
SAVINGS = 1.0 - N_RUNS / N_LEVELS**N_FACTORS


def build_plan(level_values) -> tuple:
    """Check the 4 candidate values of each of the 5 factors and return
    them as a tuple of tuples: ``levels[f][l]`` is the concrete value of
    factor ``f`` at level ``l + 1``.

    Every run's values must make a ``model.HyperParams``, which owns the
    rules of each knob; the 16 runs hold every level, so each level is
    checked. Its types are exact, so ``results.csv`` writes each value
    as plain Python formats it. A factor's 4 levels are distinct.
    """
    level_values = tuple(tuple(values) for values in level_values)
    if len(level_values) != N_FACTORS:
        raise DataError(
            f"plan needs exactly {N_FACTORS} factors, got {len(level_values)}"
        )
    for name, values in zip(FACTOR_NAMES, level_values):
        if len(values) != N_LEVELS:
            raise DataError(
                f"factor {name} needs exactly {N_LEVELS} level "
                f"values, got {len(values)}"
            )
    for run in range(N_RUNS):  # before set(), which a list level would break
        HyperParams(*run_values(level_values, run))
    for name, values in zip(FACTOR_NAMES, level_values):
        if len(set(values)) != N_LEVELS:
            raise DataError(f"factor {name} level values must be distinct")
    return level_values


def run_values(levels, run: int) -> tuple:
    """Concrete factor values for one run (0-based index)."""
    return tuple(values[level - 1] for values, level in zip(levels, L16[run]))


def is_orthogonal(rows) -> bool:
    """Exhaustive strength-2 check over all factor pairs of a design's
    rows of 1-based level indices."""
    levels = len({row[0] for row in rows})
    expected = len(rows) // (levels * levels)
    n_factors = len(rows[0])
    for fa in range(n_factors):
        for fb in range(fa + 1, n_factors):
            seen: dict = {}
            for row in rows:
                key = (row[fa], row[fb])
                seen[key] = seen.get(key, 0) + 1
            if len(seen) != levels * levels:
                return False
            if any(count != expected for count in seen.values()):
                return False
    return True


def execute(levels, runner, workers: int, results: list) -> list:
    """Hand every pending run's factor combination to ``runner``.

    ``runner(values)`` receives one run's concrete factor values and
    returns its accuracy in [0, 1], or None for a run that could not
    produce one, which the analysis rejects later. ``workers`` threads
    dispatch the runs: each calls ``runner`` and waits for it, so up to
    ``workers`` runs are in flight at once, and the runner decides where
    a run is computed. ``results`` is the caller's list, one entry per
    run, filled in place by run index as each run returns and then
    returned, so the outcome is schedule-independent; runs already
    holding an accuracy, from an interrupted sweep, are skipped. An
    exception from ``runner`` stops the sweep: no run starts after it,
    the running ones finish, and the exception of the first faulted run
    in run order propagates; the runs that finished stay in ``results``.
    """
    faulted = threading.Event()

    def run(index):
        if faulted.is_set():
            return
        try:
            results[index] = runner(run_values(levels, index))
        except BaseException:
            faulted.set()
            raise

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(run, index)
                   for index in range(N_RUNS) if results[index] is None]
        for future in futures:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return results


@dataclass(frozen=True)
class RangeAnalysis:
    """Per-factor per-level response sums and the winning levels.

    ``level_sums[f][l]`` accumulates the accuracies of the runs where
    factor ``f`` sat at level ``l + 1``; ``best_levels[f]`` is the
    1-based level with the largest sum (ties go to the lowest index) and
    ``best_values[f]`` its concrete value.
    """

    level_sums: tuple
    best_levels: tuple
    best_values: tuple


def range_analysis(levels, accuracies) -> RangeAnalysis:
    """Sum the ``N_RUNS`` accuracies per factor level and select the best
    levels."""
    missing = [i for i, a in enumerate(accuracies) if a is None]
    if missing:
        raise DataError(
            f"missing accuracies for runs {[i + 1 for i in missing]}; "
            f"re-run them before analysing"
        )

    sums = np.zeros((N_FACTORS, N_LEVELS))
    for run, row in enumerate(L16):
        for f in range(N_FACTORS):
            sums[f][row[f] - 1] += accuracies[run]

    best_levels = tuple(int(np.argmax(sums[f])) + 1 for f in range(N_FACTORS))
    best_values = tuple(levels[f][best_levels[f] - 1] for f in range(N_FACTORS))
    return RangeAnalysis(
        level_sums=tuple(tuple(float(x) for x in sums[f]) for f in range(N_FACTORS)),
        best_levels=best_levels,
        best_values=best_values,
    )


# ---------------------------------------------------------------------------
# CSV persistence so an interrupted sweep can resume

def save_plan(levels, results, path) -> None:
    """Write run index, concrete factor values, and accuracy (if any)."""
    write_csv(path, ("run", *FACTOR_NAMES, "accuracy"), (
        (run + 1, *run_values(levels, run),
         None if results[run] is None else float(results[run]))
        for run in range(N_RUNS)
    ))


def load_results(levels, path) -> list:
    """Read back accuracies saved by :func:`save_plan`; None where blank.

    Each run appears once, with the plan's factor values (so a stale
    file from a different plan is rejected) and an accuracy that is
    blank or a number in [0, 1].
    """
    path = Path(path)
    results = [None] * N_RUNS
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines or lines[0] != "run," + ",".join(FACTOR_NAMES) + ",accuracy":
        raise DataError(f"{path}: unexpected results header")
    if len(lines) - 1 != N_RUNS:
        raise DataError(
            f"{path}: expected {N_RUNS} result rows, got {len(lines) - 1}"
        )
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != N_FACTORS + 2:
            raise DataError(f"{path}: malformed row {line!r}")
        try:
            run = int(cells[0]) - 1
            got = tuple(float(c) for c in cells[1:-1])
            accuracy = float(cells[-1]) if cells[-1] else None
        except ValueError:
            raise DataError(f"{path}: malformed row {line!r}") from None
        if not 0 <= run < N_RUNS or run in seen:
            raise DataError(
                f"{path}: run {cells[0]} repeated or outside 1..{N_RUNS}"
            )
        seen.add(run)
        expected = run_values(levels, run)
        if got != tuple(float(v) for v in expected):
            raise DataError(
                f"{path}: run {run + 1} factor values {got} do not match "
                f"the plan's {expected}"
            )
        if accuracy is not None and not 0.0 <= accuracy <= 1.0:
            raise DataError(
                f"{path}: run {run + 1} accuracy {cells[-1]} is not a number in [0, 1]"
            )
        results[run] = accuracy
    return results


def save_analysis(analysis: RangeAnalysis, path) -> None:
    """Level-sum table plus best level/value per factor."""
    header = ("factor", *(f"level{k}_sum" for k in range(1, N_LEVELS + 1)),
              "best_level", "best_value")
    write_csv(path, header, (
        (name, *analysis.level_sums[f], analysis.best_levels[f],
         analysis.best_values[f])
        for f, name in enumerate(FACTOR_NAMES)
    ))
