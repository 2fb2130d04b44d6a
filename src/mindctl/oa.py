"""Orthogonal-array experiment planning and range analysis.

A 16-run plan covers 5 factors at 4 levels each with strength-2
balance: across the 16 runs, every ordered pair of levels of every pair
of factors occurs exactly once, and every level of every factor occurs
exactly four times. Range analysis sums the response over the four runs
sharing a factor level and picks the level with the largest sum.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import write_csv
from .errors import DataError

FACTOR_NAMES = ("l2", "lr", "width", "layers", "batches")
N_LEVELS = 4
N_FACTORS = 5
INTEGER_FACTORS = ("width", "layers", "batches")

# Standard 16-run, 5-factor, 4-level assignment (level indices 1..4).
_L16_4_5 = (
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


@dataclass(frozen=True)
class OaPlan:
    """Level assignment matrix plus the concrete values behind the levels.

    ``assignment[r][f]`` is the 1-based level index factor ``f`` takes in
    run ``r``; ``level_values[f][l]`` is the concrete value of level
    ``l + 1``.
    """

    factor_names: tuple
    level_values: tuple  # per factor, tuple of 4 values
    assignment: tuple = _L16_4_5

    @property
    def n_runs(self) -> int:
        return len(self.assignment)

    @property
    def n_levels(self) -> int:
        return len(self.level_values[0])

    @property
    def n_factors(self) -> int:
        return len(self.factor_names)

    def run_values(self, run: int) -> tuple:
        """Concrete factor values for one run (0-based index)."""
        row = self.assignment[run]
        return tuple(
            self.level_values[f][row[f] - 1] for f in range(self.n_factors)
        )


def build_plan(level_values) -> OaPlan:
    """Build the 16-run plan for 5 factors with 4 candidate values each.

    Every level is a finite ``int`` or ``float`` (``bool`` is not a
    number here); the integer factors take ``int`` levels only.
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
        integral = name in INTEGER_FACTORS
        if not all(_is_level(v, integral) for v in values):
            kind = "integers" if integral else "finite numbers"
            raise DataError(f"factor {name} levels must be {kind}, got {values}")
        if len(set(values)) != N_LEVELS:
            raise DataError(f"factor {name} level values must be distinct")
    return OaPlan(factor_names=FACTOR_NAMES, level_values=level_values)


def _is_level(value, integral: bool) -> bool:
    # exact types: bool and numpy scalars are out, so results.csv
    # writes every value as plain Python formats it
    if type(value) is int:
        return True
    return not integral and type(value) is float and math.isfinite(value)


def is_orthogonal(plan: OaPlan) -> bool:
    """Exhaustive strength-2 check over all factor pairs."""
    runs = plan.n_runs
    levels = plan.n_levels
    expected = runs // (levels * levels)
    for fa in range(plan.n_factors):
        for fb in range(fa + 1, plan.n_factors):
            seen: dict = {}
            for row in plan.assignment:
                key = (row[fa], row[fb])
                seen[key] = seen.get(key, 0) + 1
            if len(seen) != levels * levels:
                return False
            if any(count != expected for count in seen.values()):
                return False
    return True


def savings(plan: OaPlan) -> float:
    """Fraction of an exhaustive sweep the plan avoids."""
    exhaustive = plan.n_levels**plan.n_factors
    return 1.0 - plan.n_runs / exhaustive


def execute(plan: OaPlan, runner, workers: int = 1, results=None) -> list:
    """Evaluate every pending run's factor combination with ``runner``.

    ``runner(values)`` receives one run's concrete factor values and
    returns its accuracy in [0, 1], or None for a run that could not
    produce one, which the analysis rejects later. Runs are independent
    and execute on ``workers`` threads. ``results`` is the caller's list
    (a new all-pending one when None), filled in place by run index as
    each run returns and then returned, so the outcome is
    schedule-independent; runs already holding an accuracy, from an
    interrupted sweep, are skipped. An exception from ``runner`` stops
    the sweep: no run starts after it, the running ones finish, and the
    exception of the first faulted run in run order propagates; the runs
    that finished stay in ``results``.
    """
    if results is None:
        results = [None] * plan.n_runs
    if len(results) != plan.n_runs:
        raise DataError(
            f"existing results cover {len(results)} runs, plan has {plan.n_runs}"
        )

    faulted = threading.Event()

    def run(index):
        if faulted.is_set():
            return
        try:
            results[index] = runner(plan.run_values(index))
        except BaseException:
            faulted.set()
            raise

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(run, index)
                   for index in range(plan.n_runs) if results[index] is None]
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

    factor_names: tuple
    level_sums: tuple
    best_levels: tuple
    best_values: tuple


def range_analysis(plan: OaPlan, accuracies) -> RangeAnalysis:
    """Sum accuracies per factor level and select the best levels."""
    accuracies = list(accuracies)
    if len(accuracies) != plan.n_runs:
        raise DataError(
            f"need {plan.n_runs} accuracies, got {len(accuracies)}"
        )
    missing = [i for i, a in enumerate(accuracies) if a is None]
    if missing:
        raise DataError(
            f"missing accuracies for runs {[i + 1 for i in missing]}; "
            f"re-run them before analysing"
        )

    sums = np.zeros((plan.n_factors, plan.n_levels))
    for run, row in enumerate(plan.assignment):
        for f in range(plan.n_factors):
            sums[f][row[f] - 1] += accuracies[run]

    best_levels = tuple(int(np.argmax(sums[f])) + 1 for f in range(plan.n_factors))
    best_values = tuple(
        plan.level_values[f][best_levels[f] - 1] for f in range(plan.n_factors)
    )
    return RangeAnalysis(
        factor_names=plan.factor_names,
        level_sums=tuple(tuple(float(x) for x in sums[f]) for f in range(plan.n_factors)),
        best_levels=best_levels,
        best_values=best_values,
    )


# ---------------------------------------------------------------------------
# CSV persistence so an interrupted sweep can resume

def save_plan(plan: OaPlan, results, path) -> None:
    """Write run index, concrete factor values, and accuracy (if any)."""
    write_csv(path, ("run", *plan.factor_names, "accuracy"), (
        (run + 1, *plan.run_values(run),
         None if results[run] is None else float(results[run]))
        for run in range(plan.n_runs)
    ))


def load_results(plan: OaPlan, path) -> list:
    """Read back accuracies saved by :func:`save_plan`; None where blank.

    Each run appears once, with the plan's factor values (so a stale
    file from a different plan is rejected) and an accuracy that is
    blank or a number in [0, 1].
    """
    path = Path(path)
    results = [None] * plan.n_runs
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines or lines[0] != "run," + ",".join(plan.factor_names) + ",accuracy":
        raise DataError(f"{path}: unexpected results header")
    if len(lines) - 1 != plan.n_runs:
        raise DataError(
            f"{path}: expected {plan.n_runs} result rows, got {len(lines) - 1}"
        )
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != plan.n_factors + 2:
            raise DataError(f"{path}: malformed row {line!r}")
        try:
            run = int(cells[0]) - 1
            got = tuple(float(c) for c in cells[1:-1])
            accuracy = float(cells[-1]) if cells[-1] else None
        except ValueError:
            raise DataError(f"{path}: malformed row {line!r}") from None
        if not 0 <= run < plan.n_runs or run in seen:
            raise DataError(
                f"{path}: run {cells[0]} repeated or outside 1..{plan.n_runs}"
            )
        seen.add(run)
        expected = plan.run_values(run)
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
        for f, name in enumerate(analysis.factor_names)
    ))
