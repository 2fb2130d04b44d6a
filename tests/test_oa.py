"""Orthogonal-array plan, execution, and range-analysis tests.

The 16 run accuracies used as a regression fixture are a known outcome
of a full tuning sweep with known analysis results.
"""

import dataclasses
import itertools
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings

from mindctl.errors import DataError
from mindctl.model import HyperParams
from mindctl.oa import (
    FACTOR_NAMES,
    L16,
    N_RUNS,
    SAVINGS,
    build_plan,
    execute,
    is_orthogonal,
    load_results,
    range_analysis,
    run_values,
    save_analysis,
    save_plan,
)
from helpers import mutated_bytes

LEVELS = (
    (0.002, 0.004, 0.006, 0.008),
    (0.005, 0.01, 0.015, 0.02),
    (16, 32, 48, 64),
    (5, 6, 7, 8),
    (1, 3, 6, 13),
)

KNOWN_RUN_ACCURACIES = [
    0.689, 0.91, 0.893, 0.667, 0.925, 0.717, 0.848, 0.77,
    0.926, 0.826, 0.322, 0.367, 0.93, 0.422, 0.684, 0.404,
]


def test_plan_fixed_run_values():
    plan = build_plan(LEVELS)
    assert run_values(plan, 0) == (0.002, 0.005, 16, 5, 1)
    assert run_values(plan, 4) == (0.004, 0.005, 32, 7, 13)
    assert run_values(plan, 15) == (0.008, 0.02, 16, 7, 3)


def test_plan_orthogonality_brute_force():
    # independent enumeration: every ordered level pair of every factor
    # pair appears exactly once across the 16 runs
    for fa, fb in itertools.combinations(range(5), 2):
        pairs = [(row[fa], row[fb]) for row in L16]
        assert sorted(pairs) == sorted(itertools.product((1, 2, 3, 4), repeat=2))
    assert is_orthogonal(L16)


def test_swapping_two_entries_of_a_column_breaks_orthogonality():
    # rows 1 and 2 of column 2 hold levels 1 and 2: every level still
    # occurs four times, but the pairs with the other columns repeat
    rows = [list(row) for row in L16]
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
    assert rows[0][1] != rows[1][1]
    assert not is_orthogonal(tuple(map(tuple, rows)))


def test_each_level_occurs_four_times():
    for f in range(5):
        column = [row[f] for row in L16]
        assert sorted(column) == [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4


def test_permuting_level_values_keeps_assignment():
    permuted = build_plan(tuple(tuple(reversed(vals)) for vals in LEVELS))
    # run parameters permute correspondingly: level 1 now yields the old
    # level-4 value
    assert run_values(permuted, 0) == (0.008, 0.02, 64, 8, 13)


def test_build_plan_rejects_wrong_counts():
    with pytest.raises(DataError, match="5 factors"):
        build_plan(LEVELS[:4])
    with pytest.raises(DataError, match="4 level"):
        build_plan(LEVELS[:4] + ((1, 2, 3),))
    with pytest.raises(DataError, match="distinct"):
        build_plan(LEVELS[:4] + ((1, 1, 2, 3),))


# ---------------------------------------------------------------------------
# execution

def test_constant_runner():
    plan = build_plan(LEVELS)
    results = execute(plan, lambda values: 0.5, 1, [None] * N_RUNS)
    assert results == [0.5] * 16


def test_lookup_runner_reproduces_fixture():
    plan = build_plan(LEVELS)
    table = {run_values(plan, i): KNOWN_RUN_ACCURACIES[i] for i in range(16)}
    results = execute(plan, lambda values: table[values], 1, [None] * N_RUNS)
    assert results == KNOWN_RUN_ACCURACIES


def test_parallel_equals_sequential():
    plan = build_plan(LEVELS)

    def runner(values):
        return (values[0] * 1000 + values[2]) / 1e6

    sequential = execute(plan, runner, 1, [None] * N_RUNS)
    parallel = execute(plan, runner, 8, [None] * N_RUNS)
    assert sequential == parallel


def test_failed_run_recorded_and_blocks_analysis():
    plan = build_plan(LEVELS)

    def flaky(values):
        return None if values[2] == 48 else 0.5

    results = execute(plan, flaky, 1, [None] * N_RUNS)
    assert results.count(None) == 4  # width=48 appears in 4 runs
    with pytest.raises(DataError, match="missing accuracies"):
        range_analysis(plan, results)


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_runner_propagates(workers):
    # a runner exception is a fault, not a failed run: it is not recorded
    plan = build_plan(LEVELS)

    def faulty(values):
        if values[2] == 48:
            raise RuntimeError("boom")
        return 0.5

    with pytest.raises(RuntimeError, match="boom"):
        execute(plan, faulty, workers, [None] * N_RUNS)


def test_fault_stops_the_sweep_before_earlier_runs_return():
    # run 0 is slow and run 1 faults at once: no queued run may start
    # while run 0 still runs
    plan = build_plan(LEVELS)
    runs = [run_values(plan, i) for i in range(N_RUNS)]
    started = []

    def runner(values):
        index = runs.index(values)
        started.append(index)
        if index == 0:
            time.sleep(0.2)
        elif index == 1:
            raise RuntimeError("boom")
        return 0.5

    with pytest.raises(RuntimeError, match="boom"):
        execute(plan, runner, 2, [None] * N_RUNS)
    assert sorted(started) == [0, 1]


def test_execute_skips_existing_results():
    plan = build_plan(LEVELS)
    existing = [0.1] * 16
    existing[3] = None
    calls = []

    def runner(values):
        calls.append(values)
        return 0.9

    results = execute(plan, runner, 1, existing)
    assert len(calls) == 1
    assert results[3] == 0.9
    assert results[0] == 0.1


def test_worker_threads_fill_every_run_under_fast_switching():
    # more workers than cores, each storing its own run's result
    plan = build_plan(LEVELS)
    expected = [(v[0] * 1000 + v[2]) / 1e6
                for v in (run_values(plan, run) for run in range(16))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            results = execute(plan, lambda v: (v[0] * 1000 + v[2]) / 1e6,
                              8, [None] * N_RUNS)
            assert results == expected
    finally:
        sys.setswitchinterval(interval)


def test_factor_names_follow_hyperparams_fields():
    # the CLI builds HyperParams by name from a run's factor values
    assert FACTOR_NAMES == tuple(f.name for f in dataclasses.fields(HyperParams))


# ---------------------------------------------------------------------------
# range analysis

def test_range_analysis_known_fixture():
    plan = build_plan(LEVELS)
    analysis = range_analysis(plan, KNOWN_RUN_ACCURACIES)
    sums = analysis.level_sums
    assert np.allclose(sums[0], (3.159, 3.26, 2.441, 2.44), atol=1e-9)
    assert abs(sums[1][0] - 3.47) < 1e-9
    assert abs(sums[2][3] - 3.271) < 1e-9
    assert abs(sums[3][2] - 3.048) < 1e-9
    assert abs(sums[4][1] - 3.088) < 1e-9
    assert analysis.best_values == (0.004, 0.005, 64, 7, 3)
    assert analysis.best_levels == (2, 1, 4, 3, 2)


def test_all_equal_accuracies_tie_to_level_one():
    plan = build_plan(LEVELS)
    analysis = range_analysis(plan, [0.5] * 16)
    assert analysis.best_levels == (1, 1, 1, 1, 1)
    for row in analysis.level_sums:
        assert np.allclose(row, 2.0)


def test_range_analysis_matches_summation_oracle():
    plan = build_plan(LEVELS)
    rng = np.random.default_rng(8)
    accuracies = rng.uniform(0, 1, size=16).tolist()
    analysis = range_analysis(plan, accuracies)
    for f in range(5):
        for level in range(1, 5):
            expected = sum(
                accuracies[run]
                for run in range(16)
                if L16[run][f] == level
            )
            assert analysis.level_sums[f][level - 1] == pytest.approx(
                expected, abs=1e-12
            )


def test_row_sum_conservation():
    plan = build_plan(LEVELS)
    rng = np.random.default_rng(9)
    accuracies = rng.uniform(0, 1, size=16).tolist()
    total = sum(accuracies)
    analysis = range_analysis(plan, accuracies)
    for row in analysis.level_sums:
        assert abs(sum(row) - total) < 1e-12


def test_analysis_is_permutation_stable():
    # run order is irrelevant: results join by run index, so feeding the
    # same indexed accuracies always gives the same analysis
    plan = build_plan(LEVELS)
    a = range_analysis(plan, KNOWN_RUN_ACCURACIES)
    b = range_analysis(plan, list(KNOWN_RUN_ACCURACIES))
    assert a == b


# ---------------------------------------------------------------------------
# savings

def test_savings_sixteen_of_1024():
    assert SAVINGS == 1.0 - 16.0 / 1024.0
    assert round(SAVINGS, 3) == 0.984


def test_nine_run_three_level_design_is_orthogonal():
    l9 = (
        (1, 1, 1), (1, 2, 2), (1, 3, 3),
        (2, 1, 2), (2, 2, 3), (2, 3, 1),
        (3, 1, 3), (3, 2, 1), (3, 3, 2),
    )
    assert is_orthogonal(l9)


# ---------------------------------------------------------------------------
# persistence

def test_plan_results_round_trip(tmp_path):
    plan = build_plan(LEVELS)
    results = list(KNOWN_RUN_ACCURACIES)
    results[5] = None
    path = tmp_path / "results.csv"
    save_plan(plan, results, path)
    assert load_results(plan, path) == results


def test_load_results_rejects_stale_plan(tmp_path):
    plan = build_plan(LEVELS)
    path = tmp_path / "results.csv"
    save_plan(plan, KNOWN_RUN_ACCURACIES, path)
    other = build_plan(tuple(tuple(v * 2 for v in vals) for vals in LEVELS))
    with pytest.raises(DataError, match="do not match"):
        load_results(other, path)


def test_load_results_malformed_row_is_data_error(tmp_path):
    plan = build_plan(LEVELS)
    path = tmp_path / "results.csv"
    save_plan(plan, KNOWN_RUN_ACCURACIES, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",high"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="malformed row"):
        load_results(plan, path)


_FUZZ_PLAN = build_plan(LEVELS)
_FUZZ_RESULTS = ("run,l2,lr,width,layers,batches,accuracy\n" + "".join(
    f"{run + 1},{','.join(map(str, run_values(_FUZZ_PLAN, run)))},{acc}\n"
    for run, acc in enumerate([*KNOWN_RUN_ACCURACIES[:5], "",
                               *KNOWN_RUN_ACCURACIES[6:]])
)).encode("ascii")


@settings(max_examples=200, deadline=None)
@given(mutated_bytes(_FUZZ_RESULTS))
@example(_FUZZ_RESULTS.replace(b",0.689\n", b",0.68\xff\n"))
@example(b"\xff" + _FUZZ_RESULTS)
def test_mutated_results_load_or_fail_as_data_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz_results.csv"
    path.write_bytes(blob)
    try:
        results = load_results(_FUZZ_PLAN, path)
    except DataError:
        return
    assert all(acc is None or 0.0 <= acc <= 1.0 for acc in results)


def test_save_analysis_layout(tmp_path):
    plan = build_plan(LEVELS)
    analysis = range_analysis(plan, KNOWN_RUN_ACCURACIES)
    path = tmp_path / "analysis.csv"
    save_analysis(analysis, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("factor,level1_sum")
    assert len(lines) == 6
    best = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
    assert best == {"l2": "0.004", "lr": "0.005", "width": "64",
                    "layers": "7", "batches": "3"}
