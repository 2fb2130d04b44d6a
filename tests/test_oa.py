"""Orthogonal-array plan, execution, and range-analysis tests.

The 16 run accuracies used as a regression fixture are a known outcome
of a full tuning sweep with known analysis results.
"""

import itertools

import numpy as np
import pytest

from mindctl.errors import AnalysisError, DataError
from mindctl.oa import (
    OaPlan,
    build_plan,
    execute,
    is_orthogonal,
    load_results,
    range_analysis,
    save_analysis,
    save_plan,
    savings,
)

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
    assert plan.run_values(0) == (0.002, 0.005, 16, 5, 1)
    assert plan.run_values(4) == (0.004, 0.005, 32, 7, 13)
    assert plan.run_values(15) == (0.008, 0.02, 16, 7, 3)


def test_plan_orthogonality_brute_force():
    plan = build_plan(LEVELS)
    # independent enumeration: every ordered level pair of every factor
    # pair appears exactly once across the 16 runs
    for fa, fb in itertools.combinations(range(5), 2):
        pairs = [(row[fa], row[fb]) for row in plan.assignment]
        assert sorted(pairs) == sorted(itertools.product((1, 2, 3, 4), repeat=2))
    assert is_orthogonal(plan)


def test_each_level_occurs_four_times():
    plan = build_plan(LEVELS)
    for f in range(5):
        column = [row[f] for row in plan.assignment]
        assert sorted(column) == [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4


def test_permuting_level_values_keeps_assignment():
    plan = build_plan(LEVELS)
    permuted = build_plan(tuple(tuple(reversed(vals)) for vals in LEVELS))
    assert permuted.assignment == plan.assignment
    # run parameters permute correspondingly: level 1 now yields the old
    # level-4 value
    assert permuted.run_values(0) == (0.008, 0.02, 64, 8, 13)


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
    results = execute(plan, lambda values: 0.5)
    assert results == [0.5] * 16


def test_lookup_runner_reproduces_fixture():
    plan = build_plan(LEVELS)
    table = {plan.run_values(i): KNOWN_RUN_ACCURACIES[i] for i in range(16)}
    results = execute(plan, lambda values: table[values])
    assert results == KNOWN_RUN_ACCURACIES


def test_parallel_equals_sequential():
    plan = build_plan(LEVELS)

    def runner(values):
        return (values[0] * 1000 + values[2]) / 1e6

    sequential = execute(plan, runner, workers=1)
    parallel = execute(plan, runner, workers=8)
    assert sequential == parallel


def test_failed_run_recorded_and_blocks_analysis():
    plan = build_plan(LEVELS)

    def flaky(values):
        return None if values[2] == 48 else 0.5

    results = execute(plan, flaky)
    assert results.count(None) == 4  # width=48 appears in 4 runs
    with pytest.raises(AnalysisError, match="missing accuracies"):
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
        execute(plan, faulty, workers=workers)


def test_execute_skips_existing_results():
    plan = build_plan(LEVELS)
    existing = [0.1] * 16
    existing[3] = None
    calls = []

    def runner(values):
        calls.append(values)
        return 0.9

    results = execute(plan, runner, existing=existing)
    assert len(calls) == 1
    assert results[3] == 0.9
    assert results[0] == 0.1


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
                if plan.assignment[run][f] == level
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
    plan = build_plan(LEVELS)
    assert savings(plan) == 1.0 - 16.0 / 1024.0
    assert round(savings(plan), 3) == 0.984


def test_savings_exhaustive_plan_is_zero():
    rows = tuple(
        tuple(int(d) + 1 for d in np.base_repr(i, 4).zfill(5)) for i in range(1024)
    )
    plan = OaPlan(factor_names=("a", "b", "c", "d", "e"),
                  level_values=((1, 2, 3, 4),) * 5, assignment=rows)
    assert savings(plan) == 0.0


def test_savings_nine_run_three_level_design():
    l9 = (
        (1, 1, 1), (1, 2, 2), (1, 3, 3),
        (2, 1, 2), (2, 2, 3), (2, 3, 1),
        (3, 1, 3), (3, 2, 1), (3, 3, 2),
    )
    plan = OaPlan(factor_names=("a", "b", "c"),
                  level_values=((1, 2, 3),) * 3, assignment=l9)
    assert is_orthogonal(plan)
    assert savings(plan) == pytest.approx(2.0 / 3.0, abs=1e-15)


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
