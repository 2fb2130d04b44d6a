"""Mutation checks: each entry breaks the source on purpose, and the tests
it names must then fail.

    python tests/mutations.py            # every entry
    python tests/mutations.py NAME ...   # the named entries

Each entry is (module, exact snippet, replacement, pytest selection).
For each, the repository (without .git) is copied to a temporary
directory, the snippet, which must occur exactly once in
``src/mindctl/<module>.py``, is replaced, and the selection runs against
the copy. A selection that passes leaves a surviving mutant; the script
names every survivor and exits 1. A selection pytest cannot run (a test
renamed, say) stops the script. Nothing is written into the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = {
    "split-cut-one-row-late": (
        "dataset",
        "rows=_lines(table, len(train))",
        "rows=_lines(table, len(train) + 1)",
        ["tests/test_dataset.py::test_split_of_a_verified_table_copies_its_rows"],
    ),
    "split-ignores-the-line-count": (
        "dataset",
        "columns is None or lines != len(columns[1]) + 1",
        "columns is None",
        ["tests/test_dataset.py::test_split_of_an_unverified_table_formats_its_rows"],
    ),
    "split-ignores-the-header": (
        "dataset",
        "table.read(len(_HEADER_LINE)) != _HEADER_LINE",
        "table.read(len(_HEADER_LINE)) is None",
        ["tests/test_dataset.py::test_split_of_an_unverified_table_formats_its_rows"],
    ),
    "split-copies-onto-its-source": (
        "dataset",
        "out.exists() and os.path.samefile(source, out)",
        "False",
        ["tests/test_cli.py::test_split_may_overwrite_its_own_source"],
    ),
    "sidecar-trusted-without-digest": (
        "dataset",
        "if digest.digest() != head[len(SIDECAR_MAGIC):]:",
        "if False:",
        ["tests/test_dataset.py::test_split_of_an_unverified_table_formats_its_rows"],
    ),
    "table-comments-skipped": (
        "dataset",
        "ndmin=2,\n                              comments=None)",
        "ndmin=2)",
        ["tests/test_dataset.py::test_mutated_table_loads_valid_or_fails_as_data_error",
         "tests/test_cli.py::test_table_with_a_hash_is_a_data_error"],
    ),
    "cells-keyed-by-value": (
        "dataset",
        "np.unique(block.view(np.int64).ravel(), return_inverse=True)",
        "np.unique(block.ravel(), return_inverse=True)",
        ["tests/test_dataset.py::test_save_table_bytes_match_reference"],
    ),
    "adam-reassociated": (
        "nn",
        "lr * (m / bc1)",
        "lr / bc1 * m",
        ["tests/test_nn.py::test_adam_step_matches_per_array_reference_bit_for_bit"],
    ),
    "affine-cache-takes-column-1": (
        "nn",
        "cached[t0 : t0 + m] = y[::k]",
        "cached[t0 : t0 + m] = y[min(1, k - 1)::k]",
        ["tests/test_nn.py::test_stack_caches_are_its_first_sequence"],
    ),
    "output-reads-the-other-ring-half": (
        "nn",
        "above[g0 : g0 + m] = ring[r0 : r0 + m, 5, j]",
        "above[g0 : g0 + m] = ring[r_prev : r_prev + m, 5, j]",
        ["tests/test_nn.py::test_fused_lstm_matches_straight_line_reference"],
    ),
    "lag-ignores-k": (
        "nn",
        "n // (16 * max(k, 1) ** 2)",
        "n // 16",
        ["tests/test_model.py::test_epoch_zero_scoring_needs_the_memory_of_one_sequence"],
    ),
    "lag-leaves-a-one-row-block": (
        "nn",
        "while n > 1 and n % lag == 1:",
        "while False:",
        ["tests/test_nn.py::test_stack_outputs_and_caches_do_not_depend_on_the_lag"],
    ),
    "knn-slack-from-float64-eps": (
        "evaluation",
        "u, u64 = 2.0**-24, 2.0**-53",
        "u, u64 = 2.0**-53, 2.0**-53",
        ["tests/test_evaluation.py::"
         "test_knn_near_ties_below_float32_resolution_match_brute_force"],
    ),
    "knn-scale-dropped": (
        "evaluation",
        "s = math.ldexp(1.0, -math.frexp(S)[1] // 2)",
        "s = 1.0",
        ["tests/test_evaluation.py::"
         "test_knn_near_ties_below_float32_resolution_match_brute_force"],
    ),
    "knn-padding-passes-the-limit": (
        "evaluation",
        "B[n:, d] = 4.0",
        "B[n:, d] = -4.0",
        ["tests/test_evaluation.py::"
         "test_knn_nearest_rows_in_one_strided_group_or_the_tail[True]"],
    ),
    "knn-centring-dropped": (
        "evaluation",
        "centre = X.mean(axis=0)",
        "centre = np.zeros(X.shape[1])",
        ["tests/test_evaluation.py::"
         "test_knn_candidates_per_query_stay_few_under_a_shared_offset"],
    ),
    "knn-vote-tie-to-last-ranked-label": (
        "evaluation",
        "votes * (last + 1) - first",
        "votes * (last + 1) + first",
        ["tests/test_evaluation.py::"
         "test_knn_all_tied_full_vote_goes_to_lowest_index"],
    ),
    "auc-drops-the-tie-term": (
        "evaluation",
        "np.diff(fps), tps[1:] + tps[:-1]",
        "np.diff(fps), 2 * tps[:-1]",
        ["tests/test_evaluation.py::test_confusion_and_auc_match_loop_references"],
    ),
    "roc-keeps-every-threshold": (
        "evaluation",
        "tps, fps = tps[corner], fps[corner]",
        "tps, fps = tps, fps",
        ["tests/test_evaluation.py::test_roc_points_are_the_sweeps_corners"],
    ),
    "roc-drops-points-between-mixed-steps": (
        "evaluation",
        "dt[:-1] | dt[1:]",
        "dt[:-1] ^ dt[1:]",
        ["tests/test_evaluation.py::test_roc_points_are_the_sweeps_corners"],
    ),
    "range-analysis-argmin": (
        "oa",
        "int(np.argmax(sums[f]))",
        "int(np.argmin(sums[f]))",
        ["tests/test_oa.py::test_range_analysis_known_fixture"],
    ),
    "load-skips-the-crc": (
        "model",
        "if zlib.crc32(payload) != ",
        "if False and zlib.crc32(payload) != ",
        ["tests/test_model.py::test_payload_corruption_detected_by_checksum"],
    ),
    "majority-ties-to-larger-label": (
        "evaluation",
        "votes * (last + 1) - first",
        "votes * (last + 1) + first",
        ["tests/test_device.py::test_majority_votes_match_counting_oracle"],
    ),
    "replay-ranks-the-larger-label-first": (
        "device",
        "vote(windows, labels, labels,",
        "vote(windows, labels, LABELS[-1] - labels,",
        ["tests/test_device.py::test_majority_votes_match_counting_oracle"],
    ),
    "handle-skips-the-action-id-check": (
        "device",
        "if cmd.action_id != expected:",
        "if False:",
        ["tests/test_device.py::test_clock_cannot_move_backwards"],
    ),
    "replay-clock-one-step-late": (
        "device",
        "(seq - 1) * step_ms",
        "seq * step_ms",
        ["tests/test_device.py::test_replay_leaves_the_session_its_wire_lines_leave"],
    ),
    "train-best-on-test-loss": (
        "model",
        "if test_acc > best_acc:",
        "if test_loss < best_test_loss:",
        ["tests/test_model.py::test_train_matches_the_straight_line_reference"],
    ),
    "train-patience-off-by-one": (
        "model",
        "if epochs_without_improvement >= schedule.patience:",
        "if epochs_without_improvement > schedule.patience:",
        ["tests/test_model.py::test_train_matches_the_straight_line_reference"],
    ),
    "train-kept-forward-from-the-test-column": (
        "model",
        "kept = [(logits[:, 0].copy(), caches)]",
        "kept = [(logits[:, -1].copy(), caches)]",
        ["tests/test_model.py::test_train_matches_the_straight_line_reference"],
    ),
    "adam-step-count-not-advanced": (
        "nn",
        "AdamState(m=m, v=v, t=t)",
        "AdamState(m=m, v=v, t=state.t)",
        ["tests/test_model.py::test_train_matches_the_straight_line_reference"],
    ),
    "backward-copies-the-gates": (
        "nn",
        'dZ = cache["gates"]',
        'dZ = cache["gates"].copy()',
        ["tests/test_model.py::"
         "test_a_training_step_needs_about_the_memory_of_its_forward"],
    ),
    "gradient-keeps-its-forward": (
        "nn",
        "given.clear()",
        "pass",
        ["tests/test_model.py::test_a_forward_feeds_one_gradient"],
    ),
    "gradient-without-l2": (
        "nn",
        "dW += 2.0 * l2 * W",
        "dW += 0.0 * W",
        ["tests/test_nn.py::test_gradient_check_small_instance"],
    ),
    "l2-penalizes-biases": (
        "nn",
        "for W in layer.weight_matrices():",
        "for _, W in layer.arrays():",
        ["tests/test_nn.py::test_loss_matches_scalar_oracle"],
    ),
    "edf-signal-widths-shifted": (
        "edf",
        '("transducer", 80, str),\n    ("physical_dim", 8, str),',
        '("transducer", 79, str),\n    ("physical_dim", 9, str),',
        ["tests/test_edf.py::test_two_channel_golden_parses_and_serializes_exactly"],
    ),
    "edf-fixed-widths-shifted": (
        "edf",
        '("patient_id", 80, str),\n    ("recording_id", 80, str),',
        '("patient_id", 79, str),\n    ("recording_id", 81, str),',
        ["tests/test_edf.py::test_two_channel_golden_parses_and_serializes_exactly",
         "tests/test_edf.py::test_serialize_matches_golden_bytes"],
    ),
    "edf-recording-takes-any-duration": (
        "edf",
        "if not (math.isfinite(self.record_duration) and self.record_duration > 0):",
        "if not math.isfinite(self.record_duration):",
        ["tests/test_edf.py::test_record_duration_must_be_positive"],
    ),
    "edf-recording-takes-any-record-count": (
        "edf",
        "if not isinstance(self.n_records, (int, np.integer)) or self.n_records < 0:",
        "if False:",
        ["tests/test_edf.py::test_record_count_must_be_a_whole_number"],
    ),
    "edf-recording-takes-short-signals": (
        "edf",
        "if len(sig) != self.n_records * ch.samples_per_record:",
        "if False:",
        ["tests/test_edf.py::test_serialize_faults_are_data_errors[short_signal]"],
    ),
    "edf-annotations-without-a-record": (
        "edf",
        "if self.annotations and self.n_records == 0:",
        "if False:",
        ["tests/test_edf.py::"
         "test_serialize_faults_are_data_errors[zero_records_annotated]"],
    ),
    "edf-trailing-whitespace-kept": (
        "edf",
        "if text != text.rstrip():",
        "if False:",
        ["tests/test_edf.py::test_serialize_faults_are_data_errors"],
    ),
    "edf-digital-range-past-16-bits": (
        "edf",
        "if self.digital_min < -32768 or self.digital_max > 32767:",
        "if False:",
        ["tests/test_edf.py::test_channel_rules_raise_naming_the_channel",
         "tests/test_edf.py::test_parse_names_the_channel_that_breaks_a_rule"],
    ),
    "serve-dies-on-a-reset": (
        "device",
        "contextlib.suppress(OSError)",
        "contextlib.nullcontext()",
        ["tests/test_device.py::test_socket_server_survives_a_peer_that_resets"],
    ),
    "window-bounds-made-int-first": (
        "dataset",
        "start = float(np.floor(ann.onset * rate + 0.5))",
        "start = int(np.floor(ann.onset * rate + 0.5))",
        ["tests/test_cli.py::test_ingest_extreme_record_timing_is_data_error"],
    ),
    "serve-device-drops-the-transcript": (
        "cli",
        "transcript_path=args.transcript,",
        "transcript_path=None,",
        ["tests/test_cli.py::test_serve_device_serves_one_session"],
    ),
    "serve-device-port-unchecked": (
        "cli",
        "if not 0 <= args.port <= 65535:",
        "if False:",
        ["tests/test_cli.py::test_serve_device_port_outside_its_range_is_data_error"],
    ),
    "split-takes-no-batches": (
        "dataset",
        "if n_batches < 1:",
        "if n_batches < 0:",
        ["tests/test_cli.py::test_bad_input_exits_3_in_one_line[n_b_0]"],
    ),
    "ingest-takes-more-subjects-than-found": (
        "cli",
        "if len(subjects) < args.subjects:",
        "if False:",
        ["tests/test_cli.py::test_bad_input_exits_3_in_one_line[too_many_subjects]"],
    ),
    "ingest-cap-unchecked": (
        "dataset",
        "if len(samples) < cap:",
        "if False:",
        ["tests/test_cli.py::test_bad_input_exits_3_in_one_line[too_few_samples]"],
    ),
    "ingest-takes-mixed-rates": (
        "dataset",
        "if len(spr) != 1:",
        "if False:",
        ["tests/test_cli.py::"
         "test_bad_input_exits_3_in_one_line[mixed_samples_per_record]"],
    ),
    "mapping-missing-key-escapes": (
        "dataset",
        "except (KeyError, TypeError) as exc:",
        "except TypeError as exc:",
        ["tests/test_cli.py::"
         "test_bad_input_exits_3_in_one_line[mapping_rule_without_label]"],
    ),
    "numeric-failure-exits-3": (
        "cli",
        "return EXIT_NUMERIC",
        "return EXIT_DATA",
        ["tests/test_cli.py::test_non_finite_loss_exits_4_in_one_line"],
    ),
    "protocol-error-is-bad-input": (
        "errors",
        "class ProtocolError(Exception):",
        "class ProtocolError(PipelineError):",
        ["tests/test_cli.py::test_protocol_error_inside_a_command_is_internal_error"],
    ),
    "edf-negative-onset-unchecked": (
        "edf",
        "if ann.onset < 0:",
        "if False:",
        ["tests/test_cli.py::test_bad_input_exits_3_in_one_line[negative_onset]"],
    ),
    "edf-reserved-field-unchecked": (
        "edf",
        'if reserved and not reserved.startswith("EDF+C"):',
        "if False:",
        ["tests/test_cli.py::"
         "test_bad_input_exits_3_in_one_line[unknown_reserved_field]"],
    ),
    "edf-header-number-without-g-form": (
        "edf",
        "for precision in range(7, 0, -1):",
        "for precision in ():",
        ["tests/test_edf.py::"
         "test_header_number_too_long_for_repr_takes_the_shortest_g_form"],
    ),
    "edf-channel-takes-float-digital-bounds": (
        "edf",
        'for name in ("digital_min", "digital_max", "samples_per_record"):',
        'for name in ("samples_per_record",):',
        ["tests/test_edf.py::test_channel_rules_raise_naming_the_channel"],
    ),
    "edf-channel-takes-non-finite-physical-bounds": (
        "edf",
        'for name in ("physical_min", "physical_max"):',
        "for name in ():",
        ["tests/test_edf.py::test_channel_rules_raise_naming_the_channel",
         "tests/test_edf.py::test_serialize_faults_are_data_errors[nan_physical_min]"],
    ),
    "orthogonality-ignores-pair-counts": (
        "oa",
        "if any(count != expected for count in seen.values()):",
        "if False:",
        ["tests/test_oa.py::"
         "test_every_pair_held_unequally_often_breaks_orthogonality"],
    ),
}


def survives(name: str, tmp: Path) -> bool:
    """Whether the selection of mutant ``name`` passes on a mutated copy."""
    module, snippet, replacement, selection = MUTANTS[name]
    copy = tmp / name
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"))
    source = copy / "src" / "mindctl" / f"{module}.py"
    text = source.read_text()
    found = text.count(snippet)
    if found != 1:
        raise SystemExit(f"{name}: the snippet occurs {found} times in "
                         f"src/mindctl/{module}.py, not once: {snippet!r}")
    source.write_text(text.replace(snippet, replacement))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *selection],
        cwd=copy, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # 1: a test failed; else pytest could not run
        raise SystemExit(f"{name}: pytest exited {run.returncode}:\n"
                         f"{run.stdout}{run.stderr}")
    return run.returncode == 0


def main(names) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or MUTANTS:
            start = time.perf_counter()
            alive = survives(name, Path(tmp))
            print(f"{name}: {'SURVIVED' if alive else 'killed'} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            if alive:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} surviving mutant(s): {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
