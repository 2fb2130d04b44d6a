"""Labeling, splitting, and table-format tests."""

import hashlib
import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindctl.dataset import (
    SAVE_BLOCK_ROWS,
    LabelMapping,
    MappingRule,
    SampleSet,
    default_mapping,
    label_samples,
    load_mapping,
    load_table,
    save_mapping,
    save_table,
    split,
)
from mindctl.edf import EdfAnnotation, EdfChannel, EdfRecording
from mindctl.errors import DataError, MappingError, ShapeError, SplitError

from helpers import reference_save_table


def make_recording(total_samples=20, rate=10, annotations=()):
    """64-channel synthetic recording with identity-ish calibration."""
    n_records = total_samples // rate
    rng = np.random.default_rng(3)
    channels = [
        EdfChannel(
            label=f"EEG {i}",
            physical_min=-2048.0,
            physical_max=2047.0,
            digital_min=-2048,
            digital_max=2047,
            samples_per_record=rate,
        )
        for i in range(64)
    ]
    signals = [
        rng.integers(-2048, 2048, size=total_samples).astype(np.int16)
        for _ in range(64)
    ]
    return EdfRecording(
        patient_id="p",
        recording_id="r",
        start=datetime(2000, 1, 1, 0, 0, 0),
        n_records=n_records,
        record_duration=rate / rate,  # 1 s records at `rate` Hz
        channels=channels,
        signals=signals,
        annotations=list(annotations),
    )


def test_single_window_labels_every_covered_sample():
    rec = make_recording(annotations=[EdfAnnotation(0.0, 1.0, "T1")])
    mapping = LabelMapping([MappingRule(frozenset({4}), "T1", 2)])
    samples = label_samples(rec, 4, mapping)
    assert len(samples) == 10  # samples 0..9 at 10 Hz
    assert np.all(samples.labels == 2)
    expected = np.stack([rec.physical(i)[:10] for i in range(64)], axis=1)
    assert np.array_equal(samples.features, expected)


def test_disjoint_windows_partition_against_brute_force():
    rec = make_recording(
        annotations=[
            EdfAnnotation(0.0, 0.7, "T1"),
            EdfAnnotation(1.2, 0.8, "T2"),
        ]
    )
    mapping = LabelMapping(
        [
            MappingRule(frozenset({4}), "T1", 2),
            MappingRule(frozenset({4}), "T2", 3),
        ]
    )
    samples = label_samples(rec, 4, mapping)

    # brute-force oracle: classify every time point by window membership
    rate = 10.0
    expected = []
    for t in range(20):
        for onset, dur, lbl in [(0.0, 0.7, 2), (1.2, 0.8, 3)]:
            start = int(np.floor(onset * rate + 0.5))
            stop = start + int(np.floor(dur * rate + 0.5))
            if start <= t < stop:
                expected.append((t, lbl))
    assert len(samples) == len(expected)
    assert list(samples.labels) == [lbl for _, lbl in expected]
    data = np.stack([rec.physical(i) for i in range(64)], axis=1)
    for row, (t, _) in zip(samples.features, expected):
        assert np.array_equal(row, data[t])


def test_labeling_is_pure():
    rec = make_recording(annotations=[EdfAnnotation(0.0, 1.0, "T1")])
    mapping = LabelMapping([MappingRule(frozenset({4}), "T1", 2)])
    a = label_samples(rec, 4, mapping)
    b = label_samples(rec, 4, mapping)
    assert a == b


def test_overlapping_matched_windows_rejected():
    rec = make_recording(
        annotations=[
            EdfAnnotation(0.0, 1.0, "T1"),
            EdfAnnotation(0.5, 1.0, "T2"),
        ]
    )
    mapping = LabelMapping(
        [
            MappingRule(frozenset({4}), "T1", 2),
            MappingRule(frozenset({4}), "T2", 3),
        ]
    )
    with pytest.raises(MappingError, match="overlapping"):
        label_samples(rec, 4, mapping)


def test_unmatched_run_is_loud():
    rec = make_recording(annotations=[EdfAnnotation(0.0, 1.0, "T1")])
    mapping = LabelMapping([MappingRule(frozenset({99}), "T1", 2)])
    with pytest.raises(MappingError, match="matches no annotation"):
        label_samples(rec, 4, mapping)


def test_too_few_channels_is_shape_error():
    rec = make_recording(annotations=[EdfAnnotation(0.0, 1.0, "T1")])
    rec.channels = rec.channels[:10]
    rec.signals = rec.signals[:10]
    mapping = LabelMapping([MappingRule(frozenset({4}), "T1", 2)])
    with pytest.raises(ShapeError, match="channels"):
        label_samples(rec, 4, mapping)


def test_ambiguous_mapping_rejected():
    with pytest.raises(MappingError, match="ambiguous"):
        LabelMapping(
            [
                MappingRule(frozenset({4}), "T1", 2),
                MappingRule(frozenset({4, 8}), "T1", 3),
            ]
        )


def test_default_mapping_covers_documented_runs():
    mapping = default_mapping()
    assert mapping.label_for(2, "T0") == 1
    assert mapping.label_for(4, "T1") == 2
    assert mapping.label_for(12, "T2") == 3
    assert mapping.label_for(6, "T1") == 4
    assert mapping.label_for(10, "T2") == 5
    assert mapping.label_for(3, "T1") is None


def test_mapping_file_round_trip(tmp_path):
    path = tmp_path / "mapping.json"
    save_mapping(default_mapping(), path)
    assert load_mapping(path) == default_mapping()


# ---------------------------------------------------------------------------
# splits

def _sequential_samples(n):
    features = np.arange(n * 64, dtype=np.float64).reshape(n, 64)
    labels = (np.arange(n) % 5) + 1
    return SampleSet(features, labels)


def test_split_counts_at_batch_count_three():
    result = split(_sequential_samples(28000), 3)
    assert len(result.train) == 21000
    assert len(result.test) == 7000
    assert result.batch_size == 7000


def test_split_counts_at_batch_count_one():
    result = split(_sequential_samples(28000), 1)
    assert len(result.train) == 14000
    assert len(result.test) == 14000


def test_split_small_proportion():
    result = split(_sequential_samples(28), 13)
    assert len(result.train) == 26
    assert len(result.test) == 2


def test_split_preserves_order_and_conserves_samples():
    samples = _sequential_samples(28)
    result = split(samples, 3)
    rebuilt = SampleSet.concat([result.train, result.test])
    assert rebuilt == samples
    batches = list(result.train_batches())
    assert len(batches) == 3
    assert SampleSet.concat(batches) == result.train


def test_split_indivisible_total_names_divisor():
    with pytest.raises(SplitError, match="multiple of batch count \\+ 1 = 4"):
        split(_sequential_samples(27), 3)


def test_shuffled_split_is_seeded_and_conserving():
    samples = _sequential_samples(28)
    a = split(samples, 3, shuffle_seed=5)
    b = split(samples, 3, shuffle_seed=5)
    assert a.train == b.train and a.test == b.test
    merged = np.concatenate([a.train.features, a.test.features])
    assert np.array_equal(
        np.sort(merged.reshape(-1)), np.sort(samples.features.reshape(-1))
    )


@settings(max_examples=50, deadline=None)
@given(
    n_batches=st.integers(1, 6),
    batch_size=st.integers(1, 8),
)
def test_split_conservation_property(n_batches, batch_size):
    total = (n_batches + 1) * batch_size
    samples = _sequential_samples(total)
    result = split(samples, n_batches)
    assert len(result.train) == n_batches * batch_size
    assert len(result.test) == batch_size
    assert SampleSet.concat([result.train, result.test]) == samples


# ---------------------------------------------------------------------------
# table format

def test_table_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    samples = SampleSet(rng.normal(size=(40, 64)), rng.integers(1, 6, size=40))
    path = tmp_path / "table.csv"
    save_table(samples, path)
    assert load_table(path) == samples


def test_table_header_and_determinism(tmp_path):
    samples = _sequential_samples(8)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_table(samples, p1)
    save_table(samples, p2)
    assert p1.read_bytes() == p2.read_bytes()
    first = p1.read_text().splitlines()[0]
    assert first.startswith("ch1,ch2,") and first.endswith("ch64,label")


# values where repr switches notation or precision: signed zeros, the
# smallest subnormal and normal, the extremes, and both sides of the
# fixed/exponent boundaries at 1e16 and 1e-4
_REPR_EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308,
               1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05]
_B = SAVE_BLOCK_ROWS


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B + 3]),
    pool=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=6),
    layout=st.sampled_from(["C", "F", "row-sliced"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_save_table_bytes_match_reference(tmp_path_factory, n, pool, layout,
                                          seed):
    rng = np.random.default_rng(seed)
    values = np.array(pool + _REPR_EDGES)
    features = values[rng.integers(0, len(values), size=(2 * n, 65))]
    if layout == "row-sliced":
        features = features[::2, 1:]
    else:
        features = np.asarray(features[:n, :64], order=layout)
    samples = SampleSet(features, rng.integers(1, 6, size=n))
    d = tmp_path_factory.mktemp("table")
    save_table(samples, d / "new.csv")
    reference_save_table(samples, d / "ref.csv")
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()
    back = load_table(d / "new.csv")
    assert np.array_equal(back.features.view(np.int64),
                          samples.features.view(np.int64))
    assert np.array_equal(back.labels, samples.labels)


@pytest.mark.parametrize("rows", [0, 3])
@pytest.mark.parametrize("blank", ["", "\n", "\n\n\n"])
def test_blank_lines_after_header_are_skipped(tmp_path, rows, blank):
    # numpy's "input contained no data" warning must not reach the caller
    samples = _sequential_samples(rows)
    path = tmp_path / "t.csv"
    save_table(samples, path)
    header, body = path.read_text().split("\n", 1)
    path.write_text(header + "\n" + blank + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_table(path) == samples


def test_quantized_table_digest_is_pinned(tmp_path):
    # EDF-style values (digital - dmin) * gain + pmin with a non-dyadic
    # gain per channel; the digest was recorded with the one-repr-per-cell
    # writer, so any change to the written bytes shows here
    rng = np.random.default_rng(21)
    dmin, dmax = -32768, 32767
    pmin = -500.0 - rng.integers(0, 300, size=64)
    pmax = 500.0 + rng.integers(0, 300, size=64)
    gain = (pmax - pmin) / (dmax - dmin)
    digital = rng.normal(scale=400.0, size=(2100, 64)).round().astype(np.int16)
    features = (digital.astype(np.float64) - dmin) * gain + pmin
    path = tmp_path / "t.csv"
    save_table(SampleSet(features, rng.integers(1, 6, size=2100)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2554df1fca91558fc50538e923757c0de43a932b6460220cbeadf4d0bde942b6"
    )


def test_table_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError, match="header"):
        load_table(path)


def test_table_rejects_non_integer_labels(tmp_path):
    samples = _sequential_samples(4)
    path = tmp_path / "t.csv"
    save_table(samples, path)
    text = path.read_text().replace(",1\n", ",1.5\n")
    path.write_text(text)
    with pytest.raises(DataError, match="label"):
        load_table(path)


def test_sampleset_validation():
    with pytest.raises(ShapeError):
        SampleSet(np.zeros((3, 10)), np.ones(3))
    with pytest.raises(DataError, match="labels must be in 1..5"):
        SampleSet(np.zeros((2, 64)), np.array([1, 9]))
    features = np.zeros((4, 64))
    features[2, 7] = np.nan
    features[3, 0] = np.inf
    with pytest.raises(DataError, match="2 samples .* first at row 2"):
        SampleSet(features, np.ones(4))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_table_rejects_non_finite_features(tmp_path, bad):
    path = tmp_path / "t.csv"
    save_table(_sequential_samples(4), path)
    lines = path.read_text().splitlines()
    values = lines[3].split(",")
    values[10] = bad
    lines[3] = ",".join(values)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="t.csv: features must be finite"):
        load_table(path)
