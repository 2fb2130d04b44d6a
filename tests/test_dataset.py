"""Labeling, splitting, and table-format tests."""

import dataclasses
import hashlib
import json
import os
import re
import tracemalloc
import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindctl import dataset
from mindctl.dataset import (
    SAVE_BLOCK_ROWS,
    SIDECAR_MAGIC,
    TABLE_HEADER,
    SampleSet,
    default_mapping,
    label_map,
    label_samples,
    load_mapping,
    load_table,
    save_split,
    save_table,
    split,
)
from mindctl.edf import EdfAnnotation, EdfChannel, EdfRecording
from mindctl.errors import DataError

from helpers import mutated_bytes, reference_save_table


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
    mapping = label_map([((4,), "T1", 2)])
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
    mapping = label_map([((4,), "T1", 2), ((4,), "T2", 3)])
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
    mapping = label_map([((4,), "T1", 2)])
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
    mapping = label_map([((4,), "T1", 2), ((4,), "T2", 3)])
    with pytest.raises(DataError, match="overlapping"):
        label_samples(rec, 4, mapping)


def test_unmatched_run_is_loud():
    rec = make_recording(annotations=[EdfAnnotation(0.0, 1.0, "T1")])
    mapping = label_map([((99,), "T1", 2)])
    with pytest.raises(DataError, match="matches no annotation"):
        label_samples(rec, 4, mapping)


def test_too_few_channels_is_shape_error():
    rec = make_recording(annotations=[EdfAnnotation(0.0, 1.0, "T1")])
    rec = dataclasses.replace(rec, channels=rec.channels[:10], signals=rec.signals[:10])
    mapping = label_map([((4,), "T1", 2)])
    with pytest.raises(DataError, match="channels"):
        label_samples(rec, 4, mapping)


def test_ambiguous_mapping_rejected():
    with pytest.raises(DataError, match="ambiguous"):
        label_map([((4,), "T1", 2), ((4, 8), "T1", 3)])


def test_default_mapping_covers_documented_runs():
    mapping = default_mapping()
    assert mapping.get((2, "T0")) == 1
    assert mapping.get((4, "T1")) == 2
    assert mapping.get((12, "T2")) == 3
    assert mapping.get((6, "T1")) == 4
    assert mapping.get((10, "T2")) == 5
    assert mapping.get((3, "T1")) is None


def test_mapping_file_round_trip(tmp_path):
    # the default rules, written in the format README documents
    path = tmp_path / "mapping.json"
    path.write_text(
        '{"rules": [{"runs": [2], "annotation": "T0", "label": 1},\n'
        '  {"runs": [4, 8, 12], "annotation": "T1", "label": 2},\n'
        '  {"runs": [4, 8, 12], "annotation": "T2", "label": 3},\n'
        '  {"runs": [6, 10, 14], "annotation": "T1", "label": 4},\n'
        '  {"runs": [6, 10, 14], "annotation": "T2", "label": 5}]}\n'
    )
    assert load_mapping(path) == default_mapping()


@pytest.mark.parametrize("rule", [
    {"runs": "48", "annotation": "T1", "label": 2},
    {"runs": [4.9], "annotation": "T1", "label": 2},
    {"runs": [4], "annotation": "T1", "label": 2.7},
    {"runs": [4], "annotation": "T1", "label": True},
    {"runs": [4], "annotation": 1, "label": 2},
    {"runs": [4], "annotation": "T1", "label": 6},
], ids=["runs_text", "runs_float", "label_float", "label_bool", "annotation_int",
        "label_outside"])
def test_mapping_file_values_are_checked_not_coerced(tmp_path, rule):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps({"rules": [rule]}))
    with pytest.raises(DataError, match=re.escape(f"invalid mapping file {path}: ")):
        load_mapping(path)


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
    with pytest.raises(DataError, match="multiple of batch count \\+ 1 = 4"):
        split(_sequential_samples(27), 3)


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
    # the blocks are views of the samples, not copies
    assert np.shares_memory(result.features, samples.features)
    assert np.shares_memory(result.labels, samples.labels)


# ---------------------------------------------------------------------------
# table format

def test_table_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    samples = SampleSet(rng.normal(size=(40, 64)), rng.integers(1, 6, size=40))
    path = tmp_path / "table.csv"
    save_table(samples, path)
    assert load_table(path) == samples
    assert samples != object()  # a SampleSet equals only a SampleSet


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


@pytest.mark.parametrize("label", ["0", "6", "inf", "1e300", "9.3e18"])
def test_table_label_cells_are_checked_before_the_integer_cast(tmp_path, label):
    path = tmp_path / "t.csv"
    save_table(_sequential_samples(4), path)
    path.write_text(path.read_text().replace(",1\n", f",{label}\n"))
    expected = f"t.csv: labels must be in 1..5, got {float(label)!r} at row 0"
    with pytest.raises(DataError, match=re.escape(expected)):
        load_table(path)


def test_sampleset_validation():
    expected = "features must be (n, 64), got (3, 10)"
    with pytest.raises(DataError, match=re.escape(expected)):
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


# ---------------------------------------------------------------------------
# fuzzing the table reader with byte mutations of a small valid table

_FUZZ_TABLE = (TABLE_HEADER + "\n" + "".join(
    ",".join(repr(0.25 * (c - 32 + row)) for c in range(64)) + f",{row + 1}\n"
    for row in range(3)
)).encode("ascii")


@settings(max_examples=200, deadline=None)
@given(mutated_bytes(_FUZZ_TABLE))
@example(_FUZZ_TABLE.replace(b",1\n", b",inf\n"))
@example(_FUZZ_TABLE.replace(b",1\n", b",1e300\n"))
@example(_FUZZ_TABLE.replace(b",1\n", b",9.3e18\n"))
@example(_FUZZ_TABLE.replace(b",", b"\xff,", 1))  # in the header
@example(_FUZZ_TABLE.replace(b"\n", b"\n\xff", 1))  # in the first row
@example(_FUZZ_TABLE.replace(b"\n", b"\n# note\n", 1))  # a comment line
@example(_FUZZ_TABLE.replace(b",2\n", b",2#9\n"))  # a comment in a cell
def test_mutated_table_loads_valid_or_fails_as_data_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz_table.csv"
    path.write_bytes(blob)
    try:
        samples = load_table(path)
    except DataError as exc:
        assert str(path) in str(exc)
        return
    assert b"#" not in blob  # no part of a table is a comment
    assert np.isfinite(samples.features).all()
    assert np.isin(samples.labels, (1, 2, 3, 4, 5)).all()


# ---------------------------------------------------------------------------
# the binary sidecar save_table writes beside each table

def _edge_samples(rows, seed):
    # signed zeros and repr's notation edges, so a bit-level compare
    # tells -0.0 from 0.0; Fortran order, so the writer must reorder
    rng = np.random.default_rng(seed)
    values = np.array(_REPR_EDGES)[rng.integers(0, len(_REPR_EDGES), (rows, 64))]
    return SampleSet(np.asfortranarray(values), rng.integers(1, 6, size=rows))


def _same_bits(a, b):
    return (np.array_equal(a.features.view(np.int64), b.features.view(np.int64))
            and np.array_equal(a.labels, b.labels))


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_sidecar_layout_and_round_trip(tmp_path, rows):
    samples = _edge_samples(rows, seed=rows)
    path = tmp_path / "t.csv"
    save_table(samples, path)
    payload = samples.features.tobytes() + samples.labels.astype("<i8").tobytes()
    digest = hashlib.sha256(path.read_bytes() + payload).digest()
    assert (tmp_path / "t.csv.bin").read_bytes() == SIDECAR_MAGIC + digest + payload
    back = load_table(path)
    assert back.features.shape == (rows, 64) and _same_bits(back, samples)
    flags = back.features.flags
    assert flags.c_contiguous and flags.writeable and flags.owndata


def test_table_with_its_sidecar_loads_without_the_text_parse(tmp_path, monkeypatch):
    samples = _edge_samples(7, seed=3)
    save_table(samples, tmp_path / "t.csv")

    def no_parse(*args, **kwargs):
        raise AssertionError("the CSV text was parsed")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    assert _same_bits(load_table(tmp_path / "t.csv"), samples)


@pytest.mark.parametrize("edit", [lambda blob: b"x" + blob[1:],
                                  lambda blob: blob + b"\x00"],
                         ids=["another_magic", "a_partial_row"])
def test_sidecar_of_another_magic_or_size_is_not_read(tmp_path, monkeypatch, edit):
    samples = _edge_samples(3, seed=4)
    path, side = tmp_path / "t.csv", tmp_path / "t.csv.bin"
    save_table(samples, path)
    side.write_bytes(edit(side.read_bytes()))
    parse, parsed = dataset._parse_table, []
    monkeypatch.setattr(dataset, "_parse_table",
                        lambda p: parsed.append(p) or parse(p))
    assert _same_bits(load_table(path), samples) and parsed == [path]


def test_interrupted_save_leaves_no_stale_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    save_table(_sequential_samples(3), path)

    def broken(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(np, "unique", broken)  # fails inside the CSV write
    with pytest.raises(RuntimeError):
        save_table(_sequential_samples(4), path)
    assert not (tmp_path / "t.csv.bin").exists()


@settings(max_examples=80, deadline=None)
@given(how=st.sampled_from(["mutate", "truncate", "delete", "cell"]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sidecar_that_does_not_match_its_table_is_not_trusted(
        tmp_path_factory, how, seed, data):
    rows = data.draw(st.integers(1 if how == "cell" else 0, 4), label="rows")
    samples = _edge_samples(rows, seed)
    d = tmp_path_factory.mktemp("sidecar")
    path, side = d / "t.csv", d / "t.csv.bin"
    save_table(samples, path)
    blob = side.read_bytes()
    if how == "mutate":
        side.write_bytes(data.draw(mutated_bytes(blob), label="sidecar"))
    elif how == "truncate":
        side.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    elif how == "delete":
        side.unlink()
    else:  # one cell of the CSV gets another valid value
        row = data.draw(st.integers(0, rows - 1), label="row")
        col = data.draw(st.integers(0, 63), label="column")
        value = data.draw(st.floats(allow_nan=False, allow_infinity=False))
        lines = path.read_text().split("\n")
        cells = lines[row + 1].split(",")
        cells[col] = repr(value)
        lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines))
        samples.features[row, col] = value
    listing = {p.name: p.read_bytes() for p in d.iterdir()}
    loaded = load_table(path)
    assert {p.name: p.read_bytes() for p in d.iterdir()} == listing
    alone = tmp_path_factory.mktemp("alone") / "t.csv"
    alone.write_bytes(path.read_bytes())
    parsed = load_table(alone)
    assert _same_bits(loaded, parsed) and _same_bits(parsed, samples)


# ---------------------------------------------------------------------------
# split's two sources: a verified table's rows are copied, any other
# table's are formatted, and both give save_table's bytes

_SPLIT_FILES = ("train.csv", "test.csv", "train.csv.bin", "test.csv.bin")


def _save_blocks(samples, n_b, out, save=save_table):
    blocks = split(samples, n_b)
    out.mkdir()
    save(blocks.train, out / "train.csv")
    save(blocks.test, out / "test.csv")
    return blocks


def _same_files(a, b, names=_SPLIT_FILES):
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


def _resign(path):
    """Give the table at ``path`` a sidecar that matches its current bytes."""
    side = path.with_name(path.name + ".bin")
    payload = side.read_bytes()[len(SIDECAR_MAGIC) + 32:]
    digest = hashlib.sha256(path.read_bytes() + payload).digest()
    side.write_bytes(SIDECAR_MAGIC + digest + payload)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 12), n_b=st.integers(1, 5),
       chunk=st.sampled_from([5, 97, 4096, 1 << 20]), seed=st.integers(0, 2**32 - 1))
def test_split_of_a_verified_table_copies_its_rows(tmp_path_factory, batch, n_b,
                                                   chunk, seed):
    samples = _edge_samples(batch * (n_b + 1), seed)
    d = tmp_path_factory.mktemp("split")
    save_table(samples, d / "all.csv")
    want = _save_blocks(samples, n_b, d / "want")

    def no_format(*args):
        raise AssertionError("a verified table's rows were formatted")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_csv_blocks", no_format)
        mp.setattr(dataset, "_CHUNK", chunk)  # cuts inside and across chunks
        got = save_split(d / "all.csv", n_b, d / "train.csv", d / "test.csv")
    assert _same_bits(got.train, want.train) and _same_bits(got.test, want.test)
    assert _same_files(d, d / "want")


@pytest.mark.parametrize("edit, sidecar", [
    ("none", "deleted"), ("cell", "stale"), ("crlf", "stale"), ("crlf", "resigned"),
    ("blank", "stale"), ("blank", "resigned"), ("1.50", "stale"),
])
def test_split_of_an_unverified_table_formats_its_rows(tmp_path, edit, sidecar):
    samples = _edge_samples(12, seed=4)
    samples.features[5, 9] = 1.5
    path = tmp_path / "all.csv"
    save_table(samples, path)
    text = path.read_bytes()
    path.write_bytes({
        "none": text,
        "cell": text.replace(b",1.5,", b",2.5,"),
        "crlf": text.replace(b"\n", b"\r\n"),
        "blank": text.replace(b"\n", b"\n\n", 3),
        "1.50": text.replace(b",1.5,", b",1.50,"),
    }[edit])
    assert path.read_bytes() != text or edit == "none"
    if sidecar == "deleted":
        (tmp_path / "all.csv.bin").unlink()
    elif sidecar == "resigned":  # verifies, but its lines are not save_table's
        _resign(path)
    alone = tmp_path / "alone.csv"
    alone.write_bytes(path.read_bytes())
    parsed = load_table(alone)
    _save_blocks(parsed, 3, tmp_path / "ref", save=reference_save_table)
    _save_blocks(parsed, 3, tmp_path / "want")
    save_split(path, 3, tmp_path / "train.csv", tmp_path / "test.csv")
    assert _same_files(tmp_path, tmp_path / "want")
    assert _same_files(tmp_path, tmp_path / "ref", ("train.csv", "test.csv"))


def test_split_of_a_verified_table_streams_its_rows(tmp_path):
    rows = 2000
    save_table(_edge_samples(rows, seed=8), tmp_path / "all.csv")
    tracemalloc.start()
    try:
        save_split(tmp_path / "all.csv", 3, tmp_path / "train.csv",
                   tmp_path / "test.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = rows * 8 * 65
    assert os.path.getsize(tmp_path / "all.csv") > payload  # not held whole
    assert peak < payload + (2 << 20)
