"""Labeled EEG samples: extraction from recordings, splits, table files,
the writers of every other CSV and JSON artifact, and the JSON reader.

A sample is one 64-channel reading (physical units, microvolts) plus an
intent label 1..5. Sample order is temporal and must be preserved: the
recurrent model treats consecutive samples as a time sequence.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .edf import EdfRecording, parse_edf
from .errors import DataError

N_CHANNELS = 64
N_CLASSES = 5
LABELS = (1, 2, 3, 4, 5)

TABLE_HEADER = ",".join(f"ch{i}" for i in range(1, N_CHANNELS + 1)) + ",label"


class SampleSet:
    """An ordered block of labeled samples, stored as arrays.

    ``features`` is (n, 64) float64, ``labels`` is (n,) int with values
    in 1..5.
    """

    def __init__(self, features, labels):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2 or features.shape[1] != N_CHANNELS:
            raise DataError(
                f"features must be (n, {N_CHANNELS}), got {features.shape}"
            )
        # checked before the integer cast, which would mangle 1.5 or inf
        outside = ~np.isin(labels, LABELS)
        if outside.any():
            row = int(np.argmax(outside))
            raise DataError(f"labels must be in 1..{N_CLASSES}, got "
                            f"{labels[row].item()!r} at row {row}")
        if not np.isfinite(features).all():
            finite = np.isfinite(features).all(axis=1)
            raise DataError(
                f"features must be finite: {int((~finite).sum())} samples hold "
                f"NaN or infinity, the first at row {int(np.argmin(finite))}"
            )
        self.features = features
        self.labels = labels.astype(np.int64, copy=False)

    def __len__(self) -> int:
        return self.features.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return np.array_equal(self.features, other.features) and np.array_equal(
            self.labels, other.labels
        )

    @staticmethod
    def concat(parts: list["SampleSet"]) -> "SampleSet":
        return SampleSet(
            np.concatenate([p.features for p in parts]),
            np.concatenate([p.labels for p in parts]),
        )


def label_map(rules) -> dict:
    """The ``(run, annotation) -> label`` lookup of ``(runs, annotation,
    label)`` rules; time points no key matches are skipped.

    Every label is in 1..5, and no two rules send the same (run,
    annotation) pair to different labels.
    """
    mapping = {}
    for runs, annotation, label in rules:
        if label not in LABELS:
            raise DataError(f"rule label {label} outside 1..{N_CLASSES}")
        for run in runs:
            seen = mapping.setdefault((run, annotation), label)
            if seen != label:
                raise DataError(
                    f"ambiguous mapping: run {run} annotation {annotation!r} "
                    f"assigned labels {seen} and {label}"
                )
    return mapping


def default_mapping() -> dict:
    """Built-in lookup for the public 64-channel motor-imagery recordings.

    Run 2 is the eyes-closed baseline (whole run annotated T0); runs
    4/8/12 are left/right-fist imagery and runs 6/10/14 are both-fists/
    both-feet imagery. Override with a mapping file if your recordings
    differ.
    """
    return label_map([
        ((2,), "T0", 1),
        ((4, 8, 12), "T1", 2),
        ((4, 8, 12), "T2", 3),
        ((6, 10, 14), "T1", 4),
        ((6, 10, 14), "T2", 5),
    ])


def load_mapping(path) -> dict:
    """The lookup of a file ``{"rules": [{"runs": [4, 8], "annotation":
    "T1", "label": 2}, ...]}``; values are checked, never converted."""
    payload = read_json(path)
    try:
        rules = [(e["runs"], e["annotation"], e["label"])
                 for e in payload["rules"]]
    except (KeyError, TypeError) as exc:
        raise DataError(f"invalid mapping file {path}: {exc}") from None
    for runs, annotation, label in rules:
        # exact types: a bool is no integer and "48" is no list of runs
        if (type(runs) is not list or any(type(r) is not int for r in runs)
                or type(annotation) is not str or type(label) is not int):
            raise DataError(
                f"invalid mapping file {path}: a rule needs runs as a list of "
                f"integers, annotation as a string and label as an integer, "
                f"got {runs!r}, {annotation!r}, {label!r}"
            )
    try:
        return label_map(rules)
    except DataError as exc:  # a label outside 1..5 or an ambiguous pair
        raise DataError(f"invalid mapping file {path}: {exc}") from None


def label_samples(
    recording: EdfRecording,
    run: int,
    mapping: dict,
) -> SampleSet:
    """Turn annotated stretches of a recording into labeled samples.

    Every time point inside a matched annotation window becomes one
    sample holding the 64 raw channel readings at that instant; time
    points outside matched windows are dropped.
    """
    if len(recording.channels) < N_CHANNELS:
        raise DataError(
            f"recording has {len(recording.channels)} channels, "
            f"need at least {N_CHANNELS}"
        )
    spr = {recording.channels[i].samples_per_record for i in range(N_CHANNELS)}
    if len(spr) != 1:
        raise DataError(
            f"first {N_CHANNELS} channels disagree on samples per record: "
            f"{sorted(spr)}"
        )

    rate = recording.sample_rate(0)
    data = np.stack(
        [recording.physical(i) for i in range(N_CHANNELS)], axis=1
    )
    total = data.shape[0]

    windows = []
    for ann in recording.annotations:
        label = mapping.get((run, ann.text))
        if label is None:
            continue
        # floats until checked: an extreme rate makes them inf or NaN
        start = float(np.floor(ann.onset * rate + 0.5))
        stop = min(start + float(np.floor(ann.duration * rate + 0.5)), total)
        if not start < stop:
            continue
        windows.append((int(start), int(stop), label))
    if not windows:
        raise DataError(
            f"mapping matches no annotation present in run {run}"
        )

    windows.sort(key=lambda w: w[0])
    for (_, prev_stop, _), (nxt_start, _, _) in zip(windows, windows[1:]):
        if nxt_start < prev_stop:
            raise DataError(
                f"overlapping matched annotation windows at sample {nxt_start}"
            )

    features = np.concatenate([data[a:b] for a, b, _ in windows])
    labels = np.concatenate(
        [np.full(b - a, lbl, dtype=np.int64) for a, b, lbl in windows]
    )
    return SampleSet(features, labels)


@dataclass
class DatasetSplit:
    """Train/test partition controlled by the batch count ``n_b``: the
    samples, in order, as ``n_b + 1`` equal blocks, the training batches
    and then the test set. ``features`` is (n_b + 1, batch_size, 64) and
    ``labels`` (n_b + 1, batch_size), views of the samples' arrays.
    """

    features: np.ndarray
    labels: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.features.shape[1]

    @property
    def train(self) -> SampleSet:
        return SampleSet(self.features[:-1].reshape(-1, N_CHANNELS),
                         self.labels[:-1].reshape(-1))

    @property
    def test(self) -> SampleSet:
        return SampleSet(self.features[-1], self.labels[-1])

    def train_batches(self):
        return map(SampleSet, self.features[:-1], self.labels[:-1])


def split(samples: SampleSet, n_batches: int) -> DatasetSplit:
    """Partition samples into train/test by the batch count.

    A deterministic block split that keeps recording order, which the
    recurrent model depends on.
    """
    if n_batches < 1:
        raise DataError(f"batch count must be >= 1, got {n_batches}")
    total = len(samples)
    divisor = n_batches + 1
    if total == 0 or total % divisor != 0:
        raise DataError(
            f"total sample count {total} must be a positive multiple of "
            f"batch count + 1 = {divisor}"
        )
    shape = (divisor, total // divisor)
    return DatasetSplit(
        features=samples.features.reshape(shape + (N_CHANNELS,)),
        labels=samples.labels.reshape(shape),
    )


# ---------------------------------------------------------------------------
# artifact files: every CSV and JSON output goes through these writers

def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """One header line, then one line per row, with LF line ends.

    A float cell is written in shortest round-trip form, None as an
    empty cell and anything else with ``str``.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_json(path, obj) -> None:
    """2-space indent, sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The value in a UTF-8 JSON file; bad bytes or syntax name the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# flat table interchange format: one row per sample, 64 channel columns
# then the label, with a one-line header. Values are written with
# shortest-exact float formatting so files diff cleanly and reload bit-
# identically.
#
# Table values come from 16-bit EDF samples through a per-channel affine
# map, so they repeat heavily: _csv_blocks formats each distinct value
# in a block of SAVE_BLOCK_ROWS rows once. The block bounds the memory of
# the index and the cell strings.
#
# Beside each table it writes, save_table leaves a binary sidecar
# (``<table name>.bin``): SIDECAR_MAGIC, the SHA-256 digest of the CSV's
# bytes followed by the payload, then the payload, the features as one
# C-order <f8 (n, 64) block and the labels as <i8 (n,). load_table reads
# the arrays from it only when its magic, size and digest all match the
# CSV beside it; any other table, or a table edited after it was
# written, is parsed as text. The digest is unkeyed: it tells a stale or
# edited table, not a forged one.

SAVE_BLOCK_ROWS = 1024
SIDECAR_MAGIC = b"mindctl-table 1\n"
_HEADER_LINE = (TABLE_HEADER + "\n").encode("ascii")
_SIDECAR_HEAD = len(SIDECAR_MAGIC) + hashlib.sha256().digest_size
_SIDECAR_ROW = 8 * (N_CHANNELS + 1)
_CHUNK = 1 << 20


def _csv_blocks(values, labels):
    """The table lines of float64 (n, 64) ``values`` and their ``labels``
    (values in LABELS): one string per block of SAVE_BLOCK_ROWS rows.

    In each block every distinct value is formatted once, keyed by its
    bit pattern, which keeps -0.0 apart from 0.0, and gathered back into
    place, and the block is joined in one call.
    """
    for start in range(0, len(values), SAVE_BLOCK_ROWS):
        block = values[start:start + SAVE_BLOCK_ROWS]
        bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        reprs = list(map(repr, bits.view(np.float64).tolist()))
        # LABELS are consecutive: a label's text sits at label - LABELS[0]
        text = [r + "," for r in reprs] + [f"{label}\n" for label in LABELS]
        ends = labels[start:start + SAVE_BLOCK_ROWS] - LABELS[0] + len(reprs)
        index = np.column_stack((inverse.reshape(block.shape), ends))
        yield "".join(np.array(text, dtype=object)[index].ravel().tolist())


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".bin")


def save_table(samples: SampleSet, path, rows=None) -> None:
    """Write ``samples`` as the table at ``path``, then its sidecar.

    ``rows``, when given, is the text of exactly these rows as byte
    chunks, written in place of formatting them.
    """
    path = Path(path)
    sidecar = _sidecar(path)
    sidecar.unlink(missing_ok=True)  # a stale one would no longer match
    features = samples.features
    if rows is None:
        rows = (text.encode("ascii") for text in _csv_blocks(features, samples.labels))
    digest = hashlib.sha256(_HEADER_LINE)
    with open(path, "wb") as fh:
        fh.write(_HEADER_LINE)
        for chunk in rows:
            digest.update(chunk)
            fh.write(chunk)
    payload = (np.ascontiguousarray(features, dtype="<f8"),
               np.ascontiguousarray(samples.labels, dtype="<i8"))
    for arr in payload:
        digest.update(arr)
    with open(sidecar, "wb") as fh:
        fh.write(SIDECAR_MAGIC + digest.digest())
        for arr in payload:
            fh.write(arr)


def _chunks(fh):
    """The rest of the open binary file ``fh``, in chunks of at most
    _CHUNK bytes read into one buffer: a chunk is valid until the next
    one is drawn."""
    buf = bytearray(_CHUNK)
    while size := fh.readinto(buf):
        if size < len(buf):
            del buf[size:]
        yield buf


def _lines(fh, count: int):
    """The next ``count`` lines of the open binary file ``fh``, as
    :func:`_chunks` draws them, leaving ``fh`` just past them."""
    for chunk in _chunks(fh):
        found = chunk.count(b"\n")
        if found < count:
            count -= found
            yield chunk
            continue
        end = 0
        for _ in range(count):
            end = chunk.index(b"\n", end) + 1
        fh.seek(end - len(chunk), os.SEEK_CUR)
        yield memoryview(chunk)[:end]
        return


def _read_sidecar(path: Path, table):
    """``(features, labels)`` from the sidecar of the table at ``path``,
    or None unless its magic, size and digest match ``table``, that
    table's bytes as chunks."""
    try:
        with open(_sidecar(path), "rb") as side:
            head = side.read(_SIDECAR_HEAD)
            rows, extra = divmod(os.fstat(side.fileno()).st_size - _SIDECAR_HEAD,
                                 _SIDECAR_ROW)
            if not head.startswith(SIDECAR_MAGIC) or rows < 0 or extra:
                return None
            digest = hashlib.sha256()
            for chunk in table:
                digest.update(chunk)
            payload = (np.empty((rows, N_CHANNELS), dtype="<f8"),
                       np.empty(rows, dtype="<i8"))
            for arr in payload:
                if side.readinto(arr) != arr.nbytes:
                    return None  # the file shrank between fstat and read
                digest.update(arr)
    except OSError:  # no sidecar
        return None
    if digest.digest() != head[len(SIDECAR_MAGIC):]:
        return None
    return payload


def _parse_table(path: Path):
    """``(features, labels)`` parsed from the table's CSV text."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != TABLE_HEADER:
                raise DataError(
                    f"{path}: unexpected table header (want 'ch1,...,ch64,label')"
                )
            # numpy warns on a table without rows, so that case stops here;
            # numpy skips empty lines, so only those are passed over
            rows_start = fh.tell()
            line = fh.readline()
            while line == "\n":
                rows_start = fh.tell()
                line = fh.readline()
            if not line:
                return np.empty((0, N_CHANNELS)), np.empty(0)
            fh.seek(rows_start)
            data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2,
                              comments=None)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: malformed table row: {exc}") from exc
    if data.shape[1] != N_CHANNELS + 1:
        raise DataError(
            f"{path}: expected {N_CHANNELS + 1} columns, got {data.shape[1]}"
        )
    return data[:, :-1], data[:, -1]


def _samples(path: Path, columns) -> SampleSet:
    try:
        return SampleSet(*columns)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_table(path) -> SampleSet:
    path = Path(path)
    try:
        with open(path, "rb") as table:
            columns = _read_sidecar(path, _chunks(table))
    except OSError:  # no table: the parse names the failure
        columns = None
    if columns is None:
        columns = _parse_table(path)
    return _samples(path, columns)


def save_split(source, n_batches: int, train_path, test_path) -> DatasetSplit:
    """:func:`split` of the table at ``source``, saved as the tables
    ``train_path`` and ``test_path``.

    When ``source`` verifies through its sidecar, starts with the
    TABLE_HEADER line, holds one more line than rows and is neither
    output, the outputs' rows are copied from its bytes, which are the
    text save_table would format again. Any other source is loaded and
    its rows formatted.
    """
    source, outputs = Path(source), (Path(train_path), Path(test_path))
    result = _copy_split(source, n_batches, outputs)
    if result is None:
        result = split(load_table(source), n_batches)
        save_table(result.train, outputs[0])
        save_table(result.test, outputs[1])
    return result


def _copy_split(source: Path, n_batches: int, outputs):
    """:func:`save_split` by copying rows, or None, having written
    nothing, when ``source`` does not qualify."""
    if not source.is_file() or any(
            out.exists() and os.path.samefile(source, out) for out in outputs):
        return None
    lines = 0

    def counted(chunks):
        nonlocal lines
        for chunk in chunks:
            lines += chunk.count(b"\n")
            yield chunk

    with open(source, "rb") as table:
        columns = _read_sidecar(source, counted(_chunks(table)))
        table.seek(0)
        if (columns is None or lines != len(columns[1]) + 1
                or table.read(len(_HEADER_LINE)) != _HEADER_LINE):
            return None
        result = split(_samples(source, columns), n_batches)
        train = result.train
        save_table(train, outputs[0], rows=_lines(table, len(train)))
        save_table(result.test, outputs[1], rows=_chunks(table))
    return result


# ---------------------------------------------------------------------------
# bulk ingest of subject recordings named like S001R04.edf

_EDF_NAME = re.compile(r"S(\d{3})R(\d{2})\.edf$", re.IGNORECASE)


def find_recordings(edf_dir) -> dict:
    """Map subject id -> {run number -> path} for files under ``edf_dir``
    named like S001R04.edf in any letter case. Two files for one subject
    and run are a :class:`DataError` naming both."""
    found: dict = {}
    for path in sorted(Path(edf_dir).rglob("*")):
        match = _EDF_NAME.search(path.name)
        if not match:
            continue
        subject, run = match.group(1), int(match.group(2))
        runs = found.setdefault(subject, {})
        if run in runs:
            raise DataError(f"subject {subject} run {run} is recorded twice: "
                            f"{runs[run]} and {path}")
        runs[run] = path
    return found


def ingest_subject(
    run_paths: dict,
    runs,
    mapping: dict,
    cap=None,
) -> SampleSet:
    """Extract one subject's labeled samples from the requested runs.

    Runs are processed in ascending order; ``cap`` truncates to the
    first ``cap`` labeled samples so per-subject counts are fixed.
    """
    parts = []
    for run in sorted(runs):
        if run not in run_paths:
            raise DataError(f"run {run} not found (have {sorted(run_paths)})")
        recording = parse_edf(Path(run_paths[run]).read_bytes())
        parts.append(label_samples(recording, run, mapping))
    samples = SampleSet.concat(parts)
    if cap is not None:
        if len(samples) < cap:
            raise DataError(
                f"subject yields {len(samples)} labeled samples, "
                f"fewer than the requested {cap}"
            )
        samples = SampleSet(samples.features[:cap], samples.labels[:cap])
    return samples
