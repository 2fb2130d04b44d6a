"""Labeled EEG samples: extraction from recordings, splits, and table files.

A sample is one 64-channel reading (physical units, microvolts) plus an
intent label 1..5. Sample order is temporal and must be preserved: the
recurrent model treats consecutive samples as a time sequence.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .edf import EdfRecording
from .errors import DataError, MappingError, ShapeError, SplitError

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
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != N_CHANNELS:
            raise ShapeError(
                f"features must be (n, {N_CHANNELS}), got {features.shape}"
            )
        if labels.shape != (features.shape[0],):
            raise ShapeError(
                f"labels shape {labels.shape} does not match "
                f"{features.shape[0]} samples"
            )
        if labels.size and (labels.min() < 1 or labels.max() > N_CLASSES):
            raise DataError(
                f"labels must be in 1..{N_CLASSES}, "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        if not np.isfinite(features).all():
            finite = np.isfinite(features).all(axis=1)
            raise DataError(
                f"features must be finite: {int((~finite).sum())} samples hold "
                f"NaN or infinity, the first at row {int(np.argmin(finite))}"
            )
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return self.features.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return np.array_equal(self.features, other.features) and np.array_equal(
            self.labels, other.labels
        )

    @staticmethod
    def empty() -> "SampleSet":
        return SampleSet(np.empty((0, N_CHANNELS)), np.empty((0,), dtype=np.int64))

    @staticmethod
    def concat(parts: list["SampleSet"]) -> "SampleSet":
        if not parts:
            return SampleSet.empty()
        return SampleSet(
            np.concatenate([p.features for p in parts]),
            np.concatenate([p.labels for p in parts]),
        )


@dataclass(frozen=True)
class MappingRule:
    runs: frozenset
    annotation: str
    label: int


@dataclass
class LabelMapping:
    """Rules assigning (run number, annotation code) pairs to intent labels.

    Unmatched time points are skipped. Two rules may not send the same
    (run, annotation) pair to different labels.
    """

    rules: list = field(default_factory=list)

    def __post_init__(self):
        seen = {}
        for rule in self.rules:
            if rule.label not in LABELS:
                raise MappingError(f"rule label {rule.label} outside 1..{N_CLASSES}")
            for run in rule.runs:
                key = (run, rule.annotation)
                if key in seen and seen[key] != rule.label:
                    raise MappingError(
                        f"ambiguous mapping: run {run} annotation "
                        f"{rule.annotation!r} assigned labels "
                        f"{seen[key]} and {rule.label}"
                    )
                seen[key] = rule.label

    def label_for(self, run: int, annotation: str):
        for rule in self.rules:
            if run in rule.runs and rule.annotation == annotation:
                return rule.label
        return None


def default_mapping() -> LabelMapping:
    """Built-in rules for the public 64-channel motor-imagery recordings.

    Run 2 is the eyes-closed baseline (whole run annotated T0); runs
    4/8/12 are left/right-fist imagery and runs 6/10/14 are both-fists/
    both-feet imagery. Override with a mapping file if your recordings
    differ.
    """
    return LabelMapping(
        rules=[
            MappingRule(frozenset({2}), "T0", 1),
            MappingRule(frozenset({4, 8, 12}), "T1", 2),
            MappingRule(frozenset({4, 8, 12}), "T2", 3),
            MappingRule(frozenset({6, 10, 14}), "T1", 4),
            MappingRule(frozenset({6, 10, 14}), "T2", 5),
        ]
    )


def load_mapping(path) -> LabelMapping:
    try:
        payload = json.loads(Path(path).read_text())
        rules = [
            MappingRule(
                runs=frozenset(int(r) for r in entry["runs"]),
                annotation=str(entry["annotation"]),
                label=int(entry["label"]),
            )
            for entry in payload["rules"]
        ]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise MappingError(f"invalid mapping file {path}: {exc}") from exc
    return LabelMapping(rules)


def save_mapping(mapping: LabelMapping, path) -> None:
    payload = {
        "rules": [
            {"runs": sorted(rule.runs), "annotation": rule.annotation,
             "label": rule.label}
            for rule in mapping.rules
        ]
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def label_samples(
    recording: EdfRecording,
    run: int,
    mapping: LabelMapping,
    zscore: bool = False,
) -> SampleSet:
    """Turn annotated stretches of a recording into labeled samples.

    Every time point inside a matched annotation window becomes one
    sample holding the 64 channel readings at that instant; time points
    outside matched windows are dropped. ``zscore`` standardizes each
    channel over the whole recording before windowing (off by default;
    the model is designed to consume raw signal values).
    """
    if len(recording.channels) < N_CHANNELS:
        raise ShapeError(
            f"recording has {len(recording.channels)} channels, "
            f"need at least {N_CHANNELS}"
        )
    spr = {recording.channels[i].samples_per_record for i in range(N_CHANNELS)}
    if len(spr) != 1:
        raise ShapeError(
            f"first {N_CHANNELS} channels disagree on samples per record: "
            f"{sorted(spr)}"
        )

    rate = recording.sample_rate(0)
    data = np.stack(
        [recording.physical(i) for i in range(N_CHANNELS)], axis=1
    )
    if zscore:
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        std[std == 0.0] = 1.0
        data = (data - mean) / std
    total = data.shape[0]

    windows = []
    for ann in recording.annotations:
        label = mapping.label_for(run, ann.text)
        if label is None:
            continue
        start = int(np.floor(ann.onset * rate + 0.5))
        count = int(np.floor(ann.duration * rate + 0.5))
        stop = min(start + count, total)
        if start >= stop:
            continue
        windows.append((start, stop, label))
    if not windows:
        raise MappingError(
            f"mapping matches no annotation present in run {run}"
        )

    windows.sort(key=lambda w: w[0])
    for (_, prev_stop, _), (nxt_start, _, _) in zip(windows, windows[1:]):
        if nxt_start < prev_stop:
            raise MappingError(
                f"overlapping matched annotation windows at sample {nxt_start}"
            )

    features = np.concatenate([data[a:b] for a, b, _ in windows])
    labels = np.concatenate(
        [np.full(b - a, lbl, dtype=np.int64) for a, b, lbl in windows]
    )
    return SampleSet(features, labels)


@dataclass
class DatasetSplit:
    """Train/test partition controlled by the batch count.

    With batch count ``n`` and total size divisible by ``n + 1``, the
    first ``n/(n+1)`` of the samples (in order) become ``n`` training
    batches of ``batch_size`` each and the final ``batch_size`` samples
    become the test set.
    """

    train: SampleSet
    test: SampleSet
    n_batches: int
    batch_size: int

    def train_batches(self):
        for b in range(self.n_batches):
            lo = b * self.batch_size
            hi = lo + self.batch_size
            yield SampleSet(self.train.features[lo:hi], self.train.labels[lo:hi])


def split(samples: SampleSet, n_batches: int, shuffle_seed=None) -> DatasetSplit:
    """Partition samples into train/test by the batch count.

    The default is a deterministic block split preserving recording
    order. ``shuffle_seed`` applies a seeded permutation first (for
    sensitivity studies only; it breaks the temporal-order contract).
    """
    if n_batches < 1:
        raise SplitError(f"batch count must be >= 1, got {n_batches}")
    total = len(samples)
    divisor = n_batches + 1
    if total == 0 or total % divisor != 0:
        raise SplitError(
            f"total sample count {total} must be a positive multiple of "
            f"batch count + 1 = {divisor}"
        )
    batch_size = total // divisor
    features, labels = samples.features, samples.labels
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(total)
        features, labels = features[order], labels[order]
    cut = n_batches * batch_size
    return DatasetSplit(
        train=SampleSet(features[:cut], labels[:cut]),
        test=SampleSet(features[cut:], labels[cut:]),
        n_batches=n_batches,
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# flat table interchange format: one row per sample, 64 channel columns
# then the label, with a one-line header. Values are written with
# shortest-exact float formatting so files diff cleanly and reload bit-
# identically.
#
# Table values come from 16-bit EDF samples through a per-channel affine
# map, so they repeat heavily: each distinct value in a block of rows is
# formatted once (keyed by its bit pattern, which keeps -0.0 apart from
# 0.0) and gathered back into place. The block bounds the memory of the
# index, the cell strings and the row lists.

SAVE_BLOCK_ROWS = 1024


def save_table(samples: SampleSet, path) -> None:
    features = samples.features
    labels = samples.labels.tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(TABLE_HEADER + "\n")
        for start in range(0, len(labels), SAVE_BLOCK_ROWS):
            stop = start + SAVE_BLOCK_ROWS
            block = features[start:stop]
            bits, inverse = np.unique(block.view(np.int64).ravel(),
                                      return_inverse=True)
            text = np.array(list(map(repr, bits.view(np.float64).tolist())),
                            dtype=object)
            cells = text[inverse].reshape(block.shape).tolist()
            fh.writelines(f"{','.join(row)},{label}\n"
                          for row, label in zip(cells, labels[start:stop]))


def load_table(path) -> SampleSet:
    path = Path(path)
    with open(path) as fh:
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
            return SampleSet.empty()
        fh.seek(rows_start)
        try:
            data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: malformed table row: {exc}") from exc
    if data.size == 0:
        return SampleSet.empty()
    if data.shape[1] != N_CHANNELS + 1:
        raise DataError(
            f"{path}: expected {N_CHANNELS + 1} columns, got {data.shape[1]}"
        )
    labels = data[:, -1]
    if not np.array_equal(labels, np.rint(labels)):
        raise DataError(f"{path}: non-integer label column")
    try:
        return SampleSet(data[:, :-1], labels.astype(np.int64))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# bulk ingest of subject recordings named like S001R04.edf

_EDF_NAME = re.compile(r"S(\d{3})R(\d{2})\.edf$", re.IGNORECASE)


def find_recordings(edf_dir) -> dict:
    """Map subject id -> {run number -> path} for files under ``edf_dir``."""
    found: dict = {}
    for path in sorted(Path(edf_dir).rglob("*.edf")):
        match = _EDF_NAME.search(path.name)
        if not match:
            continue
        subject, run = match.group(1), int(match.group(2))
        found.setdefault(subject, {})[run] = path
    return found


def ingest_subject(
    run_paths: dict,
    runs,
    mapping: LabelMapping,
    cap=None,
    zscore: bool = False,
) -> SampleSet:
    """Extract one subject's labeled samples from the requested runs.

    Runs are processed in ascending order; ``cap`` truncates to the
    first ``cap`` labeled samples so per-subject counts are fixed.
    """
    from .edf import parse_edf

    parts = []
    for run in sorted(runs):
        if run not in run_paths:
            raise DataError(f"run {run} not found (have {sorted(run_paths)})")
        recording = parse_edf(Path(run_paths[run]).read_bytes())
        parts.append(label_samples(recording, run, mapping, zscore=zscore))
    samples = SampleSet.concat(parts)
    if cap is not None:
        if len(samples) < cap:
            raise DataError(
                f"subject yields {len(samples)} labeled samples, "
                f"fewer than the requested {cap}"
            )
        samples = SampleSet(samples.features[:cap], samples.labels[:cap])
    return samples
