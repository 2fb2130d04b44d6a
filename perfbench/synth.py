"""Seeded synthetic EEG recordings in the layout ``mindctl ingest`` reads.

One subject is seven EDF+ files ``S###R##.edf`` (runs 2, 4, ..., 14) of
64 channels at 160 Hz. Run 2 is one eyes-closed baseline annotated T0;
runs 4..14 alternate T0/T1/T0/T2 windows, so under the built-in default
mapping run 2 yields label 1, runs 4/8/12 labels 2/3 and runs 6/10/14
labels 4/5, and the T0 windows of runs 4..14 are dropped.

Samples are int16 digital values: Gaussian noise plus a per-subject
channel bias plus a per-class offset, so the model and KNN have
something to learn. The calibration maps one digital unit to exactly
0.125 uV with zero offset, so every physical value is exact in float64
and :func:`expected_table` predicts the ingested table bit for bit
without going through the program.

Subjects are concatenated subject-major by ingest, so with
``per_subject`` rows each and ``--n-b 3`` every training batch and the
test block is one whole subject; :func:`generate` checks that every
label 1..5 appears in each of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from mindctl.edf import EdfAnnotation, EdfChannel, EdfRecording, serialize_edf

RATE = 160
CHANNELS = 64
RUNS = (2, 4, 6, 8, 10, 12, 14)
UV_PER_UNIT = 0.125
NOISE_UNITS = 80.0
CLASS_UNITS = 14.0
SUBJECT_UNITS = 40.0


@dataclass(frozen=True)
class Layout:
    """Shape of one generated recording set.

    ``per_subject`` is the row count ``ingest --per-subject`` keeps;
    ``baseline_s`` is the length of run 2; runs 4..14 hold ``cycles``
    repetitions of four ``window_s`` windows (T0, T1, T0, T2).
    """

    subjects: int
    per_subject: int
    baseline_s: int
    window_s: float
    cycles: int

    @property
    def rows(self) -> int:
        return self.subjects * self.per_subject


# 28,000 rows: three 7,000-step training batches and a 7,000-row test
# block (the tuned paper topology's input).
PAPER = Layout(subjects=4, per_subject=7000, baseline_s=9, window_s=1.0, cycles=3)
# 2,800 rows: divisible by 2, 4, 7 and 14, the split divisors of the
# default tuning levels (1, 3, 6, 13 batches).
SMALL = Layout(subjects=4, per_subject=700, baseline_s=1, window_s=0.5, cycles=2)


def _run_labels(run: int) -> dict:
    if run == 2:
        return {"T0": 1}
    if run in (4, 8, 12):
        return {"T1": 2, "T2": 3}
    return {"T1": 4, "T2": 5}


def _annotations(layout: Layout, run: int) -> list:
    if run == 2:
        return [(0.0, float(layout.baseline_s), "T0")]
    w = layout.window_s
    anns = []
    for c in range(layout.cycles):
        base = 4 * w * c
        anns += [(base, w, "T0"), (base + w, w, "T1"),
                 (base + 2 * w, w, "T0"), (base + 3 * w, w, "T2")]
    return anns


def _channels() -> list:
    return [
        EdfChannel(
            label=f"EEG{i + 1}", physical_min=-4096.0, physical_max=4095.875,
            digital_min=-32768, digital_max=32767, samples_per_record=RATE,
            physical_dim="uV",
        )
        for i in range(CHANNELS)
    ]


def _run_samples(layout, run, rng, class_means, subject_bias):
    """Digital samples (n, 64) int16 plus per-sample label (0 = dropped)."""
    anns = _annotations(layout, run)
    seconds = layout.baseline_s if run == 2 else int(4 * layout.window_s * layout.cycles)
    n = seconds * RATE
    mapping = _run_labels(run)
    labels = np.zeros(n, dtype=np.int64)
    rest = np.zeros(n, dtype=bool)
    for onset, duration, text in anns:
        lo, hi = int(onset * RATE), int((onset + duration) * RATE)
        if text in mapping:
            labels[lo:hi] = mapping[text]
        elif text == "T0":
            rest[lo:hi] = True
    data = rng.normal(0.0, NOISE_UNITS, size=(n, CHANNELS)) + subject_bias
    data[labels > 0] += class_means[labels[labels > 0] - 1]
    data[rest] += class_means[0]
    digital = np.clip(np.rint(data), -32768, 32767).astype(np.int16)
    return digital, labels, anns


def generate(out_dir, layout: Layout, seed: int) -> dict:
    """Write the recording set under ``out_dir``; return what ingest must yield.

    The returned dict holds ``features`` (rows, 64) and ``labels`` of the
    table ``ingest --per-subject layout.per_subject`` must write, and a
    ``digest`` over every file written, so repeated set-ups can be
    compared.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    class_means = rng.normal(0.0, CLASS_UNITS, size=(5, CHANNELS))
    digest = hashlib.sha256()
    feats, labs = [], []
    for subject in range(1, layout.subjects + 1):
        subject_bias = rng.normal(0.0, SUBJECT_UNITS, size=CHANNELS)
        sub_feats, sub_labs = [], []
        for run in RUNS:
            digital, labels, anns = _run_samples(layout, run, rng, class_means,
                                                 subject_bias)
            recording = EdfRecording(
                patient_id=f"S{subject:03d} X X X",
                recording_id=f"Startdate 01-JAN-2020 R{run:02d} synthetic",
                start=datetime(2020, 1, 1, 9, 0, 0),
                n_records=digital.shape[0] // RATE,
                record_duration=1.0,
                channels=_channels(),
                signals=[digital[:, c].copy() for c in range(CHANNELS)],
                annotations=[EdfAnnotation(o, d, t) for o, d, t in anns],
            )
            data = serialize_edf(recording)
            name = f"S{subject:03d}R{run:02d}.edf"
            (out_dir / name).write_bytes(data)
            digest.update(name.encode() + data)
            keep = labels > 0
            sub_feats.append(digital[keep].astype(np.float64) * UV_PER_UNIT)
            sub_labs.append(labels[keep])
        sub_feats = np.concatenate(sub_feats)[: layout.per_subject]
        sub_labs = np.concatenate(sub_labs)[: layout.per_subject]
        if len(sub_labs) != layout.per_subject:
            raise ValueError(f"layout yields only {len(sub_labs)} rows per subject")
        if set(np.unique(sub_labs)) != {1, 2, 3, 4, 5}:
            raise ValueError(f"subject {subject} lacks a label: {np.unique(sub_labs)}")
        feats.append(sub_feats)
        labs.append(sub_labs)
    return {
        "features": np.concatenate(feats),
        "labels": np.concatenate(labs),
        "digest": digest.hexdigest(),
    }
