"""EDF/EDF+ biosignal file reading and writing.

Layout handled here (all header fields are fixed-width ASCII):

    256-byte fixed header
        8   version ("0")
        80  patient id
        80  recording id
        8   start date  dd.mm.yy   (yy >= 85 -> 19yy, else 20yy)
        8   start time  hh.mm.ss
        8   header byte count = 256 * (number of signals + 1)
        44  reserved ("" for plain EDF, "EDF+C" for continuous EDF+)
        8   number of data records
        8   record duration in seconds
        4   number of signals
    per-signal header block, one field for all signals at a time,
        fields and widths as ``_SIGNAL_FIELDS`` lists them
    data records: for each record, for each signal,
        samples-per-record two's-complement 16-bit little-endian values

EDF+ annotations live in signals labeled "EDF Annotations" whose sample
bytes are TALs: ``+onset[<21>duration]<20>text<20><0>``. A TAL with an
empty text is a record timestamp and carries no annotation.

The in-memory recording stores raw digital samples; physical values are
derived on demand through the per-channel linear calibration.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import DataError

ANNOTATION_LABEL = "EDF Annotations"

_FIXED_HEADER = 256


@dataclass(frozen=True)
class EdfChannel:
    """Per-signal header entry, the one place the channel rules live.

    Every channel has a positive sample count per record; an ordinary
    (non-annotation) channel also has digital min below digital max and
    distinct physical bounds, so its calibration is defined. A broken
    rule raises DataError naming the channel's label.
    """

    label: str
    physical_min: float
    physical_max: float
    digital_min: int
    digital_max: int
    samples_per_record: int
    transducer: str = ""
    physical_dim: str = ""
    prefiltering: str = ""

    def __post_init__(self):
        if self.samples_per_record <= 0:
            raise DataError(
                f"channel {self.label!r}: samples per record must be "
                f"positive, got {self.samples_per_record}"
            )
        if self.label == ANNOTATION_LABEL:
            return
        if self.digital_min >= self.digital_max:
            raise DataError(
                f"channel {self.label!r}: digital min {self.digital_min} "
                f"not below digital max {self.digital_max}"
            )
        if self.physical_min == self.physical_max:
            raise DataError(
                f"channel {self.label!r}: physical min equals physical max "
                f"({self.physical_min})"
            )

    def gain(self) -> float:
        return (self.physical_max - self.physical_min) / (
            self.digital_max - self.digital_min
        )

    def offset(self) -> float:
        return self.physical_min - self.gain() * self.digital_min


# The per-signal header in file order: the EdfChannel attribute each field
# holds (None for the reserved field), its byte width and its type.
_SIGNAL_FIELDS = (
    ("label", 16, str),
    ("transducer", 80, str),
    ("physical_dim", 8, str),
    ("physical_min", 8, float),
    ("physical_max", 8, float),
    ("digital_min", 8, int),
    ("digital_max", 8, int),
    ("prefiltering", 80, str),
    ("samples_per_record", 8, int),
    (None, 32, str),
)
_PER_SIGNAL_HEADER = sum(width for _, width, _ in _SIGNAL_FIELDS)


@dataclass(frozen=True)
class EdfAnnotation:
    """One decoded annotation: onset and duration in seconds plus a text code."""

    onset: float
    duration: float
    text: str


@dataclass(eq=False)
class EdfRecording:
    """A fully decoded EDF/EDF+ file.

    ``signals[i]`` holds channel i's digital samples for the whole file,
    length ``n_records * channels[i].samples_per_record``. Annotation
    channels are decoded into ``annotations`` and do not appear in
    ``channels``/``signals``.
    """

    patient_id: str
    recording_id: str
    start: datetime
    n_records: int
    record_duration: float
    channels: list[EdfChannel]
    signals: list[np.ndarray]
    annotations: list[EdfAnnotation] = field(default_factory=list)

    def physical(self, index: int) -> np.ndarray:
        """Channel ``index`` converted to physical units (float64)."""
        ch = self.channels[index]
        return self.signals[index].astype(np.float64) * ch.gain() + ch.offset()

    def sample_rate(self, index: int) -> float:
        return self.channels[index].samples_per_record / self.record_duration

    def __eq__(self, other):
        if not isinstance(other, EdfRecording):
            return NotImplemented
        return (
            self.patient_id == other.patient_id
            and self.recording_id == other.recording_id
            and self.start == other.start
            and self.n_records == other.n_records
            and self.record_duration == other.record_duration
            and self.channels == other.channels
            and len(self.signals) == len(other.signals)
            and all(
                np.array_equal(a, b) for a, b in zip(self.signals, other.signals)
            )
            and self.annotations == other.annotations
        )


# ---------------------------------------------------------------------------
# parsing

def _ascii(data: bytes, start: int, size: int) -> str:
    raw = data[start : start + size]
    try:
        return raw.decode("ascii").rstrip()
    except UnicodeDecodeError as exc:
        raise DataError(
            f"non-ASCII bytes in header field (byte offset {start})"
        ) from exc


def _number_field(data: bytes, start: int, size: int, name: str, kind):
    """The field's ASCII text as a finite ``kind`` (int or float)."""
    text = _ascii(data, start, size).strip()
    if "_" in text:  # int() and float() take Python's digit separator
        raise DataError(f"non-numeric {name} field {text!r} (byte offset {start})")
    try:
        value = kind(text)
    except ValueError as exc:
        raise DataError(
            f"non-numeric {name} field {text!r} (byte offset {start})"
        ) from exc
    if kind is float and not math.isfinite(value):
        raise DataError(f"non-finite {name} field {text!r} (byte offset {start})")
    return value


def _parse_start(data: bytes) -> datetime:
    parts = []
    for offset, layout in ((168, "dd.mm.yy"), (176, "hh.mm.ss")):
        text = _ascii(data, offset, 8)
        if not re.fullmatch(r"[0-9]{2}\.[0-9]{2}\.[0-9]{2}", text):
            raise DataError(
                f"start field {text!r} is not {layout} (byte offset {offset})"
            )
        parts += [int(p) for p in text.split(".")]
    day, month, yy, hour, minute, second = parts
    year = 1900 + yy if yy >= 85 else 2000 + yy
    try:
        return datetime(year, month, day, hour, minute, second)
    except ValueError as exc:
        raise DataError(f"invalid start date/time: {exc} (byte offset 168)") from exc


def parse_edf(data: bytes) -> EdfRecording:
    """Decode raw EDF/EDF+ file content into an :class:`EdfRecording`."""
    if len(data) < _FIXED_HEADER:
        raise DataError(
            f"fixed header truncated: expected {_FIXED_HEADER} bytes, "
            f"got {len(data)} (byte offset {len(data)})"
        )

    version = _ascii(data, 0, 8)
    if version != "0":
        raise DataError(f"unsupported EDF version tag {version!r}")

    reserved = _ascii(data, 192, 44)
    if reserved.startswith("EDF+D"):
        raise DataError("discontinuous EDF+ (EDF+D) is not supported")
    if reserved and not reserved.startswith("EDF+C"):
        raise DataError(f"unrecognized reserved field {reserved!r}")

    patient_id = _ascii(data, 8, 80)
    recording_id = _ascii(data, 88, 80)
    start = _parse_start(data)
    header_bytes = _number_field(data, 184, 8, "header byte count", int)
    n_records = _number_field(data, 236, 8, "data record count", int)
    record_duration = _number_field(data, 244, 8, "record duration", float)
    n_signals = _number_field(data, 252, 4, "signal count", int)

    if n_signals <= 0:
        raise DataError(
            f"signal count must be positive, got {n_signals} (byte offset 252)"
        )
    if n_records < 0:
        raise DataError(f"negative data record count {n_records} (byte offset 236)")
    if record_duration <= 0:
        raise DataError(
            f"non-positive record duration {record_duration} is not supported"
        )

    header_size = _FIXED_HEADER + _PER_SIGNAL_HEADER * n_signals
    if header_bytes != header_size:
        raise DataError(
            f"header byte count {header_bytes} does not match "
            f"256*(signals+1) = {header_size} (byte offset 184)"
        )
    if len(data) < header_size:
        raise DataError(
            f"signal headers truncated: expected {header_size} bytes, "
            f"got {len(data)} (byte offset {len(data)})"
        )

    # each field holds every signal's value before the next field starts
    entries = [{} for _ in range(n_signals)]
    offset = _FIXED_HEADER
    for name, width, kind in _SIGNAL_FIELDS:
        for entry in entries:
            if name is not None:
                entry[name] = (
                    _ascii(data, offset, width) if kind is str
                    else _number_field(data, offset, width,
                                       name.replace("_", " "), kind)
                )
            offset += width
    headers = [EdfChannel(**entry) for entry in entries]

    spr = [h.samples_per_record for h in headers]
    record_samples = sum(spr)
    expected = n_records * record_samples * 2
    actual = len(data) - header_size
    if actual != expected:
        raise DataError(
            f"data section: expected {expected} bytes, got {actual} "
            f"(byte offset {header_size})"
        )

    channels: list[EdfChannel] = []
    signals: list[np.ndarray] = []
    annotations: list[EdfAnnotation] = []
    sample_offsets = np.concatenate(([0], np.cumsum(spr)))

    raw = np.frombuffer(data, dtype="<i2", offset=header_size)
    raw = raw.reshape(n_records, record_samples)

    for i, h in enumerate(headers):
        lo, hi = int(sample_offsets[i]), int(sample_offsets[i + 1])
        if h.label == ANNOTATION_LABEL:
            chunk_offset = header_size + 2 * lo
            for r in range(n_records):
                payload = raw[r, lo:hi].tobytes()
                annotations.extend(
                    _parse_tals(payload, chunk_offset + r * record_samples * 2)
                )
            continue
        channels.append(h)
        signals.append(np.ascontiguousarray(raw[:, lo:hi]).reshape(-1))

    if not channels:
        raise DataError("file contains no ordinary signal channels")

    _check_annotation_order(annotations)

    return EdfRecording(
        patient_id=patient_id,
        recording_id=recording_id,
        start=start,
        n_records=n_records,
        record_duration=record_duration,
        channels=channels,
        signals=signals,
        annotations=annotations,
    )


def _check_annotation_order(annotations: list[EdfAnnotation]) -> None:
    """The onset rule of both directions: no onset is negative and none
    comes before the one ahead of it."""
    previous = None
    for ann in annotations:
        if ann.onset < 0:
            raise DataError(f"negative annotation onset {ann.onset}")
        if previous is not None and ann.onset < previous:
            raise DataError(
                f"annotation onsets decrease: {ann.onset} after {previous}"
            )
        previous = ann.onset


def _parse_tals(payload: bytes, offset: int) -> list[EdfAnnotation]:
    """Decode one record's annotation bytes into annotations.

    Timestamp TALs (empty text) mark record onsets and are dropped.
    """
    out: list[EdfAnnotation] = []
    for chunk in payload.split(b"\x00"):
        if not chunk:
            continue
        parts = chunk.split(b"\x14")
        if len(parts) < 2 or parts[-1] != b"":
            raise DataError(f"TAL missing text terminator (byte offset {offset})")
        head = parts[0]
        if b"\x15" in head:
            onset_raw, duration_raw = head.split(b"\x15", 1)
        else:
            onset_raw, duration_raw = head, None
        if not onset_raw[:1] in (b"+", b"-"):
            raise DataError(
                f"TAL onset must be signed, got {onset_raw!r} "
                f"(byte offset {offset})"
            )
        try:
            onset = float(onset_raw)
            duration = float(duration_raw) if duration_raw is not None else 0.0
        except ValueError as exc:
            raise DataError(
                f"non-numeric TAL onset/duration in {chunk!r} "
                f"(byte offset {offset})"
            ) from exc
        if not (math.isfinite(onset) and math.isfinite(duration)):
            raise DataError(
                f"non-finite TAL onset/duration in {chunk!r} "
                f"(byte offset {offset})"
            )
        for text in parts[1:-1]:
            if text == b"":
                continue  # timestamp TAL
            try:
                decoded = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"TAL text {text!r} is not valid UTF-8 (byte offset {offset})"
                ) from exc
            out.append(EdfAnnotation(onset, duration, decoded))
    return out


# ---------------------------------------------------------------------------
# serialization
#
# The per-signal layout is declared once, in _SIGNAL_FIELDS, and both
# directions walk it, so a round trip cannot catch a wrong table; the
# hand-assembled golden files in the tests check it against the spec.

def _pad(text: str, width: int, what: str) -> bytes:
    raw = text.encode("ascii", errors="strict") if text else b""
    if len(raw) > width:
        raise ValueError(f"{what} {text!r} longer than {width} bytes")
    return raw.ljust(width)


def _fmt_header_number(value: float, what: str) -> str:
    """Shortest decimal text that fits 8 bytes and parses back exactly."""
    if float(value) == int(value) and abs(value) < 10**8:
        text = str(int(value))
        if len(text) <= 8:
            return text
    text = repr(float(value))
    if len(text) <= 8 and float(text) == float(value):
        return text
    for precision in range(7, 0, -1):
        text = f"{value:.{precision}g}"
        if len(text) <= 8 and float(text) == float(value):
            return text
    raise ValueError(f"{what} {value!r} not representable in 8 header bytes")


def _fmt_tal_number(value: float) -> bytes:
    if float(value) == int(value):
        text = str(int(value))
    else:
        text = repr(float(value))
    return text.encode("ascii")


def _annotation_payloads(recording: EdfRecording) -> list[bytes]:
    """TAL byte blocks per record; all annotations ride in record 0."""
    payloads = []
    for r in range(recording.n_records):
        onset = _fmt_tal_number(r * recording.record_duration)
        block = b"+" + onset + b"\x14\x14\x00"
        if r == 0:
            for ann in recording.annotations:
                if not ann.text:
                    raise ValueError("annotation text must be non-empty")
                encoded = ann.text.encode("utf-8")
                if b"\x00" in encoded or b"\x14" in encoded or b"\x15" in encoded:
                    raise ValueError(
                        f"annotation text {ann.text!r} contains reserved bytes"
                    )
                block += (
                    b"+"
                    + _fmt_tal_number(ann.onset)
                    + b"\x15"
                    + _fmt_tal_number(ann.duration)
                    + b"\x14"
                    + encoded
                    + b"\x14\x00"
                )
        payloads.append(block)
    return payloads


def serialize_edf(recording: EdfRecording) -> bytes:
    """Encode a recording as EDF (or EDF+C when it carries annotations).

    The output is the parser's fixed point: ``parse_edf(serialize_edf(r))``
    reproduces ``r`` field by field.
    """
    if not recording.channels:
        raise ValueError("recording must have at least one channel")
    if len(recording.signals) != len(recording.channels):
        raise ValueError("signals and channels lists disagree in length")
    if recording.n_records < 0:
        raise ValueError("negative record count")

    _check_annotation_order(recording.annotations)
    if recording.annotations and recording.n_records == 0:
        raise ValueError("annotations require at least one data record")

    has_annotations = bool(recording.annotations)
    headers = list(recording.channels)
    if has_annotations:
        ann_payloads = _annotation_payloads(recording)
        ann_spr = max((len(p) + 1) // 2 for p in ann_payloads)
        headers.append(EdfChannel(ANNOTATION_LABEL, -1, 1, -32768, 32767, ann_spr))

    # the data section as parse_edf reads it: one row per record, each
    # signal's samples in its columns, the annotation payloads last
    columns = np.cumsum([0] + [h.samples_per_record for h in headers])
    samples = np.empty((recording.n_records, columns[-1]), dtype="<i2")
    for ch, sig, lo, hi in zip(recording.channels, recording.signals,
                               columns, columns[1:]):
        if len(sig) != recording.n_records * ch.samples_per_record:
            raise ValueError(
                f"channel {ch.label!r}: expected "
                f"{recording.n_records * ch.samples_per_record} samples, "
                f"got {len(sig)}"
            )
        arr = np.asarray(sig)
        if arr.size and (arr.min() < ch.digital_min or arr.max() > ch.digital_max):
            raise DataError(
                f"channel {ch.label!r}: samples outside declared digital range "
                f"[{ch.digital_min}, {ch.digital_max}]"
            )
        samples[:, lo:hi] = arr.reshape(recording.n_records, ch.samples_per_record)
    if has_annotations:
        tals = b"".join(p.ljust(ann_spr * 2, b"\x00") for p in ann_payloads)
        samples[:, columns[-2]:] = np.frombuffer(tals, "<i2").reshape(-1, ann_spr)

    n_signals = len(headers)
    header_bytes = _FIXED_HEADER + _PER_SIGNAL_HEADER * n_signals

    out = bytearray()
    out += _pad("0", 8, "version")
    out += _pad(recording.patient_id, 80, "patient id")
    out += _pad(recording.recording_id, 80, "recording id")
    yy = recording.start.year % 100
    out += _pad(
        f"{recording.start.day:02d}.{recording.start.month:02d}.{yy:02d}", 8, "date"
    )
    out += _pad(
        f"{recording.start.hour:02d}.{recording.start.minute:02d}."
        f"{recording.start.second:02d}",
        8,
        "time",
    )
    out += _pad(str(header_bytes), 8, "header byte count")
    out += _pad("EDF+C" if has_annotations else "", 44, "reserved")
    out += _pad(str(recording.n_records), 8, "record count")
    out += _pad(
        _fmt_header_number(recording.record_duration, "record duration"),
        8,
        "record duration",
    )
    out += _pad(str(n_signals), 4, "signal count")

    for name, width, kind in _SIGNAL_FIELDS:
        what = (name or "reserved").replace("_", " ")
        for ch in headers:
            value = "" if name is None else getattr(ch, name)
            if kind is float:
                value = _fmt_header_number(value, what)
            out += _pad(str(value), width, what)

    return bytes(out) + samples.tobytes()
