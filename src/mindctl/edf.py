"""EDF/EDF+ biosignal file reading and writing.

Layout handled here (all header fields are fixed-width ASCII):

    256-byte fixed header, fields and widths as ``_FIXED_FIELDS`` lists
        them; the start date is dd.mm.yy (yy >= 85 -> 19yy, else 20yy)
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
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DataError

ANNOTATION_LABEL = "EDF Annotations"


def _clock(text: str) -> tuple[int, int, int]:
    """A start field's ``dd.mm.yy`` or ``hh.mm.ss`` as its three numbers."""
    if not re.fullmatch(r"[0-9]{2}\.[0-9]{2}\.[0-9]{2}", text):
        raise ValueError(text)
    return tuple(int(part) for part in text.split("."))


# The fixed header in file order: each field's name, byte width and type.
_FIXED_FIELDS = (
    ("version", 8, str),
    ("patient_id", 80, str),
    ("recording_id", 80, str),
    ("start_date", 8, _clock),
    ("start_time", 8, _clock),
    ("header_byte_count", 8, int),
    ("reserved", 44, str),  # "" for plain EDF, "EDF+C" for continuous EDF+
    ("record_count", 8, int),
    ("record_duration", 8, float),  # seconds
    ("signal_count", 4, int),
)
_FIXED_HEADER = sum(width for _, width, _ in _FIXED_FIELDS)


@dataclass(frozen=True)
class EdfChannel:
    """Per-signal header entry, the one place the channel rules live.

    Every channel has integer digital bounds, finite physical bounds and
    a positive integer sample count per record; an ordinary
    (non-annotation) channel also has a 16-bit digital range, min below
    max, and distinct physical bounds, so its calibration is defined. A
    broken rule raises DataError naming the channel's label.
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
        for name in ("digital_min", "digital_max", "samples_per_record"):
            value = getattr(self, name)
            if type(value) is not int:  # exact: a bool or 3.0 is out
                raise DataError(f"channel {self.label!r}: {name.replace('_', ' ')} "
                                f"must be an integer, got {value!r}")
        for name in ("physical_min", "physical_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"channel {self.label!r}: {name.replace('_', ' ')} "
                                f"must be finite, got {value!r}")
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
        if self.digital_min < -32768 or self.digital_max > 32767:
            raise DataError(
                f"channel {self.label!r}: digital range "
                f"[{self.digital_min}, {self.digital_max}] exceeds 16 bits"
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


@dataclass(frozen=True, eq=False)
class EdfRecording:
    """A fully decoded EDF/EDF+ file, the one place the recording rules live.

    ``signals[i]`` holds channel i's digital samples for the whole file,
    length ``n_records * channels[i].samples_per_record``. Annotation
    channels are decoded into ``annotations`` and do not appear in
    ``channels``/``signals``; all three are stored as tuples. A broken
    rule raises DataError as the recording is built, whether parse_edf or
    a caller builds it, and a frozen recording cannot break one later.
    """

    patient_id: str
    recording_id: str
    start: datetime
    n_records: int
    record_duration: float
    channels: tuple[EdfChannel, ...]
    signals: tuple[np.ndarray, ...]
    annotations: tuple[EdfAnnotation, ...] = ()

    def __post_init__(self):
        for name in ("channels", "signals", "annotations"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.channels:
            raise DataError("recording must have at least one channel")
        if any(ch.label == ANNOTATION_LABEL for ch in self.channels):
            raise DataError("an ordinary channel cannot be labelled "
                            f"{ANNOTATION_LABEL!r}")
        if not isinstance(self.n_records, (int, np.integer)) or self.n_records < 0:
            raise DataError("record count must be an integer >= 0, "
                            f"got {self.n_records!r}")
        if len(self.signals) != len(self.channels):
            raise DataError("signals and channels disagree in length")
        for ch, sig in zip(self.channels, self.signals):
            if len(sig) != self.n_records * ch.samples_per_record:
                raise DataError(
                    f"channel {ch.label!r}: expected "
                    f"{self.n_records * ch.samples_per_record} samples, "
                    f"got {len(sig)}"
                )
        if not (math.isfinite(self.record_duration) and self.record_duration > 0):
            raise DataError("record duration must be finite and positive, "
                            f"got {self.record_duration!r}")
        start = self.start
        if not 1985 <= start.year <= 2084 or start.microsecond or start.tzinfo:
            raise DataError(f"start {start} is not a whole second in 1985..2084 "
                            "without a time zone")
        _check_annotation_order(self.annotations)
        if self.annotations and self.n_records == 0:
            raise DataError("annotations require at least one data record")

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


def _check_annotation_order(annotations: tuple[EdfAnnotation, ...]) -> None:
    """No onset is negative and none comes before the one ahead of it."""
    previous = None
    for ann in annotations:
        if ann.onset < 0:
            raise DataError(f"negative annotation onset {ann.onset}")
        if previous is not None and ann.onset < previous:
            raise DataError(
                f"annotation onsets decrease: {ann.onset} after {previous}"
            )
        previous = ann.onset


# ---------------------------------------------------------------------------
# parsing
#
# Both header tables are declared once, above, and both directions walk
# them, so a round trip cannot catch a wrong table; the hand-assembled
# golden files in the tests check them against the spec.

def _decode(data: bytes, offset: int, width: int, kind, what: str):
    """The field at ``offset`` as ``kind``: its text, a finite number or a
    start field's three numbers. A malformed field raises DataError naming
    its byte offset."""
    try:
        text = data[offset : offset + width].decode("ascii").rstrip()
    except UnicodeDecodeError as exc:
        raise DataError(
            f"non-ASCII bytes in {what} field (byte offset {offset})"
        ) from exc
    if kind is str:
        return text
    text = text.strip()
    try:
        if "_" in text:  # int() and float() take Python's digit separator
            raise ValueError(text)
        value = kind(text)
    except ValueError as exc:
        raise DataError(
            f"malformed {what} field {text!r} (byte offset {offset})"
        ) from exc
    if kind is float and not math.isfinite(value):
        raise DataError(f"non-finite {what} field {text!r} (byte offset {offset})")
    return value


def _read_fields(data: bytes, offset: int, fields, count: int) -> list[dict]:
    """``count`` entries of the header block at ``offset`` laid out by
    ``fields``, each field for every entry before the next field starts;
    an unnamed (reserved) field is skipped."""
    entries = [{} for _ in range(count)]
    for name, width, kind in fields:
        if name is not None:
            what = name.replace("_", " ")
            for i, entry in enumerate(entries):
                entry[name] = _decode(data, offset + i * width, width, kind, what)
        offset += count * width
    return entries


def parse_edf(data: bytes) -> EdfRecording:
    """Decode raw EDF/EDF+ file content into an :class:`EdfRecording`."""
    if len(data) < _FIXED_HEADER:
        raise DataError(
            f"fixed header truncated: expected {_FIXED_HEADER} bytes, "
            f"got {len(data)} (byte offset {len(data)})"
        )
    (head,) = _read_fields(data, 0, _FIXED_FIELDS, 1)

    if head["version"] != "0":
        raise DataError(f"unsupported EDF version tag {head['version']!r}")
    reserved = head["reserved"]
    if reserved.startswith("EDF+D"):
        raise DataError("discontinuous EDF+ (EDF+D) is not supported")
    if reserved and not reserved.startswith("EDF+C"):
        raise DataError(f"unrecognized reserved field {reserved!r}")

    n_records, n_signals = head["record_count"], head["signal_count"]
    if n_signals <= 0:
        raise DataError(f"signal count must be positive, got {n_signals}")
    header_size = _FIXED_HEADER + _PER_SIGNAL_HEADER * n_signals
    if head["header_byte_count"] != header_size:
        raise DataError(
            f"header byte count {head['header_byte_count']} does not match "
            f"256*(signals+1) = {header_size}"
        )
    if len(data) < header_size:
        raise DataError(
            f"signal headers truncated: expected {header_size} bytes, "
            f"got {len(data)} (byte offset {len(data)})"
        )
    headers = [EdfChannel(**entry) for entry in
               _read_fields(data, _FIXED_HEADER, _SIGNAL_FIELDS, n_signals)]

    spr = [h.samples_per_record for h in headers]
    record_samples = sum(spr)
    expected = n_records * record_samples * 2
    actual = len(data) - header_size
    if actual != expected:  # a negative record count fails here
        raise DataError(
            f"data section of {n_records} records: expected {expected} bytes, "
            f"got {actual} (byte offset {header_size})"
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

    day, month, yy = head["start_date"]
    try:
        start = datetime(1900 + yy if yy >= 85 else 2000 + yy, month, day,
                         *head["start_time"])
    except ValueError as exc:
        raise DataError(f"invalid start date/time: {exc}") from exc

    return EdfRecording(
        patient_id=head["patient_id"],
        recording_id=head["recording_id"],
        start=start,
        n_records=n_records,
        record_duration=head["record_duration"],
        channels=channels,
        signals=signals,
        annotations=annotations,
    )


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
# The recording checked its own rules when it was built; what is left here
# are the encoding rules: a text fits its field (ASCII, its width, no
# trailing whitespace), a number fits its 8 header bytes or its TAL, an
# annotation's text fits a TAL (non-empty, no reserved byte), and each
# sample lies in its channel's declared digital range. The last two stay
# here, not in EdfRecording, because parse_edf reads files that break
# them (a TAL text holding byte 0x15, a sample outside the declared
# range); refusing such files would change what ingest accepts from real
# recordings, which no offline test can show.

def _encode(value, width: int, kind, what: str) -> bytes:
    """``value`` as the text of a ``width``-byte field, space-padded."""
    text = _fmt_header_number(value, what) if kind is float else str(value)
    if not text.isascii():
        raise DataError(f"{what} {text!r} is not ASCII")
    if len(text) > width:
        raise DataError(f"{what} {text!r} longer than {width} bytes")
    if text != text.rstrip():  # the parser strips the padding with it
        raise DataError(f"{what} {text!r} ends in whitespace")
    return text.encode("ascii").ljust(width)


def _write_fields(fields, entries: list[dict]) -> bytes:
    """The header block holding ``entries`` laid out by ``fields``, each
    field for every entry before the next field starts."""
    out = bytearray()
    for name, width, kind in fields:
        what = (name or "reserved").replace("_", " ")
        for entry in entries:
            out += _encode(entry[name] if name else "", width, kind, what)
    return bytes(out)


def _fmt_header_number(value: float, what: str) -> str:
    """Shortest decimal text that fits 8 bytes and parses back exactly;
    ``value`` is finite (the channel and the recording check theirs)."""
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
    raise DataError(f"{what} {value!r} not representable in 8 header bytes")


def _fmt_tal_number(value: float) -> bytes:
    if not math.isfinite(value):
        raise DataError(f"annotation time {value!r} is not finite")
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
                    raise DataError("annotation text must be non-empty")
                encoded = ann.text.encode("utf-8")
                if b"\x00" in encoded or b"\x14" in encoded or b"\x15" in encoded:
                    raise DataError(
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
    reproduces ``r`` field by field. A recording the format cannot encode
    raises DataError, as a file the parser cannot read does.
    """
    headers = list(recording.channels)
    if recording.annotations:
        ann_payloads = _annotation_payloads(recording)
        ann_spr = max((len(p) + 1) // 2 for p in ann_payloads)
        headers.append(EdfChannel(ANNOTATION_LABEL, -1, 1, -32768, 32767, ann_spr))

    # the data section as parse_edf reads it: one row per record, each
    # signal's samples in its columns, the annotation payloads last
    columns = np.cumsum([0] + [h.samples_per_record for h in headers])
    samples = np.empty((recording.n_records, columns[-1]), dtype="<i2")
    for ch, sig, lo, hi in zip(recording.channels, recording.signals,
                               columns, columns[1:]):
        arr = np.asarray(sig)
        if arr.size and (arr.min() < ch.digital_min or arr.max() > ch.digital_max):
            raise DataError(
                f"channel {ch.label!r}: samples outside declared digital range "
                f"[{ch.digital_min}, {ch.digital_max}]"
            )
        samples[:, lo:hi] = arr.reshape(recording.n_records, ch.samples_per_record)
    if recording.annotations:
        tals = b"".join(p.ljust(ann_spr * 2, b"\x00") for p in ann_payloads)
        samples[:, columns[-2]:] = np.frombuffer(tals, "<i2").reshape(-1, ann_spr)

    start = recording.start
    head = {
        "version": "0",
        "patient_id": recording.patient_id,
        "recording_id": recording.recording_id,
        "start_date": f"{start:%d.%m.%y}",
        "start_time": f"{start:%H.%M.%S}",
        "header_byte_count": _FIXED_HEADER + _PER_SIGNAL_HEADER * len(headers),
        "reserved": "EDF+C" if recording.annotations else "",
        "record_count": recording.n_records,
        "record_duration": recording.record_duration,
        "signal_count": len(headers),
    }
    return (_write_fields(_FIXED_FIELDS, [head])
            + _write_fields(_SIGNAL_FIELDS, [vars(h) for h in headers])
            + samples.tobytes())
