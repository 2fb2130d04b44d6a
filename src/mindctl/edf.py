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
    per-signal header block, one field for all signals at a time:
        16 label, 80 transducer, 8 physical dimension,
        8 physical min, 8 physical max, 8 digital min, 8 digital max,
        80 prefiltering, 8 samples per record, 32 reserved
    data records: for each record, for each signal,
        samples-per-record two's-complement 16-bit little-endian values

EDF+ annotations live in signals labeled "EDF Annotations" whose sample
bytes are TALs: ``+onset[<21>duration]<20>text<20><0>``. A TAL with an
empty text is a record timestamp and carries no annotation.

The in-memory recording stores raw digital samples; physical values are
derived on demand through the per-channel linear calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import EdfParseError, EdfRangeError, EdfUnsupportedError

ANNOTATION_LABEL = "EDF Annotations"

_FIXED_HEADER = 256
_PER_SIGNAL_HEADER = 256


@dataclass
class EdfChannel:
    """Per-signal header entry for one ordinary (non-annotation) channel."""

    label: str
    physical_min: float
    physical_max: float
    digital_min: int
    digital_max: int
    samples_per_record: int
    transducer: str = ""
    physical_dim: str = ""
    prefiltering: str = ""

    def gain(self) -> float:
        return (self.physical_max - self.physical_min) / (
            self.digital_max - self.digital_min
        )

    def offset(self) -> float:
        return self.physical_min - self.gain() * self.digital_min


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
    version: str = "0"

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
            self.version == other.version
            and self.patient_id == other.patient_id
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


def digital_from_physical(values, channel: EdfChannel) -> np.ndarray:
    """Convert physical values to digital samples for ``channel``.

    Values outside the channel's declared physical range are refused;
    in-range values are rounded to the nearest digital step.
    """
    arr = np.asarray(values, dtype=np.float64)
    lo = min(channel.physical_min, channel.physical_max)
    hi = max(channel.physical_min, channel.physical_max)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise EdfRangeError(
            f"physical values outside declared range [{lo}, {hi}] "
            f"for channel {channel.label!r}"
        )
    digital = np.rint((arr - channel.offset()) / channel.gain())
    return digital.astype(np.int16)


# ---------------------------------------------------------------------------
# parsing

def _ascii(data: bytes, start: int, size: int) -> str:
    raw = data[start : start + size]
    try:
        return raw.decode("ascii").rstrip()
    except UnicodeDecodeError as exc:
        raise EdfParseError("non-ASCII bytes in header field", offset=start) from exc


def _int_field(data: bytes, start: int, size: int, name: str) -> int:
    text = _ascii(data, start, size).strip()
    try:
        return int(text)
    except ValueError as exc:
        raise EdfParseError(
            f"non-numeric {name} field {text!r}", offset=start
        ) from exc


def _float_field(data: bytes, start: int, size: int, name: str) -> float:
    text = _ascii(data, start, size).strip()
    try:
        return float(text)
    except ValueError as exc:
        raise EdfParseError(
            f"non-numeric {name} field {text!r}", offset=start
        ) from exc


def _parse_start(data: bytes) -> datetime:
    date_text = _ascii(data, 168, 8)
    time_text = _ascii(data, 176, 8)
    try:
        day, month, yy = (int(p) for p in date_text.split("."))
        hour, minute, second = (int(p) for p in time_text.split("."))
        year = 1900 + yy if yy >= 85 else 2000 + yy
        return datetime(year, month, day, hour, minute, second)
    except ValueError as exc:
        raise EdfParseError(
            f"invalid start date/time {date_text!r} {time_text!r}", offset=168
        ) from exc


def parse_edf(data: bytes) -> EdfRecording:
    """Decode raw EDF/EDF+ file content into an :class:`EdfRecording`."""
    if len(data) < _FIXED_HEADER:
        raise EdfParseError(
            f"fixed header truncated: expected {_FIXED_HEADER} bytes, "
            f"got {len(data)}",
            offset=len(data),
        )

    version = _ascii(data, 0, 8)
    if version != "0":
        raise EdfUnsupportedError(f"unsupported EDF version tag {version!r}")

    reserved = _ascii(data, 192, 44)
    if reserved.startswith("EDF+D"):
        raise EdfUnsupportedError("discontinuous EDF+ (EDF+D) is not supported")
    if reserved and not reserved.startswith("EDF+C"):
        raise EdfUnsupportedError(f"unrecognized reserved field {reserved!r}")

    patient_id = _ascii(data, 8, 80)
    recording_id = _ascii(data, 88, 80)
    start = _parse_start(data)
    header_bytes = _int_field(data, 184, 8, "header byte count")
    n_records = _int_field(data, 236, 8, "data record count")
    record_duration = _float_field(data, 244, 8, "record duration")
    n_signals = _int_field(data, 252, 4, "signal count")

    if n_signals <= 0:
        raise EdfParseError(f"signal count must be positive, got {n_signals}", offset=252)
    if n_records < 0:
        raise EdfParseError(f"negative data record count {n_records}", offset=236)
    if record_duration <= 0:
        raise EdfUnsupportedError(
            f"non-positive record duration {record_duration} is not supported"
        )

    header_size = _FIXED_HEADER + _PER_SIGNAL_HEADER * n_signals
    if header_bytes != header_size:
        raise EdfParseError(
            f"header byte count {header_bytes} does not match "
            f"256*(signals+1) = {header_size}",
            offset=184,
        )
    if len(data) < header_size:
        raise EdfParseError(
            f"signal headers truncated: expected {header_size} bytes, "
            f"got {len(data)}",
            offset=len(data),
        )

    # per-signal blocks appear in file order; offsets are cumulative widths
    labels = [_ascii(data, o, w) for o, w in _field_spans(n_signals, 0, 16)]
    transducers = [_ascii(data, o, w) for o, w in _field_spans(n_signals, 16, 80)]
    phys_dims = [_ascii(data, o, w) for o, w in _field_spans(n_signals, 96, 8)]
    phys_min = [
        _float_field(data, o, w, "physical min")
        for o, w in _field_spans(n_signals, 104, 8)
    ]
    phys_max = [
        _float_field(data, o, w, "physical max")
        for o, w in _field_spans(n_signals, 112, 8)
    ]
    dig_min = [
        _int_field(data, o, w, "digital min")
        for o, w in _field_spans(n_signals, 120, 8)
    ]
    dig_max = [
        _int_field(data, o, w, "digital max")
        for o, w in _field_spans(n_signals, 128, 8)
    ]
    prefilters = [_ascii(data, o, w) for o, w in _field_spans(n_signals, 136, 80)]
    spr = [
        _int_field(data, o, w, "samples per record")
        for o, w in _field_spans(n_signals, 216, 8)
    ]

    for i in range(n_signals):
        if spr[i] <= 0:
            raise EdfParseError(
                f"samples per record must be positive for signal {i}, got {spr[i]}"
            )
        if labels[i] != ANNOTATION_LABEL:
            if dig_min[i] >= dig_max[i]:
                raise EdfParseError(
                    f"signal {i}: digital min {dig_min[i]} not below "
                    f"digital max {dig_max[i]}"
                )
            if phys_min[i] == phys_max[i]:
                raise EdfParseError(
                    f"signal {i}: physical min equals physical max ({phys_min[i]})"
                )

    record_samples = sum(spr)
    expected = n_records * record_samples * 2
    actual = len(data) - header_size
    if actual != expected:
        raise EdfParseError(
            f"data section: expected {expected} bytes, got {actual}",
            offset=header_size,
        )

    channels: list[EdfChannel] = []
    signals: list[np.ndarray] = []
    annotations: list[EdfAnnotation] = []
    sample_offsets = np.concatenate(([0], np.cumsum(spr)))

    raw = np.frombuffer(data, dtype="<i2", offset=header_size)
    raw = raw.reshape(n_records, record_samples) if n_records else raw.reshape(0, record_samples)

    for i in range(n_signals):
        lo, hi = int(sample_offsets[i]), int(sample_offsets[i + 1])
        if labels[i] == ANNOTATION_LABEL:
            chunk_offset = header_size + 2 * lo
            for r in range(n_records):
                payload = raw[r, lo:hi].tobytes()
                annotations.extend(
                    _parse_tals(payload, chunk_offset + r * record_samples * 2)
                )
            continue
        channels.append(
            EdfChannel(
                label=labels[i],
                physical_min=phys_min[i],
                physical_max=phys_max[i],
                digital_min=dig_min[i],
                digital_max=dig_max[i],
                samples_per_record=spr[i],
                transducer=transducers[i],
                physical_dim=phys_dims[i],
                prefiltering=prefilters[i],
            )
        )
        signals.append(np.ascontiguousarray(raw[:, lo:hi]).reshape(-1))

    if not channels:
        raise EdfParseError("file contains no ordinary signal channels")

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
        version=version,
    )


def _field_spans(n_signals: int, block_offset: int, width: int):
    base = _FIXED_HEADER + block_offset * n_signals
    return [(base + i * width, width) for i in range(n_signals)]


def _check_annotation_order(annotations: list[EdfAnnotation]) -> None:
    previous = None
    for ann in annotations:
        if ann.onset < 0:
            raise EdfParseError(f"negative annotation onset {ann.onset}")
        if previous is not None and ann.onset < previous:
            raise EdfParseError(
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
            raise EdfParseError("TAL missing text terminator", offset=offset)
        head = parts[0]
        if b"\x15" in head:
            onset_raw, duration_raw = head.split(b"\x15", 1)
        else:
            onset_raw, duration_raw = head, None
        if not onset_raw[:1] in (b"+", b"-"):
            raise EdfParseError(
                f"TAL onset must be signed, got {onset_raw!r}", offset=offset
            )
        try:
            onset = float(onset_raw)
            duration = float(duration_raw) if duration_raw is not None else 0.0
        except ValueError as exc:
            raise EdfParseError(
                f"non-numeric TAL onset/duration in {chunk!r}", offset=offset
            ) from exc
        for text in parts[1:-1]:
            if text == b"":
                continue  # timestamp TAL
            try:
                decoded = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EdfParseError(
                    f"TAL text {text!r} is not valid UTF-8", offset=offset
                ) from exc
            out.append(EdfAnnotation(onset, duration, decoded))
    return out


# ---------------------------------------------------------------------------
# serialization
#
# Written independently of the parser: fields are assembled one by one in
# file order rather than through a shared table, so round-trip tests cross-
# check two separate treatments of the layout.

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
                if ann.onset < 0:
                    raise ValueError(f"negative annotation onset {ann.onset}")
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

    onsets = [a.onset for a in recording.annotations]
    if any(o < 0 for o in onsets) or onsets != sorted(onsets):
        raise ValueError("annotation onsets must be non-negative and sorted")
    if recording.annotations and recording.n_records == 0:
        raise ValueError("annotations require at least one data record")

    for ch, sig in zip(recording.channels, recording.signals):
        if ch.digital_min >= ch.digital_max:
            raise ValueError(f"channel {ch.label!r}: digital min not below max")
        if ch.physical_min == ch.physical_max:
            raise ValueError(f"channel {ch.label!r}: physical min equals max")
        if ch.samples_per_record <= 0:
            raise ValueError(f"channel {ch.label!r}: non-positive samples per record")
        if len(sig) != recording.n_records * ch.samples_per_record:
            raise ValueError(
                f"channel {ch.label!r}: expected "
                f"{recording.n_records * ch.samples_per_record} samples, "
                f"got {len(sig)}"
            )
        arr = np.asarray(sig)
        if arr.size and (arr.min() < ch.digital_min or arr.max() > ch.digital_max):
            raise EdfRangeError(
                f"channel {ch.label!r}: samples outside declared digital range "
                f"[{ch.digital_min}, {ch.digital_max}]"
            )

    has_annotations = bool(recording.annotations)
    ann_payloads = _annotation_payloads(recording) if has_annotations else []
    ann_spr = (
        max((len(p) + 1) // 2 for p in ann_payloads) if ann_payloads else 0
    )

    n_signals = len(recording.channels) + (1 if has_annotations else 0)
    header_bytes = _FIXED_HEADER + _PER_SIGNAL_HEADER * n_signals

    out = bytearray()
    out += _pad(recording.version, 8, "version")
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

    def each_signal(ordinary, annotation):
        for ch in recording.channels:
            out.extend(ordinary(ch))
        if has_annotations:
            out.extend(annotation())

    each_signal(lambda ch: _pad(ch.label, 16, "label"),
                lambda: _pad(ANNOTATION_LABEL, 16, "label"))
    each_signal(lambda ch: _pad(ch.transducer, 80, "transducer"),
                lambda: _pad("", 80, "transducer"))
    each_signal(lambda ch: _pad(ch.physical_dim, 8, "physical dimension"),
                lambda: _pad("", 8, "physical dimension"))
    each_signal(
        lambda ch: _pad(_fmt_header_number(ch.physical_min, "physical min"), 8,
                        "physical min"),
        lambda: _pad("-1", 8, "physical min"),
    )
    each_signal(
        lambda ch: _pad(_fmt_header_number(ch.physical_max, "physical max"), 8,
                        "physical max"),
        lambda: _pad("1", 8, "physical max"),
    )
    each_signal(lambda ch: _pad(str(ch.digital_min), 8, "digital min"),
                lambda: _pad("-32768", 8, "digital min"))
    each_signal(lambda ch: _pad(str(ch.digital_max), 8, "digital max"),
                lambda: _pad("32767", 8, "digital max"))
    each_signal(lambda ch: _pad(ch.prefiltering, 80, "prefiltering"),
                lambda: _pad("", 80, "prefiltering"))
    each_signal(lambda ch: _pad(str(ch.samples_per_record), 8, "samples per record"),
                lambda: _pad(str(ann_spr), 8, "samples per record"))
    each_signal(lambda ch: _pad("", 32, "reserved"),
                lambda: _pad("", 32, "reserved"))

    for r in range(recording.n_records):
        for ch, sig in zip(recording.channels, recording.signals):
            spr = ch.samples_per_record
            chunk = np.asarray(sig[r * spr : (r + 1) * spr], dtype="<i2")
            out += chunk.tobytes()
        if has_annotations:
            out += ann_payloads[r].ljust(ann_spr * 2, b"\x00")

    return bytes(out)
