"""EDF parse/serialize conformance and round-trip properties."""

import math
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindctl.edf import (
    EdfAnnotation,
    EdfChannel,
    EdfRecording,
    parse_edf,
    serialize_edf,
)
from mindctl.errors import DataError
from helpers import mutated_bytes


def golden_single_channel_bytes():
    """A minimal file assembled by hand, independent of the serializer:
    one channel, one record, four samples, identity calibration."""

    def pad(text, width):
        return text.encode("ascii").ljust(width)

    header = b"".join(
        [
            pad("0", 8),
            pad("patient", 80),
            pad("rec", 80),
            pad("02.03.01", 8),
            pad("04.05.06", 8),
            pad("512", 8),
            pad("", 44),
            pad("1", 8),
            pad("1", 8),
            pad("1", 4),
        ]
    )
    signal_header = b"".join(
        [
            pad("sig", 16),
            pad("", 80),
            pad("uV", 8),
            pad("-32768", 8),
            pad("32767", 8),
            pad("-32768", 8),
            pad("32767", 8),
            pad("", 80),
            pad("4", 8),
            pad("", 32),
        ]
    )
    data = np.array([1, 2, 3, 4], dtype="<i2").tobytes()
    return header + signal_header + data


def test_parse_golden_single_channel():
    rec = parse_edf(golden_single_channel_bytes())
    assert rec.patient_id == "patient"
    assert rec.recording_id == "rec"
    assert rec.start == datetime(2001, 3, 2, 4, 5, 6)
    assert rec.n_records == 1
    assert rec.record_duration == 1.0
    assert len(rec.channels) == 1
    assert rec.channels[0].label == "sig"
    assert rec.channels[0].samples_per_record == 4
    # identity calibration: physical values equal the stored integers
    assert np.array_equal(rec.physical(0), [1.0, 2.0, 3.0, 4.0])
    assert rec.annotations == []


def test_serialize_matches_golden_bytes():
    golden = golden_single_channel_bytes()
    rec = parse_edf(golden)
    assert serialize_edf(rec) == golden


def test_empty_annotation_recording_declares_no_annotation_channel():
    rec = parse_edf(golden_single_channel_bytes())
    blob = serialize_edf(rec)
    # header signal count field: bytes 252..256
    assert blob[252:256].decode("ascii").strip() == "1"


def golden_two_channel_annotated_bytes():
    """Two ordinary channels and an annotation signal over two 0.5 s
    records, assembled by hand from the spec's field widths, independent
    of the parser's and the serializer's shared field table. Every
    per-signal field differs between the signals, so a field read from
    the wrong place or written in the wrong order shows."""

    def pad(text, width):
        return text.encode("ascii").ljust(width)

    def field(width, *values):
        # the per-signal header holds one field for every signal at a time
        return b"".join(pad(value, width) for value in values)

    header = b"".join(
        [
            pad("0", 8),
            pad("X F 01-JAN-1990 Pat", 80),
            pad("Startdate 02-MAR-2001 R", 80),
            pad("02.03.01", 8),
            pad("04.05.06", 8),
            pad("1024", 8),
            pad("EDF+C", 44),
            pad("2", 8),
            pad("0.5", 8),
            pad("3", 4),
        ]
    )
    signal_header = b"".join(
        [
            field(16, "EEG Fz", "EEG Cz", "EDF Annotations"),
            field(80, "AgAgCl electrode", "Ag cup", ""),
            field(8, "uV", "mV", ""),
            field(8, "-187.5", "-2", "-1"),
            field(8, "312.25", "3", "1"),
            field(8, "-2048", "-100", "-32768"),
            field(8, "2047", "100", "32767"),
            field(80, "HP:0.1Hz LP:75Hz", "N:50Hz", ""),
            field(8, "3", "2", "17"),
            field(32, "", "", ""),
        ]
    )
    # record 0 holds its timestamp TAL and both annotations (33 bytes,
    # 17 samples); record 1 only its timestamp
    tals = (
        b"+0\x14\x14\x00+0.25\x150.75\x14T1\x14\x00+0.5\x150.5\x14T2\x14\x00",
        b"+0.5\x14\x14\x00",
    )
    records = zip(([-2048, 0, 2047], [5, -5, 100]), ([-100, 100], [7, -7]), tals)
    data = b"".join(
        np.array(fz, dtype="<i2").tobytes()
        + np.array(cz, dtype="<i2").tobytes()
        + tal.ljust(34, b"\x00")
        for fz, cz, tal in records
    )
    return header + signal_header + data


def two_channel_annotated_recording():
    return EdfRecording(
        patient_id="X F 01-JAN-1990 Pat",
        recording_id="Startdate 02-MAR-2001 R",
        start=datetime(2001, 3, 2, 4, 5, 6),
        n_records=2,
        record_duration=0.5,
        channels=[
            EdfChannel("EEG Fz", -187.5, 312.25, -2048, 2047, 3,
                       "AgAgCl electrode", "uV", "HP:0.1Hz LP:75Hz"),
            EdfChannel("EEG Cz", -2.0, 3.0, -100, 100, 2, "Ag cup", "mV", "N:50Hz"),
        ],
        signals=[
            np.array([-2048, 0, 2047, 5, -5, 100], dtype=np.int16),
            np.array([-100, 100, 7, -7], dtype=np.int16),
        ],
        annotations=[EdfAnnotation(0.25, 0.75, "T1"), EdfAnnotation(0.5, 0.5, "T2")],
    )


def test_two_channel_golden_parses_and_serializes_exactly():
    golden = golden_two_channel_annotated_bytes()
    assert parse_edf(golden) == two_channel_annotated_recording()
    assert serialize_edf(two_channel_annotated_recording()) == golden


def _make_recording(n_channels=2, n_records=2, spr=3, with_annotations=True):
    rng = np.random.default_rng(0)
    channels = [
        EdfChannel(
            label=f"EEG C{i}",
            physical_min=-200.0,
            physical_max=200.0,
            digital_min=-2048,
            digital_max=2047,
            samples_per_record=spr,
        )
        for i in range(n_channels)
    ]
    signals = [
        rng.integers(-2048, 2048, size=n_records * spr).astype(np.int16)
        for _ in range(n_channels)
    ]
    annotations = (
        [EdfAnnotation(0.0, 1.0, "T0"), EdfAnnotation(1.0, 1.0, "T1")]
        if with_annotations
        else []
    )
    return EdfRecording(
        patient_id="P 01",
        recording_id="R 01",
        start=datetime(2009, 8, 12, 16, 15, 0),
        n_records=n_records,
        record_duration=1.0,
        channels=channels,
        signals=signals,
        annotations=annotations,
    )


def test_round_trip_with_annotations():
    rec = _make_recording()
    assert parse_edf(serialize_edf(rec)) == rec


def test_sixty_four_channel_labels_survive_round_trip():
    rec = _make_recording(n_channels=64)
    back = parse_edf(serialize_edf(rec))
    assert [c.label for c in back.channels] == [c.label for c in rec.channels]
    assert len(back.channels) == 64


# ---------------------------------------------------------------------------
# randomized round trip

_header_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=20
)
_label_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=12
).filter(lambda s: s != "EDF Annotations")
_start_times = st.datetimes(
    min_value=datetime(1985, 1, 1), max_value=datetime(2084, 12, 31)
).map(lambda dt: dt.replace(microsecond=0))
# values that always fit the 8-byte header fields exactly
_physical_bounds = st.integers(min_value=-9999, max_value=9999).map(float)


@st.composite
def recordings(draw):
    n_channels = draw(st.integers(1, 4))
    n_records = draw(st.integers(1, 3))
    channels = []
    signals = []
    for i in range(n_channels):
        spr = draw(st.integers(1, 6))
        dmin = draw(st.integers(-32768, 32766))
        dmax = draw(st.integers(dmin + 1, 32767))
        pmin = draw(_physical_bounds)
        pmax = draw(_physical_bounds.filter(lambda v, lo=pmin: v != lo))
        channels.append(
            EdfChannel(
                label=draw(_label_text),
                physical_min=pmin,
                physical_max=pmax,
                digital_min=dmin,
                digital_max=dmax,
                samples_per_record=spr,
                transducer=draw(_header_text),
                physical_dim=draw(st.text(alphabet="uVmA", max_size=6)),
                prefiltering=draw(_header_text),
            )
        )
        signals.append(
            np.asarray(
                draw(
                    st.lists(
                        st.integers(dmin, dmax),
                        min_size=n_records * spr,
                        max_size=n_records * spr,
                    )
                ),
                dtype=np.int16,
            )
        )
    n_annotations = draw(st.integers(0, 4))
    onsets = sorted(
        draw(
            st.lists(
                st.integers(0, 4000).map(lambda v: v / 100.0),
                min_size=n_annotations,
                max_size=n_annotations,
            )
        )
    )
    annotations = [
        EdfAnnotation(
            onset,
            draw(st.integers(0, 500).map(lambda v: v / 100.0)),
            draw(st.sampled_from(["T0", "T1", "T2", "rest", "blink"])),
        )
        for onset in onsets
    ]
    return EdfRecording(
        patient_id=draw(_header_text),
        recording_id=draw(_header_text),
        start=draw(_start_times),
        n_records=n_records,
        record_duration=float(draw(st.integers(1, 10))),
        channels=channels,
        signals=signals,
        annotations=annotations,
    )


@settings(max_examples=120, deadline=None)
@given(recordings())
def test_round_trip_randomized(rec):
    blob = serialize_edf(rec)
    back = parse_edf(blob)
    assert back == rec
    assert serialize_edf(back) == blob


# ---------------------------------------------------------------------------
# error paths

def _patched(offset, text, width=8):
    data = bytearray(golden_two_channel_annotated_bytes())
    data[offset : offset + width] = text.encode("ascii").ljust(width)[:width]
    return bytes(data)


@pytest.mark.parametrize("offset, text", [
    (244, "nan"),  # record duration
    (244, "inf"),
    (244, "1e400"),  # overflows to inf
    (568, "nan"),  # signal 0 physical min: 256 + 3 * 104
    (600, "-inf"),  # signal 1 physical max: 256 + 3 * 112 + 8
])
def test_non_finite_header_number_is_parse_error(offset, text):
    with pytest.raises(DataError, match=f"non-finite .*byte offset {offset}\\)"):
        parse_edf(_patched(offset, text))


@pytest.mark.parametrize("offset, text", [
    (168, "02.03.-1"),  # start date; int() reads -1 as year 99
    (168, "2.3.99"),
    (176, "04.05.+6"),  # start time
    (236, "0_2"),  # data record count; int() takes "_" as a digit separator
    (184, "1_024"),  # header byte count
])
def test_non_canonical_header_text_is_parse_error(offset, text):
    with pytest.raises(DataError, match=f"byte offset {offset}\\)"):
        parse_edf(_patched(offset, text))


def test_signed_and_exponent_header_numbers_still_parse():
    assert parse_edf(_patched(236, "+2")).n_records == 2
    assert parse_edf(_patched(244, "5e-1")).record_duration == 0.5


@pytest.mark.parametrize("old, new", [
    (b"+0.5\x150.5", b"+inf\x150.5"),  # onset
    (b"\x150.75\x14", b"\x15 nan\x14"),  # duration
    (b"\x150.5\x14", b"\x15inf\x14"),
])
def test_non_finite_tal_number_is_parse_error(old, new):
    golden = golden_two_channel_annotated_bytes()
    assert golden.count(old) == 1
    with pytest.raises(DataError, match=r"non-finite TAL.*\(byte offset \d+\)"):
        parse_edf(golden.replace(old, new))


def test_truncated_header_reports_offset():
    with pytest.raises(DataError, match="fixed header truncated"):
        parse_edf(b"0       " * 10)


def test_unsupported_version_tag():
    data = bytearray(golden_single_channel_bytes())
    data[0:8] = b"9       "
    with pytest.raises(DataError, match="version"):
        parse_edf(bytes(data))


def test_discontinuous_variant_rejected():
    data = bytearray(golden_single_channel_bytes())
    data[192:197] = b"EDF+D"
    with pytest.raises(DataError, match="EDF\\+D"):
        parse_edf(bytes(data))


def test_non_numeric_record_count():
    data = bytearray(golden_single_channel_bytes())
    data[236:244] = b"x       "
    with pytest.raises(DataError, match="byte offset 236"):
        parse_edf(bytes(data))


def test_wrong_header_byte_count_field():
    data = bytearray(golden_single_channel_bytes())
    data[184:192] = b"768     "
    with pytest.raises(DataError, match="header byte count"):
        parse_edf(bytes(data))


def test_truncated_data_section_names_lengths():
    data = golden_single_channel_bytes()[:-4]
    with pytest.raises(DataError, match="expected 8 bytes, got 4"):
        parse_edf(data)


def test_serialize_rejects_out_of_range_digital():
    rec = _make_recording()
    rec.signals[0] = rec.signals[0].astype(np.int32) + 100000
    with pytest.raises(DataError, match="digital range"):
        serialize_edf(rec)


def test_decreasing_annotation_onsets_rejected():
    rec = _make_recording()
    blob = serialize_edf(rec)
    rec.annotations = [EdfAnnotation(2.0, 0.5, "T0"), EdfAnnotation(1.0, 0.5, "T1")]
    with pytest.raises(DataError, match="decrease"):
        serialize_edf(rec)
    assert parse_edf(blob)  # original unaffected


def test_zero_record_recording_round_trips():
    rec = _make_recording(n_records=0, with_annotations=False)
    blob = serialize_edf(rec)
    assert len(blob) == 256 * 3
    assert parse_edf(blob) == rec


# ---------------------------------------------------------------------------
# channel rules: EdfChannel holds them, for both directions

def _channel(**fields):
    base = dict(label="EEG C3", physical_min=-200.0, physical_max=200.0,
                digital_min=-2048, digital_max=2047, samples_per_record=3)
    return EdfChannel(**{**base, **fields})


@pytest.mark.parametrize("fields, message", [
    ({"samples_per_record": 0}, "samples per record must be positive, got 0"),
    ({"samples_per_record": 0, "label": "EDF Annotations"}, "samples per record"),
    ({"digital_min": 2047}, "digital min 2047 not below digital max 2047"),
    ({"digital_min": 3000}, "digital min 3000 not below"),
    ({"physical_max": -200.0}, r"physical min equals physical max \(-200.0\)"),
])
def test_channel_rules_raise_naming_the_channel(fields, message):
    label = fields.get("label", "EEG C3")
    with pytest.raises(DataError, match=f"channel '{label}': {message}"):
        _channel(**fields)


@pytest.mark.parametrize("bounds", [(0, 0, 5.0, 5.0), (7, -7, 1.0, -1.0)])
def test_annotation_channel_takes_any_bounds(bounds):
    dmin, dmax, pmin, pmax = bounds
    ch = _channel(label="EDF Annotations", digital_min=dmin, digital_max=dmax,
                  physical_min=pmin, physical_max=pmax)
    assert (ch.digital_min, ch.physical_max) == (dmin, pmax)


def test_parse_names_the_channel_that_breaks_a_rule():
    # signal 1's digital min field: 256 + 3 * 120, the second of three
    offset = 256 + 3 * 120 + 8
    blob = _patched(offset, "101")
    assert golden_two_channel_annotated_bytes()[offset : offset + 8] == b"-100    "
    with pytest.raises(DataError, match="channel 'EEG Cz': digital min 101 not below"):
        parse_edf(blob)


def test_invalid_utf8_tal_text_is_parse_error():
    blob = serialize_edf(_make_recording())
    at = blob.index(b"\x14T1\x14")
    corrupt = blob[: at + 1] + b"\xff" + blob[at + 2 :]
    with pytest.raises(DataError, match=r"not valid UTF-8 \(byte offset \d+\)"):
        parse_edf(corrupt)


# ---------------------------------------------------------------------------
# fuzzing the parser with mutations of the two-channel golden file

def _golden_spans():
    """(offset, width) of every header field and TAL element."""
    spans = [(0, 8), (8, 80), (88, 80), (168, 8), (176, 8), (184, 8),
             (192, 44), (236, 8), (244, 8), (252, 4)]
    offset = 256
    for width in (16, 80, 8, 8, 8, 8, 8, 80, 8, 32):
        for _ in range(3):
            spans.append((offset, width))
            offset += width
    golden = golden_two_channel_annotated_bytes()
    for record in range(2):
        start = 1024 + record * 44 + 10  # after 3 + 2 samples of the channels
        for m in re.finditer(rb"[^\x00\x14\x15]+", golden[start : start + 34]):
            spans.append((start + m.start(), m.end() - m.start()))
    return spans


_FUZZ_TEXT = ["nan", "inf", "-inf", "+inf", "+nan", "1e400", "-1e400", "-1",
              "0", "", " ", "abc", "1e-400", "+0.5"]


@st.composite
def mutated_golden(draw):
    if not draw(st.booleans()):
        return draw(mutated_bytes(golden_two_channel_annotated_bytes()))
    data = bytearray(golden_two_channel_annotated_bytes())
    start, width = draw(st.sampled_from(_golden_spans()))
    text = draw(st.sampled_from(_FUZZ_TEXT) | st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=width))
    data[start : start + width] = text.encode("ascii").ljust(width)[:width]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(mutated_golden())
@example(_patched(244, "nan"))
@example(_patched(568, "inf"))
@example(golden_two_channel_annotated_bytes().replace(b"\x150.75", b"\x15 nan"))
def test_mutated_golden_parses_finite_or_fails_as_edf_error(blob):
    try:
        rec = parse_edf(blob)
    except DataError:
        return
    assert math.isfinite(rec.record_duration)
    for ch in rec.channels:
        assert math.isfinite(ch.physical_min) and math.isfinite(ch.physical_max)
    for ann in rec.annotations:
        assert math.isfinite(ann.onset) and math.isfinite(ann.duration)
