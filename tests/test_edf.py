"""EDF parse/serialize conformance and round-trip properties."""

import dataclasses
import math
import re
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindctl.edf import (
    ANNOTATION_LABEL,
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
    assert rec.annotations == ()


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
    assert rec != object()  # an EdfRecording equals only an EdfRecording


def test_sixty_four_channel_labels_survive_round_trip():
    rec = _make_recording(n_channels=64)
    back = parse_edf(serialize_edf(rec))
    assert [c.label for c in back.channels] == [c.label for c in rec.channels]
    assert len(back.channels) == 64


# ---------------------------------------------------------------------------
# randomized round trip

def _rarely(strategy, value):
    """``strategy``'s draws, but about one in ten is ``value`` (a middle
    draw of the ten: hypothesis favours the ends)."""
    return st.tuples(strategy, st.integers(0, 9)).map(
        lambda pair: value if pair[1] == 5 else pair[0])


# printable ASCII, trailing spaces included, which EDF pads away; two-digit
# years hold 1985..2084 only, and no microseconds
_header_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20
)
_label_text = _rarely(st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
), ANNOTATION_LABEL)
_start_times = st.tuples(
    st.datetimes(min_value=datetime(1984, 1, 1), max_value=datetime(2085, 12, 31)),
    _rarely(st.just(0), 1),
).map(lambda pair: pair[0].replace(microsecond=pair[1]))
# values that always fit the 8-byte header fields exactly
_physical_bounds = st.integers(min_value=-9999, max_value=9999).map(float)


@st.composite
def recording_fields(draw):
    """The fields of a recording, drawn so that only the rules _holds
    names can break."""
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
    return dict(
        patient_id=draw(_header_text),
        recording_id=draw(_header_text),
        start=draw(_start_times),
        n_records=n_records,
        record_duration=float(draw(st.integers(1, 10))),
        channels=channels,
        signals=signals,
        annotations=annotations,
    )


def _holds(rec):
    """Whether EDF can hold ``rec``: no text ends in whitespace, the start
    is a whole second in 1985..2084, and no ordinary channel is labelled
    as the annotation channel."""
    texts = [rec.patient_id, rec.recording_id, *(
        getattr(ch, name) for ch in rec.channels
        for name in ("label", "transducer", "physical_dim", "prefiltering"))]
    return (all(text == text.rstrip() for text in texts)
            and 1985 <= rec.start.year <= 2084 and rec.start.microsecond == 0
            and all(ch.label != ANNOTATION_LABEL for ch in rec.channels))


@settings(max_examples=200, deadline=None)
@given(recording_fields())
def test_round_trip_randomized(fields):
    # each recording round-trips exactly, or the format cannot hold it:
    # the recording refuses to be built, or serialize_edf to write it
    if not _holds(SimpleNamespace(**fields)):
        with pytest.raises(DataError):
            serialize_edf(EdfRecording(**fields))
        return
    rec = EdfRecording(**fields)
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


def _annotation_only_bytes():
    # the single-channel golden file with its signal relabelled as the
    # annotation channel and its four samples holding a timestamp TAL
    data = bytearray(golden_single_channel_bytes())
    data[256:272] = ANNOTATION_LABEL.encode("ascii").ljust(16)
    data[-8:] = b"+0\x14\x14\x00\x00\x00\x00"
    return bytes(data)


@pytest.mark.parametrize("blob, message", [
    (_patched(252, "0", 4), "signal count must be positive, got 0"),
    (_patched(236, "-1"), "data section of -1 records: expected -44 bytes, got 88"),
    (_patched(244, "0"), "record duration must be finite and positive, got 0.0"),
    (golden_two_channel_annotated_bytes()[:1000],
     r"signal headers truncated: expected 1024 bytes, got 1000 \(byte offset 1000\)"),
    (_annotation_only_bytes(), "recording must have at least one channel"),
    (_patched(168, "31.02.20"), "invalid start date/time: day is out of range"),
    (golden_two_channel_annotated_bytes().replace(b"+0.25\x15", b"+x.25\x15"),
     r"non-numeric TAL onset/duration in b'\+x.25"),
    (golden_two_channel_annotated_bytes().replace(b"+0.25\x15", b"00.25\x15"),
     r"TAL onset must be signed, got b'00.25'"),
    (golden_two_channel_annotated_bytes().replace(b"\x14T1\x14", b"\x14T1\x00"),
     r"TAL missing text terminator \(byte offset \d+\)"),
    (golden_two_channel_annotated_bytes().replace(b"X F ", b"X\xffF ", 1),
     r"non-ASCII bytes in patient id field \(byte offset 8\)"),
], ids=["no_signals", "negative_record_count", "zero_record_duration",
        "truncated_signal_headers", "annotation_channel_only", "invalid_start_date",
        "non_numeric_tal_onset", "unsigned_tal_onset", "tal_without_terminator",
        "non_ascii_header_text"])
def test_parse_boundary_cases_are_data_errors(blob, message):
    with pytest.raises(DataError, match=message):
        parse_edf(blob)


def test_serialize_rejects_out_of_range_digital():
    rec = _make_recording()
    rec = dataclasses.replace(
        rec, signals=(rec.signals[0].astype(np.int32) + 100000, *rec.signals[1:]))
    with pytest.raises(DataError, match="digital range"):
        serialize_edf(rec)


def _short_signal(rec):
    return dataclasses.replace(rec, signals=(rec.signals[0][:-1], *rec.signals[1:]))


def _relabel(rec, **fields):
    channel = dataclasses.replace(rec.channels[0], **fields)
    return dataclasses.replace(rec, channels=(channel, *rec.channels[1:]))


def _restart(rec, **fields):
    return dataclasses.replace(rec, start=rec.start.replace(**fields))


def _zero_records_with_annotations(rec):
    return dataclasses.replace(rec, n_records=0, signals=[s[:0] for s in rec.signals])


def _annotate(rec, annotation):
    return dataclasses.replace(rec, annotations=(*rec.annotations, annotation))


# a recording rule raises as the recording is built, an encoding rule as
# serialize_edf writes it
@pytest.mark.parametrize("fault, message, when", [
    (_short_signal, "expected 6 samples, got 5", "built"),
    (_zero_records_with_annotations, "annotations require at least one data record",
     "built"),
    (lambda rec: dataclasses.replace(rec, channels=()), "at least one channel",
     "built"),
    (lambda rec: dataclasses.replace(rec, signals=rec.signals[:-1]),
     "disagree in length", "built"),
    (lambda rec: dataclasses.replace(rec, patient_id="P" * 81),
     "longer than 80 bytes", "written"),
    (lambda rec: dataclasses.replace(rec, recording_id="R \u00e9"), "not ASCII",
     "written"),
    (lambda rec: dataclasses.replace(rec, record_duration=float("nan")),
     "record duration must be finite and positive, got nan", "built"),
    (lambda rec: dataclasses.replace(rec, record_duration=1 / 3),
     "not representable", "written"),
    (lambda rec: _annotate(rec, EdfAnnotation(1.5, 0.5, "")), "non-empty", "written"),
    (lambda rec: _annotate(rec, EdfAnnotation(1.5, float("inf"), "T2")),
     "annotation time inf", "written"),
    (lambda rec: _annotate(rec, EdfAnnotation(1.5, 0.5, "T\x152")),
     "contains reserved bytes", "written"),
    (lambda rec: dataclasses.replace(rec, patient_id="pat "),
     "'pat ' ends in whitespace", "written"),
    (lambda rec: _relabel(rec, label="C1 "), "'C1 ' ends in whitespace", "written"),
    (lambda rec: _relabel(rec, transducer="x\t"), r"'x\\t' ends in whitespace",
     "written"),
    (lambda rec: _relabel(rec, physical_min=float("nan")),
     "physical min must be finite, got nan", "built"),
    (lambda rec: _relabel(rec, label=ANNOTATION_LABEL), "cannot be labelled", "built"),
    (lambda rec: _restart(rec, year=2090), "1985..2084", "built"),
    (lambda rec: _restart(rec, year=1970), "1985..2084", "built"),
    (lambda rec: _restart(rec, microsecond=5), "whole second", "built"),
    (lambda rec: _restart(rec, tzinfo=timezone.utc), "time zone", "built"),
], ids=["short_signal", "zero_records_annotated", "no_channels", "signal_count",
        "long_field", "non_ascii_field", "nan_duration", "long_duration",
        "empty_annotation", "infinite_annotation", "reserved_byte_annotation",
        "spaced_patient_id", "spaced_label", "tabbed_transducer", "nan_physical_min",
        "annotation_label",
        "start_2090", "start_1970", "start_microseconds", "start_time_zone"])
def test_serialize_faults_are_data_errors(fault, message, when):
    rec = _make_recording()
    if when == "built":
        with pytest.raises(DataError, match=message):
            fault(rec)
        return
    faulty = fault(rec)
    with pytest.raises(DataError, match=message):
        serialize_edf(faulty)


@pytest.mark.parametrize("duration", [0.0, -1.0])
def test_record_duration_must_be_positive(duration):
    with pytest.raises(DataError, match="record duration must be finite and "
                       f"positive, got {duration!r}"):
        dataclasses.replace(_make_recording(), record_duration=duration)


@pytest.mark.parametrize("n_records", [2.0, "2", -1])
def test_record_count_must_be_a_whole_number(n_records):
    with pytest.raises(DataError, match=re.escape(
            f"record count must be an integer >= 0, got {n_records!r}")):
        dataclasses.replace(_make_recording(), n_records=n_records)


def test_decreasing_annotation_onsets_rejected():
    rec = _make_recording()
    blob = serialize_edf(rec)
    with pytest.raises(DataError, match="decrease"):
        dataclasses.replace(rec, annotations=[EdfAnnotation(2.0, 0.5, "T0"),
                                              EdfAnnotation(1.0, 0.5, "T1")])
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
    ({"digital_max": 40000}, r"digital range \[-2048, 40000\] exceeds 16 bits"),
    ({"digital_min": -40000}, r"digital range \[-40000, 2047\] exceeds 16 bits"),
    ({"digital_min": -2048.5}, "digital min must be an integer, got -2048.5"),
    ({"digital_max": True}, "digital max must be an integer, got True"),
    ({"samples_per_record": 3.0}, "samples per record must be an integer, got 3.0"),
    ({"physical_min": float("nan")}, "physical min must be finite, got nan"),
    ({"physical_max": float("inf"), "label": "EDF Annotations"},
     "physical max must be finite, got inf"),
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


def test_header_number_too_long_for_repr_takes_the_shortest_g_form():
    # 1e10 is too large for an integer field text and its repr,
    # '10000000000.0', is 13 bytes: only '%g' at some precision fits
    rec = _make_recording(with_annotations=False)
    rec = dataclasses.replace(rec, channels=(
        dataclasses.replace(rec.channels[0], physical_max=1e10), *rec.channels[1:]))
    blob = serialize_edf(rec)
    # the two physical max fields follow the label, transducer, dimension
    # and physical min fields of both signals
    at = 256 + 2 * (16 + 80 + 8 + 8)
    assert blob[at : at + 16] == b"1e+10   200     "
    assert parse_edf(blob) == rec


def test_parse_names_the_channel_that_breaks_a_rule():
    # signal 1's digital min field: 256 + 3 * 120, the second of three
    offset = 256 + 3 * 120 + 8
    blob = _patched(offset, "101")
    assert golden_two_channel_annotated_bytes()[offset : offset + 8] == b"-100    "
    with pytest.raises(DataError, match="channel 'EEG Cz': digital min 101 not below"):
        parse_edf(blob)
    # and its digital max field (256 + 3 * 128), 100 in the golden file
    with pytest.raises(DataError, match=r"channel 'EEG Cz': digital range "
                       r"\[-100, 40000\] exceeds 16 bits"):
        parse_edf(_patched(256 + 3 * 128 + 8, "40000"))


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
