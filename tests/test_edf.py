"""EDF parse/serialize conformance and round-trip properties."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindctl.edf import (
    EdfAnnotation,
    EdfChannel,
    EdfRecording,
    digital_from_physical,
    parse_edf,
    serialize_edf,
)
from mindctl.errors import (
    EdfParseError,
    EdfRangeError,
    EdfUnsupportedError,
)


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

def test_truncated_header_reports_offset():
    with pytest.raises(EdfParseError, match="fixed header truncated"):
        parse_edf(b"0       " * 10)


def test_unsupported_version_tag():
    data = bytearray(golden_single_channel_bytes())
    data[0:8] = b"9       "
    with pytest.raises(EdfUnsupportedError, match="version"):
        parse_edf(bytes(data))


def test_discontinuous_variant_rejected():
    data = bytearray(golden_single_channel_bytes())
    data[192:197] = b"EDF+D"
    with pytest.raises(EdfUnsupportedError, match="EDF\\+D"):
        parse_edf(bytes(data))


def test_non_numeric_record_count():
    data = bytearray(golden_single_channel_bytes())
    data[236:244] = b"x       "
    with pytest.raises(EdfParseError, match="byte offset 236"):
        parse_edf(bytes(data))


def test_wrong_header_byte_count_field():
    data = bytearray(golden_single_channel_bytes())
    data[184:192] = b"768     "
    with pytest.raises(EdfParseError, match="header byte count"):
        parse_edf(bytes(data))


def test_truncated_data_section_names_lengths():
    data = golden_single_channel_bytes()[:-4]
    with pytest.raises(EdfParseError, match="expected 8 bytes, got 4"):
        parse_edf(data)


def test_serialize_rejects_out_of_range_digital():
    rec = _make_recording()
    rec.signals[0] = rec.signals[0].astype(np.int32) + 100000
    with pytest.raises(EdfRangeError, match="digital range"):
        serialize_edf(rec)


def test_digital_from_physical_range_error():
    ch = EdfChannel("c", -10.0, 10.0, -100, 100, 4)
    with pytest.raises(EdfRangeError, match="physical values outside"):
        digital_from_physical([0.0, 11.0], ch)


def test_digital_from_physical_round_trips_in_range():
    ch = EdfChannel("c", -100.0, 100.0, -1000, 1000, 4)
    digital = digital_from_physical([-100.0, 0.0, 55.5, 100.0], ch)
    physical = digital.astype(float) * ch.gain() + ch.offset()
    assert np.allclose(physical, [-100.0, 0.0, 55.5, 100.0], atol=ch.gain())


def test_decreasing_annotation_onsets_rejected():
    rec = _make_recording()
    blob = serialize_edf(rec)
    rec.annotations = [EdfAnnotation(2.0, 0.5, "T0"), EdfAnnotation(1.0, 0.5, "T1")]
    with pytest.raises(ValueError, match="sorted"):
        serialize_edf(rec)
    assert parse_edf(blob)  # original unaffected


def test_invalid_utf8_tal_text_is_parse_error():
    blob = serialize_edf(_make_recording())
    at = blob.index(b"\x14T1\x14")
    corrupt = blob[: at + 1] + b"\xff" + blob[at + 2 :]
    with pytest.raises(EdfParseError, match="not valid UTF-8") as info:
        parse_edf(corrupt)
    assert info.value.offset is not None
