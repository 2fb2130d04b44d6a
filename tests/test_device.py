"""Profile mapping, simulated device timing, wire codec, sessions,
socket transport, and end-to-end replay."""

import socket
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindctl.device import (
    APPLIANCE_PROFILE,
    LED_COLORS,
    LED_HOLD_MS,
    PROFILES,
    ROBOT_PROFILE,
    Command,
    DeviceSession,
    decode_ack,
    decode_command,
    encode_ack,
    encode_command,
    majority_votes,
    replay,
    serve,
)
from mindctl.errors import ProtocolError
from helpers import mutated_bytes


# ---------------------------------------------------------------------------
# profiles

def test_robot_mapping_examples():
    assert ROBOT_PROFILE.actions[1] == "Walk Ahead"
    assert ROBOT_PROFILE.actions[2] == "Turn Left"
    assert ROBOT_PROFILE.actions[3] == "Turn Right"
    assert ROBOT_PROFILE.actions[4] == "Grasp"
    assert ROBOT_PROFILE.actions[5] == "Unloose"


def test_appliance_mapping_examples():
    assert APPLIANCE_PROFILE.actions[1] == "Turn on Blue LEDs"
    assert APPLIANCE_PROFILE.actions[2] == "Turn on White LED"
    assert APPLIANCE_PROFILE.actions[5] == "Turn on All LEDs"


def test_profiles_total_and_injective():
    for profile in PROFILES.values():
        actions = [profile.actions[label] for label in range(1, 6)]
        assert len(actions) == 5
        assert len(set(actions)) == 5


# ---------------------------------------------------------------------------
# device timing

def test_led_holds_for_exactly_two_seconds():
    session = DeviceSession(APPLIANCE_PROFILE)
    session.handle_line(b"CMD 1 4 RED 0\n")
    assert session.led_on("red", 0)
    assert session.led_on("red", 1999)
    assert not session.led_on("red", 2000)
    assert not session.led_on("blue", 0)


def test_all_leds_action_lights_everything():
    session = DeviceSession(APPLIANCE_PROFILE)
    session.handle_line(b"CMD 1 5 ALL 100\n")
    for color in LED_COLORS:
        assert session.led_on(color, 100)
        assert session.led_on(color, 2099)
        assert not session.led_on(color, 2100)


def test_repeat_command_extends_deadline():
    session = DeviceSession(APPLIANCE_PROFILE)
    session.handle_line(b"CMD 1 4 RED 0\n")
    session.handle_line(b"CMD 2 4 RED 500\n")
    assert session.led_on("red", 2000)  # past the first command's deadline
    assert session.led_on("red", 2499)
    assert not session.led_on("red", 2500)


def test_unknown_led_color_is_value_error():
    with pytest.raises(ValueError, match="unknown LED color"):
        DeviceSession(APPLIANCE_PROFILE).led_on("green", 0)


def test_led_intervals_match_event_list_oracle():
    rng = np.random.default_rng(4)
    times = np.sort(rng.integers(0, 12000, size=25))
    colors = rng.choice(["red", "white", "yellow", "blue"], size=25)
    label_for = {"blue": 1, "white": 2, "yellow": 3, "red": 4}

    session = DeviceSession(APPLIANCE_PROFILE)
    applied = []  # (t, color) so far
    for seq, (t, color) in enumerate(zip(times, colors), start=1):
        label = label_for[color]
        session.handle_line(encode_command(Command(
            seq, label, APPLIANCE_PROFILE.wire_ids[label], int(t))))
        applied.append((int(t), color))
        # probe from this command up to (exclusive) the next one: future
        # commands cannot light the past
        horizon = int(t) + 2500
        for probe in range(int(t), horizon, 97):
            for c in LED_COLORS:
                oracle = any(
                    ts <= probe < ts + LED_HOLD_MS
                    for ts, cc in applied
                    if cc == c
                )
                if probe <= int(t):
                    assert session.led_on(c, probe) == oracle
        # exact boundary probes for the command just applied
        assert session.led_on(color, int(t) + LED_HOLD_MS - 1)

    # after the last command the state is final: probe the whole horizon
    final_t = int(times[-1])
    for probe in range(final_t, final_t + 3000, 13):
        for c in LED_COLORS:
            oracle = any(
                ts <= probe < ts + LED_HOLD_MS for ts, cc in applied if cc == c
            )
            assert session.led_on(c, probe) == oracle


def test_robot_actions_append_to_log():
    session = DeviceSession(ROBOT_PROFILE)
    session.handle_line(b"CMD 1 1 AHEAD 0\n")
    session.handle_line(b"CMD 2 4 GRASP 100\n")
    assert [entry[3] for entry in session.transcript] == ["Walk Ahead", "Grasp"]
    assert session.led_off_ms == {}


def test_clock_cannot_move_backwards():
    session = DeviceSession(APPLIANCE_PROFILE)
    session.handle_line(b"CMD 1 4 RED 100\n")
    transcript, led_off_ms = list(session.transcript), dict(session.led_off_ms)
    with pytest.raises(ProtocolError, match="before device clock"):
        session.handle_line(b"CMD 2 5 ALL 50\n")
    # a rejected line changes nothing
    assert (session.transcript, session.led_off_ms) == (transcript, led_off_ms)


# ---------------------------------------------------------------------------
# codec

def test_encode_example_line():
    cmd = Command(seq=1, label=3, action_id="RIGHT", t_ms=0)
    assert encode_command(cmd) == b"CMD 1 3 RIGHT 0\n"


def test_decode_label_out_of_range():
    with pytest.raises(ProtocolError, match="label out of range"):
        decode_command(b"CMD 1 9 X 0\n")


@pytest.mark.parametrize(
    "line",
    [
        b"CMD 1 3 RIGHT 0",  # missing newline
        b"CMD 1 3 0\n",  # missing field
        b"cmd 1 3 RIGHT 0\n",  # wrong tag case
        b"CMD x 3 RIGHT 0\n",  # non-numeric seq
        b"CMD 1 3 right 0\n",  # lowercase action id
        b"CMD 1 0 RIGHT 0\n",  # label 0
        b"ACK 1\n",  # wrong verb
    ],
)
def test_decode_rejects_malformed_lines(line):
    with pytest.raises(ProtocolError) as exc:
        decode_command(line)
    assert repr(line)[2:-1] in str(exc.value) or "label" in str(exc.value)


@settings(max_examples=100, deadline=None)
@given(
    seq=st.integers(0, 10**9),
    label=st.integers(1, 5),
    t_ms=st.integers(0, 10**9),
)
def test_codec_round_trip(seq, label, t_ms):
    for profile in PROFILES.values():
        cmd = Command(seq=seq, label=label,
                      action_id=profile.wire_ids[label], t_ms=t_ms)
        assert decode_command(encode_command(cmd)) == cmd


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(b"CMD 12 3 RIGHT 750\n"))
def test_mutated_command_line_decodes_or_fails_as_protocol_error(line):
    try:
        cmd = decode_command(line)
    except ProtocolError:
        return
    assert encode_command(cmd) == line


def test_ack_codec():
    assert encode_ack(7) == b"ACK 7\n"
    assert decode_ack(b"ACK 7\n") == 7
    with pytest.raises(ProtocolError):
        decode_ack(b"ACK x\n")


# ---------------------------------------------------------------------------
# session

def test_session_acknowledges_each_command_once():
    session = DeviceSession(APPLIANCE_PROFILE)
    ack1 = session.handle_line(b"CMD 1 4 RED 0\n")
    ack2 = session.handle_line(b"CMD 2 4 RED 500\n")
    assert (ack1, ack2) == (b"ACK 1\n", b"ACK 2\n")
    assert len(session.transcript) == 2


def test_session_rejects_non_increasing_sequence():
    session = DeviceSession(APPLIANCE_PROFILE)
    session.handle_line(b"CMD 5 4 RED 0\n")
    session.handle_line(b"CMD 7 4 RED 50\n")
    with pytest.raises(ProtocolError, match="sequence number 7 not above 7"):
        session.handle_line(b"CMD 7 4 RED 100\n")


def test_session_rejects_mismatched_action_id():
    session = DeviceSession(APPLIANCE_PROFILE)
    with pytest.raises(ProtocolError, match="does not match label"):
        session.handle_line(b"CMD 1 4 BLUE 0\n")


# ---------------------------------------------------------------------------
# socket transport

def test_socket_server_session():
    ready = threading.Event()
    port_box = {}

    def on_ready(port):
        port_box["port"] = port
        ready.set()

    results = {}

    def run_server():
        results["session"] = serve("127.0.0.1", 0, APPLIANCE_PROFILE,
                                   once=True, on_ready=on_ready)

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert ready.wait(5)

    with socket.create_connection(("127.0.0.1", port_box["port"]), 5) as conn:
        with conn.makefile("rb") as reader:
            conn.sendall(b"CMD 1 4 RED 0\n")
            assert reader.readline() == b"ACK 1\n"
            conn.sendall(b"CMD 2 5 ALL 250\n")
            assert reader.readline() == b"ACK 2\n"
            conn.sendall(b"this is not a command\n")
            assert reader.readline().startswith(b"ERR ")
    thread.join(5)
    assert not thread.is_alive()
    session = results["session"]
    assert [entry[1] for entry in session.transcript] == [1, 2]
    assert session.led_on("red", 2249)


def test_socket_server_ends_session_on_clean_disconnect(tmp_path):
    ready = threading.Event()
    port_box = {}
    results = {}
    transcript = tmp_path / "transcript.csv"

    def run_server():
        results["session"] = serve(
            "127.0.0.1", 0, APPLIANCE_PROFILE, once=True,
            transcript_path=transcript,
            on_ready=lambda p: (port_box.update(port=p), ready.set()),
        )

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert ready.wait(5)

    with socket.create_connection(("127.0.0.1", port_box["port"]), 5) as conn:
        with conn.makefile("rb") as reader:
            conn.sendall(b"CMD 1 2 WHITE 0\n")
            assert reader.readline() == b"ACK 1\n"
    thread.join(5)
    assert not thread.is_alive()
    lines = transcript.read_text().splitlines()
    assert lines[0] == "t_ms,seq,label,action,ack"
    assert lines[1] == "0,1,2,Turn on White LED,1"


# ---------------------------------------------------------------------------
# replay

@example([3, 1, 1, 3, 5, 2, 2, 5, 4], 4)  # ties in full windows, short last
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=40), st.integers(1, 7))
def test_majority_votes_match_counting_oracle(labels, cadence):
    expected = []
    for start in range(0, len(labels), cadence):
        window = labels[start : start + cadence]
        best = max(window.count(lbl) for lbl in window)
        expected.append(min(lbl for lbl in window if window.count(lbl) == best))
    assert majority_votes(np.array(labels, dtype=int), cadence) == expected


def test_replay_empty_sequence():
    session = DeviceSession(APPLIANCE_PROFILE)
    assert replay(None, np.empty((0, 64)), session) == []


def test_replay_produces_one_command_per_sample(toy_model, toy_split):
    samples = toy_split.test.features[:20]
    session = DeviceSession(APPLIANCE_PROFILE)
    log = replay(toy_model, samples, session, cadence=1, step_ms=100)
    assert len(log) == 20
    assert [entry[1] for entry in log] == list(range(1, 21))
    assert [entry[0] for entry in log] == [i * 100 for i in range(20)]
    for _, _, label, action in log:
        assert action == APPLIANCE_PROFILE.actions[label]
    assert len(session.transcript) == 20


def test_replay_is_deterministic(toy_model, toy_split):
    samples = toy_split.test.features[:15]
    log_a = replay(toy_model, samples, DeviceSession(ROBOT_PROFILE))
    log_b = replay(toy_model, samples, DeviceSession(ROBOT_PROFILE))
    assert log_a == log_b


def test_replay_majority_vote_cadence(toy_model, toy_split):
    samples = toy_split.test.features[:12]
    session = DeviceSession(ROBOT_PROFILE)
    log = replay(toy_model, samples, session, cadence=4)
    assert len(log) == 3

    from mindctl.model import predict

    labels, _ = predict(toy_model, samples)
    for w, (_, _, decided, _) in enumerate(log):
        window = list(labels[w * 4 : (w + 1) * 4])
        counts = {lbl: window.count(lbl) for lbl in set(window)}
        best = max(counts.values())
        tied = [lbl for lbl, c in counts.items() if c == best]
        assert decided == min(tied)
