"""Profile mapping, simulated device timing, wire codec, sessions,
socket transport, and end-to-end replay."""

import socket
import struct
import threading
from types import SimpleNamespace

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
    decode_command,
    encode_ack,
    encode_command,
    majority_votes,
    replay,
    serve,
)
from mindctl.errors import DataError, ProtocolError
from mindctl.nn import DenseParams
from helpers import mutated_bytes, reference_majority_votes


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
    # the profiles are module constants, so this test holds their rule
    for profile in PROFILES.values():
        for mapping in (profile.actions, profile.wire_ids):
            assert sorted(mapping) == [1, 2, 3, 4, 5]
            assert len(set(mapping.values())) == 5


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
    # a rejected line or command changes nothing
    assert (session.transcript, session.led_off_ms) == (transcript, led_off_ms)
    for cmd, reason in [(Command(2, 5, "ALL", 50), "before device clock"),
                        (Command(1, 5, "ALL", 200), "not above 1"),
                        (Command(2, 5, "RED", 200), "does not match label"),
                        (Command(2, 6, "ALL", 200), "does not match label")]:
        with pytest.raises(ProtocolError, match=reason):
            session.handle(cmd)
        assert (session.transcript, session.led_off_ms) == (transcript,
                                                            led_off_ms)


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


def test_socket_server_survives_a_peer_that_resets(tmp_path):
    # SO_LINGER 0 makes close send RST in place of FIN: the server's next
    # read fails with ECONNRESET, which ends the session as a disconnect
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

    conn = socket.create_connection(("127.0.0.1", port_box["port"]), 5)
    with conn, conn.makefile("rb") as reader:
        conn.sendall(b"CMD 1 3 YELLOW 0\n")
        assert reader.readline() == b"ACK 1\n"
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    thread.join(5)
    assert not thread.is_alive()
    assert [entry[1] for entry in results["session"].transcript] == [1]
    assert transcript.read_text().splitlines() == [
        "t_ms,seq,label,action,ack", "0,1,3,Turn on Yellow LED,1"]


# ---------------------------------------------------------------------------
# replay

@example([3, 1, 1, 3, 5, 2, 2, 5, 4], 4)  # ties in full windows, short last
@example([], 3)  # no windows
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=40), st.integers(1, 7))
def test_majority_votes_match_counting_oracle(labels, cadence):
    expected = []
    for start in range(0, len(labels), cadence):
        window = labels[start : start + cadence]
        best = max(window.count(lbl) for lbl in window)
        expected.append(min(lbl for lbl in window if window.count(lbl) == best))
    assert majority_votes(np.array(labels, dtype=int), cadence) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 9))
def test_majority_votes_match_the_per_window_loop(seed, n, cadence):
    # one count over (window, label) pairs against a dict per window, on
    # skewed labels so that ties and clear winners both occur
    rng = np.random.default_rng(seed)
    labels = rng.choice([1, 2, 3, 4, 5], size=n, p=rng.dirichlet(np.ones(5)))
    votes = majority_votes(labels, cadence)
    assert votes == reference_majority_votes(labels, cadence)
    assert all(type(vote) is int for vote in votes)


@pytest.mark.parametrize("label", [0, 6])
def test_majority_votes_reject_labels_outside_the_classes(label):
    with pytest.raises(DataError, match="labels outside 1..5"):
        majority_votes(np.array([1, label, 2]), 2)


def test_replay_empty_sequence():
    session = DeviceSession(APPLIANCE_PROFILE)
    replay(None, np.empty((0, 64)), session)
    assert (session.transcript, session.led_off_ms) == ([], {})


def test_replay_produces_one_command_per_sample(toy_model, toy_split):
    samples = toy_split.test.features[:20]
    session = DeviceSession(APPLIANCE_PROFILE)
    replay(toy_model, samples, session, cadence=1, step_ms=100)
    transcript = session.transcript
    assert len(transcript) == 20
    assert [entry[1] for entry in transcript] == list(range(1, 21))
    assert [entry[0] for entry in transcript] == [i * 100 for i in range(20)]
    for _, seq, label, action, ack in transcript:
        assert action == APPLIANCE_PROFILE.actions[label]
        assert ack == seq


def test_replay_is_deterministic(toy_model, toy_split):
    samples = toy_split.test.features[:15]
    session_a, session_b = DeviceSession(ROBOT_PROFILE), DeviceSession(ROBOT_PROFILE)
    replay(toy_model, samples, session_a)
    replay(toy_model, samples, session_b)
    assert session_a.transcript == session_b.transcript


def test_replay_majority_vote_cadence(toy_model, toy_split):
    samples = toy_split.test.features[:12]
    session = DeviceSession(ROBOT_PROFILE)
    replay(toy_model, samples, session, cadence=4)
    assert len(session.transcript) == 3

    from mindctl.model import predict

    labels, _ = predict(toy_model, samples)
    for w, (_, _, decided, _, _) in enumerate(session.transcript):
        window = list(labels[w * 4 : (w + 1) * 4])
        counts = {lbl: window.count(lbl) for lbl in set(window)}
        best = max(counts.values())
        tied = [lbl for lbl, c in counts.items() if c == best]
        assert decided == min(tied)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PROFILES)), st.integers(1, 5), st.integers(0, 700),
       st.lists(st.integers(1, 5), max_size=40))
def test_replay_leaves_the_session_its_wire_lines_leave(name, cadence, step_ms,
                                                        labels):
    # a one-layer model whose prediction is the label one-hot encoded in
    # the first five features, so the drawn labels are the predictions
    profile = PROFILES[name]
    W = np.zeros((64, 5))
    W[:5] = np.eye(5)
    model = SimpleNamespace(layers=[DenseParams(W=W, b=np.zeros(5))])
    features = np.zeros((len(labels), 64))
    features[np.arange(len(labels)), np.array(labels, dtype=int) - 1] = 1.0

    replayed = DeviceSession(profile)
    replay(model, features, replayed, cadence=cadence, step_ms=step_ms)
    wired = DeviceSession(profile)
    for seq, label in enumerate(reference_majority_votes(labels, cadence), start=1):
        ack = wired.handle_line(encode_command(
            Command(seq, label, profile.wire_ids[label], (seq - 1) * step_ms)))
        assert ack == encode_ack(seq)
    assert replayed.transcript == wired.transcript
    assert replayed.led_off_ms == wired.led_off_ms
