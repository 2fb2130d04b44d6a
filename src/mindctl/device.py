"""Intent actuation: command profiles, a simulated device, the
line-oriented wire protocol, and recorded-EEG replay.

The device runs on a simulated millisecond clock supplied with each
command, which keeps LED hold timing and replay runs deterministic. The
wire format is newline-delimited ASCII: ``CMD <seq> <label> <action-id>
<t_ms>`` inbound and ``ACK <seq>`` outbound.
"""

from __future__ import annotations

import contextlib
import re
import socket
from dataclasses import dataclass

import numpy as np

from .dataset import LABELS, write_csv
from .errors import DataError, ProtocolError
from .evaluation import vote
from .model import predict

LED_HOLD_MS = 2000
LED_COLORS = ("blue", "white", "yellow", "red")


@dataclass(frozen=True)
class CommandProfile:
    """A total, injective mapping from intent labels 1..5 to actions.

    ``leds`` maps a label to the LED colors its command lights; labels
    it omits light none.
    """

    name: str
    actions: dict
    wire_ids: dict
    leds: dict


ROBOT_PROFILE = CommandProfile(
    name="robot",
    actions={
        1: "Walk Ahead",
        2: "Turn Left",
        3: "Turn Right",
        4: "Grasp",
        5: "Unloose",
    },
    wire_ids={1: "AHEAD", 2: "LEFT", 3: "RIGHT", 4: "GRASP", 5: "UNLOOSE"},
    leds={},
)

APPLIANCE_PROFILE = CommandProfile(
    name="appliance",
    actions={
        1: "Turn on Blue LEDs",
        2: "Turn on White LED",
        3: "Turn on Yellow LED",
        4: "Turn on Red LED",
        5: "Turn on All LEDs",
    },
    wire_ids={1: "BLUE", 2: "WHITE", 3: "YELLOW", 4: "RED", 5: "ALL"},
    leds={1: ("blue",), 2: ("white",), 3: ("yellow",), 4: ("red",),
          5: LED_COLORS},
)

PROFILES = {p.name: p for p in (ROBOT_PROFILE, APPLIANCE_PROFILE)}


# ---------------------------------------------------------------------------
# wire codec

@dataclass(frozen=True)
class Command:
    seq: int
    label: int
    action_id: str
    t_ms: int


_CMD_LINE = re.compile(
    rb"\ACMD (0|[1-9][0-9]*) ([1-9]) ([A-Z][A-Z0-9_]*) (0|[1-9][0-9]*)\n\Z"
)


def encode_command(cmd: Command) -> bytes:
    return f"CMD {cmd.seq} {cmd.label} {cmd.action_id} {cmd.t_ms}\n".encode(
        "ascii"
    )


def decode_command(line: bytes) -> Command:
    match = _CMD_LINE.match(line)
    if not match:
        raise ProtocolError(f"malformed command line {line!r}")
    seq, label, action_id, t_ms = match.groups()
    if int(label) not in LABELS:
        raise ProtocolError(f"label out of range in {line!r}")
    return Command(
        seq=int(seq),
        label=int(label),
        action_id=action_id.decode("ascii"),
        t_ms=int(t_ms),
    )


def encode_ack(seq: int) -> bytes:
    return f"ACK {seq}\n".encode("ascii")


# ---------------------------------------------------------------------------
# device endpoint

class DeviceSession:
    """A simulated device, which is one protocol session.

    Processes commands in delivery order, enforces strictly increasing
    sequence numbers and a clock that never moves backwards, and applies
    each action. The transcript is the device's log, and its last entry
    holds the last sequence number and the clock; ``led_off_ms`` maps
    each lit LED color to the (exclusive) simulated time it switches
    off. A rejected command changes neither. Replay hands ``handle`` its
    commands; the socket server feeds wire lines to ``handle_line``,
    which acknowledges each once.
    """

    def __init__(self, profile: CommandProfile):
        self.profile = profile
        self.transcript = []  # (t_ms, seq, label, action, ack)
        self.led_off_ms = {}

    def handle(self, cmd: Command) -> None:
        """Apply one command, or raise ProtocolError and change nothing."""
        clock_ms, last_seq = (self.transcript[-1][:2] if self.transcript
                              else (0, 0))
        if cmd.seq <= last_seq:
            raise ProtocolError(
                f"sequence number {cmd.seq} not above {last_seq}"
            )
        expected = self.profile.wire_ids.get(cmd.label)
        if cmd.action_id != expected:
            raise ProtocolError(
                f"action id {cmd.action_id!r} does not match label "
                f"{cmd.label} ({expected!r}) in command {cmd.seq}"
            )
        if cmd.t_ms < clock_ms:
            raise ProtocolError(
                f"command time {cmd.t_ms} ms is before device clock "
                f"{clock_ms} ms"
            )
        # the clock never moves back, so a repeat command for a lit LED
        # extends its deadline (hold intervals union)
        for color in self.profile.leds.get(cmd.label, ()):
            self.led_off_ms[color] = cmd.t_ms + LED_HOLD_MS
        action = self.profile.actions[cmd.label]
        self.transcript.append((cmd.t_ms, cmd.seq, cmd.label, action, cmd.seq))

    def handle_line(self, line: bytes) -> bytes:
        """``handle`` one wire line and return its acknowledgement."""
        cmd = decode_command(line)
        self.handle(cmd)
        return encode_ack(cmd.seq)

    def led_on(self, color: str, at_ms: int) -> bool:
        """Whether ``color`` is lit at simulated time ``at_ms``."""
        if color not in LED_COLORS:
            raise ValueError(f"unknown LED color {color!r}")
        return at_ms < self.led_off_ms.get(color, 0)


def save_transcript(transcript, path) -> None:
    write_csv(path, ("t_ms", "seq", "label", "action", "ack"), transcript)


def serve(host: str, port: int, profile: CommandProfile, once: bool = True,
          transcript_path=None, on_ready=None):
    """Run the device endpoint over TCP.

    Reads command lines, replies ``ACK`` (or ``ERR <detail>`` for
    protocol violations, which end the session, as a reset connection
    does), and persists the transcript when a path is given.
    ``on_ready(port)`` fires once the socket is listening, so callers can
    bind port 0. With ``once`` the server exits after the first session
    and returns it.
    """
    with socket.create_server((host, port)) as server:
        if on_ready is not None:
            on_ready(server.getsockname()[1])
        while True:
            conn, _ = server.accept()
            session = DeviceSession(profile)
            with conn, conn.makefile("rb") as reader, contextlib.suppress(OSError):
                for line in reader:
                    try:
                        response = session.handle_line(line)
                    except ProtocolError as exc:
                        conn.sendall(f"ERR {exc}\n".encode("ascii", "replace"))
                        break
                    conn.sendall(response)
            if transcript_path is not None:
                save_transcript(session.transcript, transcript_path)
            if once:
                return session


# ---------------------------------------------------------------------------
# end-to-end replay

def majority_votes(labels, cadence: int) -> list:
    """The majority label of each consecutive ``cadence``-long window.

    Ties go to the smaller label; a shorter last window votes on its own.
    Each prediction is its window's member in ``evaluation.vote``, ranked
    by its label, so the smaller of two tied labels ranks first.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < LABELS[0] or labels.max() > LABELS[-1]):
        raise DataError(f"labels outside {LABELS[0]}..{LABELS[-1]}")
    windows = np.arange(len(labels)) // cadence
    return vote(windows, labels, labels, -(-len(labels) // cadence)).tolist()


def replay(model, features, session: DeviceSession, cadence: int = 1,
           step_ms: int = 250) -> None:
    """Drive the device from recorded EEG through a trained model.

    Predicts the time-ordered ``features`` rows, emits one command per
    ``cadence`` predictions (majority vote inside each window, ties to
    the smaller label), and hands it to the session at ``step_ms``
    simulated intervals, with the ids of ``session.profile``. The
    session's transcript is the replay's record.
    """
    if cadence < 1:
        raise DataError(f"cadence must be >= 1, got {cadence}")
    if step_ms < 0:
        raise DataError(f"step_ms must be >= 0, got {step_ms}")
    if len(features) == 0:
        return
    labels, _ = predict(model, features)
    wire_ids = session.profile.wire_ids
    for seq, decided in enumerate(majority_votes(labels, cadence), start=1):
        session.handle(Command(seq, decided, wire_ids[decided],
                               (seq - 1) * step_ms))


def save_command_log(transcript, path) -> None:
    """The transcript's first four columns, ``ack`` left out."""
    write_csv(path, ("t_ms", "seq", "label", "action"),
              (entry[:4] for entry in transcript))
