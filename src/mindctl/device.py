"""Intent actuation: command profiles, a simulated device, the
line-oriented wire protocol, and recorded-EEG replay.

The device runs on a simulated millisecond clock supplied with each
command, which keeps LED hold timing and replay runs deterministic. The
wire format is newline-delimited ASCII: ``CMD <seq> <label> <action-id>
<t_ms>`` inbound and ``ACK <seq>`` outbound.
"""

from __future__ import annotations

import re
import socket
from dataclasses import dataclass, field, replace

from .dataset import LABELS, write_csv
from .errors import DataError, ProtocolError
from .model import predict

LED_HOLD_MS = 2000
LED_COLORS = ("blue", "white", "yellow", "red")


@dataclass(frozen=True)
class CommandProfile:
    """A total, injective mapping from intent labels 1..5 to actions."""

    name: str
    actions: dict
    wire_ids: dict

    def __post_init__(self):
        for mapping in (self.actions, self.wire_ids):
            if tuple(sorted(mapping)) != LABELS:
                raise ValueError(
                    f"profile {self.name!r} must map exactly labels 1..5"
                )
            if len(set(mapping.values())) != len(LABELS):
                raise ValueError(
                    f"profile {self.name!r} actions must be distinct"
                )


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
)

PROFILES = {p.name: p for p in (ROBOT_PROFILE, APPLIANCE_PROFILE)}

_LED_BY_ACTION = {
    "Turn on Blue LEDs": ("blue",),
    "Turn on White LED": ("white",),
    "Turn on Yellow LED": ("yellow",),
    "Turn on Red LED": ("red",),
    "Turn on All LEDs": LED_COLORS,
}


@dataclass(frozen=True)
class DeviceState:
    """Simulated device snapshot.

    ``led_off_ms`` maps each lit LED color to the (exclusive) simulated
    time it switches off; for the robot profile ``actions`` logs the
    executed action names in order.
    """

    profile_name: str
    led_off_ms: dict = field(default_factory=dict)
    actions: tuple = ()
    clock_ms: int = 0

    @staticmethod
    def initial(profile_name: str) -> "DeviceState":
        return DeviceState(profile_name=profile_name)


def device_apply(state: DeviceState, action: str, now_ms: int) -> DeviceState:
    """Apply one action at simulated time ``now_ms``.

    Appliance actions light LEDs until ``now + 2000`` ms; a repeat
    command for a lit LED extends its deadline (hold intervals union).
    Robot actions append to the log. Commands must not move the clock
    backwards.
    """
    if now_ms < state.clock_ms:
        raise ProtocolError(
            f"command time {now_ms} ms is before device clock "
            f"{state.clock_ms} ms"
        )
    if state.profile_name == "appliance":
        colors = _LED_BY_ACTION.get(action)
        if colors is None:
            raise ProtocolError(f"unknown appliance action {action!r}")
        deadlines = dict(state.led_off_ms)
        for color in colors:
            deadlines[color] = max(
                deadlines.get(color, 0), now_ms + LED_HOLD_MS
            )
        return replace(state, led_off_ms=deadlines, clock_ms=now_ms)
    if action not in ROBOT_PROFILE.actions.values():
        raise ProtocolError(f"unknown robot action {action!r}")
    return replace(state, actions=state.actions + (action,), clock_ms=now_ms)


def led_on(state: DeviceState, color: str, at_ms: int) -> bool:
    """Whether ``color`` is lit at simulated time ``at_ms``."""
    if color not in LED_COLORS:
        raise ValueError(f"unknown LED color {color!r}")
    return at_ms < state.led_off_ms.get(color, 0)


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
_ACK_LINE = re.compile(rb"\AACK (0|[1-9][0-9]*)\n\Z")


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


def decode_ack(line: bytes) -> int:
    match = _ACK_LINE.match(line)
    if not match:
        raise ProtocolError(f"malformed acknowledgement {line!r}")
    return int(match.group(1))


# ---------------------------------------------------------------------------
# device endpoint

class DeviceSession:
    """One protocol session against a simulated device.

    Processes command lines in delivery order, enforces strictly
    increasing sequence numbers, applies each action, and acknowledges
    every command exactly once. The same object backs both the
    in-process loopback used by replay/tests and the socket server.
    """

    def __init__(self, profile: CommandProfile):
        self.profile = profile
        self.state = DeviceState.initial(profile.name)
        self.transcript = []  # (t_ms, seq, label, action, ack)
        self._last_seq = 0

    def handle_line(self, line: bytes) -> bytes:
        cmd = decode_command(line)
        if cmd.seq <= self._last_seq:
            raise ProtocolError(
                f"sequence number {cmd.seq} not above {self._last_seq}"
            )
        expected = self.profile.wire_ids[cmd.label]
        if cmd.action_id != expected:
            raise ProtocolError(
                f"action id {cmd.action_id!r} does not match label "
                f"{cmd.label} ({expected!r}) in {line!r}"
            )
        action = self.profile.actions[cmd.label]
        self.state = device_apply(self.state, action, cmd.t_ms)
        self._last_seq = cmd.seq
        self.transcript.append((cmd.t_ms, cmd.seq, cmd.label, action, cmd.seq))
        return encode_ack(cmd.seq)


def save_transcript(transcript, path) -> None:
    write_csv(path, ("t_ms", "seq", "label", "action", "ack"), transcript)


def serve(host: str, port: int, profile: CommandProfile, once: bool = True,
          transcript_path=None, on_ready=None):
    """Run the device endpoint over TCP.

    Reads command lines, replies ``ACK`` (or ``ERR <detail>`` for
    protocol violations, which end the session), and persists the
    transcript when a path is given. ``on_ready(port)`` fires once the
    socket is listening, so callers can bind port 0. With ``once`` the
    server exits after the first session and returns it.
    """
    with socket.create_server((host, port)) as server:
        if on_ready is not None:
            on_ready(server.getsockname()[1])
        while True:
            conn, _ = server.accept()
            session = DeviceSession(profile)
            with conn, conn.makefile("rb") as reader:
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
    """
    votes = []
    for start in range(0, len(labels), cadence):
        counts = {}
        for lbl in labels[start : start + cadence]:
            counts[int(lbl)] = counts.get(int(lbl), 0) + 1
        votes.append(max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0])
    return votes


def replay(model, features, profile: CommandProfile, session: DeviceSession,
           cadence: int = 1, step_ms: int = 250):
    """Drive the device from recorded EEG through a trained model.

    Predicts the time-ordered ``features`` rows, emits one command per
    ``cadence`` predictions (majority vote inside each window, ties to
    the smaller label), and sends it over the session at ``step_ms``
    simulated intervals. Returns the ordered (t_ms, seq, label, action) log.
    """
    if cadence < 1:
        raise DataError(f"cadence must be >= 1, got {cadence}")
    if step_ms < 0:
        raise DataError(f"step_ms must be >= 0, got {step_ms}")
    if len(features) == 0:
        return []
    labels, _ = predict(model, features)

    log = []
    for seq, decided in enumerate(majority_votes(labels, cadence), start=1):
        t_ms = (seq - 1) * step_ms
        cmd = Command(
            seq=seq,
            label=decided,
            action_id=profile.wire_ids[decided],
            t_ms=t_ms,
        )
        ack = session.handle_line(encode_command(cmd))
        if decode_ack(ack) != seq:
            raise ProtocolError(
                f"device acknowledged {ack!r} for sequence {seq}"
            )
        log.append((t_ms, seq, decided, profile.actions[decided]))
    return log


def save_command_log(log, path) -> None:
    write_csv(path, ("t_ms", "seq", "label", "action"), log)
