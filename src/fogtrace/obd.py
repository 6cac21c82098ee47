"""OBD-II PID codec with an ELM327-style ASCII framing.

Requests are two uppercase hex byte pairs separated by one space and
terminated by a carriage return (``01 0C\\r``). Replies echo the request
PID with the mode byte shifted by 0x40 (``41 0C 1A F0\\r``); an optional
trailing ``>`` prompt is tolerated and ignored. Only mode 0x01 (current
data) is supported for queries; anything else is answered with a negative
frame ``7F MM NN\\r``.

Decode formulas for the three collected channels:

* 0x0C engine speed:      rpm = (256*A + B) / 4
* 0x0D vehicle speed:     km/h = A
* 0x11 throttle position: percent = A * 100 / 255

PIDs outside the table decode to the raw big-endian integer with unit
``raw`` so the table stays extensible. The codec is pure and stateless.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

MODE_CURRENT_DATA = 0x01
REPLY_MODE_OFFSET = 0x40
NEGATIVE_REPLY_MODE = 0x7F

NRC_SERVICE_NOT_SUPPORTED = 0x11
NRC_SUBFUNCTION_NOT_SUPPORTED = 0x12

PID_RPM = 0x0C
PID_SPEED = 0x0D
PID_THROTTLE = 0x11


class ObdError(Exception):
    """Base class for codec and link errors."""


class UnsupportedModeError(ObdError):
    """A query in a mode other than 0x01; ``mode`` is the rejected mode byte."""

    def __init__(self, message: str, mode: int = 0x00):
        super().__init__(message)
        self.mode = mode


class MalformedFrameError(ObdError):
    pass


class PidMismatchError(ObdError):
    pass


class WrongLengthError(ObdError):
    pass


class RangeViolationError(ObdError):
    pass


class NegativeResponseError(ObdError):
    """The responder rejected the request with a ``7F`` frame."""

    def __init__(self, service: int, nrc: int):
        super().__init__(f"negative response: service 0x{service:02X}, code 0x{nrc:02X}")
        self.service = service
        self.nrc = nrc


@dataclass(frozen=True)
class PidId:
    """A mode / parameter-id pair addressing one vehicle measurement."""

    pid: int
    mode: int = MODE_CURRENT_DATA

    def __post_init__(self):
        if not 0 <= self.pid <= 0xFF:
            raise ValueError(f"pid must fit one byte, got {self.pid:#x}")
        if not 0 <= self.mode <= 0xFF:
            raise ValueError(f"mode must fit one byte, got {self.mode:#x}")


@dataclass(frozen=True)
class PidDefinition:
    name: str
    channel: str
    unit: str
    data_length: int
    decode: Callable[[bytes], float]
    encode: Callable[[float], bytes]
    min_value: float
    max_value: float


def _clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def _encode_rpm(value: float) -> bytes:
    raw = int(round(_clamp(value, 0.0, 16383.75) * 4))
    return bytes([(raw >> 8) & 0xFF, raw & 0xFF])


def _encode_byte(value: float) -> bytes:
    return bytes([int(round(_clamp(value, 0, 255)))])


def _encode_throttle(value: float) -> bytes:
    return bytes([int(round(_clamp(value, 0.0, 100.0) * 255 / 100))])


PID_TABLE: dict[int, PidDefinition] = {
    PID_RPM: PidDefinition(
        name="engine_rpm",
        channel="rpm",
        unit="rpm",
        data_length=2,
        decode=lambda d: (256 * d[0] + d[1]) / 4.0,
        encode=_encode_rpm,
        min_value=0.0,
        max_value=16383.75,
    ),
    PID_SPEED: PidDefinition(
        name="vehicle_speed",
        channel="speed_kmh",
        unit="km/h",
        data_length=1,
        decode=lambda d: float(d[0]),
        encode=_encode_byte,
        min_value=0.0,
        max_value=255.0,
    ),
    PID_THROTTLE: PidDefinition(
        name="throttle_position",
        channel="throttle_pct",
        unit="percent",
        data_length=1,
        decode=lambda d: d[0] * 100.0 / 255.0,
        encode=_encode_throttle,
        min_value=0.0,
        max_value=100.0,
    ),
}

CORE_PIDS = (PID_RPM, PID_SPEED, PID_THROTTLE)


@dataclass(frozen=True, slots=True)
class ObdResponse:
    pid_id: PidId
    data: bytes
    value: float
    unit: str
    received_at: float  # monotonic ms


def encode_request(pid_id: PidId) -> bytes:
    """Render a query as ``MM PP\\r``; only mode 0x01 may be queried."""
    if pid_id.mode != MODE_CURRENT_DATA:
        raise UnsupportedModeError(f"only mode 0x01 queries are supported, got 0x{pid_id.mode:02X}", pid_id.mode)
    return f"{pid_id.mode:02X} {pid_id.pid:02X}\r".encode("ascii")


def render_response(pid_id: PidId, data: bytes) -> bytes:
    """Render a positive reply frame for the given payload bytes.

    Raises ``ValueError`` for modes from 0xC0 up, whose reply mode does
    not fit one byte.
    """
    frame = bytes((pid_id.mode + REPLY_MODE_OFFSET, pid_id.pid)) + data
    return frame.hex(" ").upper().encode("ascii") + b"\r"


def render_negative_response(mode: int, nrc: int = NRC_SUBFUNCTION_NOT_SUPPORTED) -> bytes:
    return f"{NEGATIVE_REPLY_MODE:02X} {mode:02X} {nrc:02X}\r".encode("ascii")


# A frame as the codec itself renders it: upper or lower case hex byte
# pairs, single spaces, CR, then any number of prompts.
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_CANONICAL_FRAME = re.compile(rb"((?:[0-9A-Fa-f]{2} )*[0-9A-Fa-f]{2})\r>*")


def _tokenize(line: bytes) -> bytes | list[int]:
    """The byte values of a frame; canonical frames skip the token loop."""
    match = _CANONICAL_FRAME.fullmatch(line)
    if match is not None:
        return bytes.fromhex(match[1].decode("ascii"))
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedFrameError("frame is not ASCII") from exc
    # ELM327 adapters append a prompt after the terminator; accept and drop it.
    while text.endswith(">"):
        text = text[:-1]
    if not text.endswith("\r"):
        raise MalformedFrameError("frame not terminated by CR")
    tokens = text.strip().split()
    if not tokens:
        raise MalformedFrameError("empty frame")
    values = []
    for tok in tokens:
        # int(tok, 16) alone would also take a sign ("+C", "-1").
        if len(tok) != 2 or not _HEX_DIGITS.issuperset(tok):
            raise MalformedFrameError(f"token {tok!r} is not a hex byte pair")
        values.append(int(tok, 16))
    return values


def parse_request(line: bytes) -> PidId:
    """Parse a query frame (responder side)."""
    if type(line) is bytes:
        known = _CANONICAL_REQUESTS.get(line)
        if known is not None:
            return known
    values = _tokenize(line)
    if len(values) != 2:
        raise MalformedFrameError(f"request must be exactly two bytes, got {len(values)}")
    mode, pid = values
    if mode != MODE_CURRENT_DATA:
        raise UnsupportedModeError(f"unsupported mode 0x{mode:02X}", mode)
    return PidId(pid=pid, mode=mode)


def parse_response(line: bytes, expected: PidId, received_at: float = 0.0) -> ObdResponse:
    """Parse a reply frame, verifying the mode and PID echoes.

    Raises :class:`NegativeResponseError` for ``7F`` frames,
    :class:`PidMismatchError` when the echoed PID differs from ``expected``
    and :class:`MalformedFrameError` for anything that is not a frame.
    """
    values = _tokenize(line)
    if values[0] == NEGATIVE_REPLY_MODE:
        if len(values) != 3:
            raise MalformedFrameError("negative response must carry service and NRC bytes")
        raise NegativeResponseError(service=values[1], nrc=values[2])
    if len(values) < 2:
        raise MalformedFrameError("reply too short")
    if values[0] != expected.mode + REPLY_MODE_OFFSET:
        raise MalformedFrameError(
            f"mode echo 0x{values[0]:02X} does not match request mode 0x{expected.mode:02X}"
        )
    if values[1] != expected.pid:
        raise PidMismatchError(f"expected PID 0x{expected.pid:02X}, reply echoed 0x{values[1]:02X}")
    data = bytes(values[2:])
    value, unit = decode_pid(expected, data)
    return ObdResponse(pid_id=expected, data=data, value=value, unit=unit, received_at=received_at)


# The address and query frame of each core PID, the frame exactly as
# ``encode_request`` renders it, and the reverse lookup ``parse_request`` uses.
CORE_REQUESTS = {pid: (PidId(pid), encode_request(PidId(pid))) for pid in CORE_PIDS}
_CANONICAL_REQUESTS = {frame: pid_id for pid_id, frame in CORE_REQUESTS.values()}


def decode_pid(pid_id: PidId, data: bytes) -> tuple[float, str]:
    """Convert payload bytes to an engineering value and unit."""
    definition = PID_TABLE.get(pid_id.pid)
    if definition is None:
        return float(int.from_bytes(data, "big")), "raw"
    if len(data) != definition.data_length:
        raise WrongLengthError(
            f"PID 0x{pid_id.pid:02X} expects {definition.data_length} data byte(s), got {len(data)}"
        )
    value = definition.decode(data)
    if not definition.min_value <= value <= definition.max_value:
        raise RangeViolationError(
            f"PID 0x{pid_id.pid:02X} value {value} outside [{definition.min_value}, {definition.max_value}]"
        )
    return value, definition.unit


def encode_measurement(pid: int, value: float) -> bytes:
    """Payload bytes that decode back to ``value`` (responder side)."""
    definition = PID_TABLE.get(pid)
    if definition is None:
        raise WrongLengthError(f"no payload definition for PID 0x{pid:02X}")
    return definition.encode(value)
