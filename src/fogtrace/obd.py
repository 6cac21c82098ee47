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
``raw`` so the table stays extensible.

Frames and payloads are ``bytes``. Each frame function has one
implementation, and only ``_tokenize`` turns a frame's bytes into values.
The codec is pure, so a repeated frame is a lookup: ``render_response``,
``parse_request`` and ``parse_response`` each memoize that one
implementation in a ``functools.lru_cache`` of at most
``CODEC_CACHE_SIZE`` entries, whatever a peer sends. A reply is keyed by
its bytes and the expected mode and PID, so a mismatched echo is never
served from another PID's entry. Its entry is the whole ``ObdResponse``,
which is immutable, so every parse of a repeated reply hands back that one
object and allocates none. A buffer that is not hashable, such as a
``bytearray``, raises ``TypeError``. Errors are never cached: a ``7F``,
malformed or out-of-range frame raises on every call.

The responder's payload joins them: ``encode_measurement`` is memoized on
``(pid, value)`` in the same bound, since the simulator's readings repeat
as its ticks do: an hour's trip polls 936 distinct pairs on the aggressive
profile and 752 on the calm one, in about 32,800 readings. The key is
untyped, which is sound: ``0.0`` and ``-0.0``, like ``1`` and ``1.0``,
encode to the same bytes. A value that cannot be encoded, such as NaN,
raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

MODE_CURRENT_DATA = 0x01
REPLY_MODE_OFFSET = 0x40
NEGATIVE_REPLY_MODE = 0x7F

NRC_SERVICE_NOT_SUPPORTED = 0x11
NRC_SUBFUNCTION_NOT_SUPPORTED = 0x12

PID_RPM = 0x0C
PID_SPEED = 0x0D
PID_THROTTLE = 0x11

# Entries in each codec memo. A polled trip repeats a few hundred distinct
# replies, since speed and throttle are one byte each.
CODEC_CACHE_SIZE = 4096


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
    channel: str
    unit: str
    data_length: int
    decode: Callable[[bytes], float]
    encode: Callable[[float], bytes]
    min_value: float
    max_value: float


# The clamps are written out rather than a helper's call: the reply path
# encodes once per exchange.
def _encode_rpm(value: float) -> bytes:
    value = 0.0 if value < 0.0 else 16383.75 if value > 16383.75 else value
    return round(value * 4).to_bytes(2, "big")


def _encode_byte(value: float) -> bytes:
    return bytes((round(0 if value < 0 else 255 if value > 255 else value),))


def _encode_throttle(value: float) -> bytes:
    value = 0.0 if value < 0.0 else 100.0 if value > 100.0 else value
    return bytes((round(value * 255 / 100),))


PID_TABLE: dict[int, PidDefinition] = {
    PID_RPM: PidDefinition(
        channel="rpm",
        unit="rpm",
        data_length=2,
        decode=lambda d: (256 * d[0] + d[1]) / 4.0,
        encode=_encode_rpm,
        min_value=0.0,
        max_value=16383.75,
    ),
    PID_SPEED: PidDefinition(
        channel="speed_kmh",
        unit="km/h",
        data_length=1,
        decode=lambda d: float(d[0]),
        encode=_encode_byte,
        min_value=0.0,
        max_value=255.0,
    ),
    PID_THROTTLE: PidDefinition(
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


class ObdResponse(NamedTuple):
    pid_id: PidId
    data: bytes
    value: float
    unit: str


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
    return _render(pid_id.mode, pid_id.pid, data)


@lru_cache(maxsize=CODEC_CACHE_SIZE)
def _render(mode: int, pid: int, data: bytes) -> bytes:
    frame = bytes((mode + REPLY_MODE_OFFSET, pid)) + data
    return (frame.hex(" ").upper() + "\r").encode("ascii")


def render_negative_response(mode: int, nrc: int = NRC_SUBFUNCTION_NOT_SUPPORTED) -> bytes:
    return f"{NEGATIVE_REPLY_MODE:02X} {mode:02X} {nrc:02X}\r".encode("ascii")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _tokenize(line: bytes) -> list[int]:
    """The byte values of a frame."""
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
    return _parse_request(line)


@lru_cache(maxsize=CODEC_CACHE_SIZE)
def _parse_request(line: bytes) -> PidId:
    values = _tokenize(line)
    if len(values) != 2:
        raise MalformedFrameError(f"request must be exactly two bytes, got {len(values)}")
    mode, pid = values
    if mode != MODE_CURRENT_DATA:
        raise UnsupportedModeError(f"unsupported mode 0x{mode:02X}", mode)
    return PidId(pid=pid, mode=mode)


def parse_response(line: bytes, expected: PidId) -> ObdResponse:
    """Parse a reply frame, verifying the mode and PID echoes.

    Raises :class:`NegativeResponseError` for ``7F`` frames,
    :class:`PidMismatchError` when the echoed PID differs from ``expected``
    and :class:`MalformedFrameError` for anything that is not a frame.
    """
    return _parse_reply(line, expected.mode, expected.pid)


@lru_cache(maxsize=CODEC_CACHE_SIZE)
def _parse_reply(line: bytes, mode: int, pid: int) -> ObdResponse:
    """The response a positive reply to ``mode`` and ``pid`` carries."""
    values = _tokenize(line)
    if values[0] == NEGATIVE_REPLY_MODE:
        if len(values) != 3:
            raise MalformedFrameError("negative response must carry service and NRC bytes")
        raise NegativeResponseError(service=values[1], nrc=values[2])
    if len(values) < 2:
        raise MalformedFrameError("reply too short")
    if values[0] != mode + REPLY_MODE_OFFSET:
        raise MalformedFrameError(f"mode echo 0x{values[0]:02X} does not match request mode 0x{mode:02X}")
    if values[1] != pid:
        raise PidMismatchError(f"expected PID 0x{pid:02X}, reply echoed 0x{values[1]:02X}")
    pid_id = PidId(pid, mode)
    data = bytes(values[2:])
    return ObdResponse(pid_id, data, *decode_pid(pid_id, data))


# The address and query frame of each core PID, the frame exactly as
# ``encode_request`` renders it, so a poller need not render it again.
CORE_REQUESTS = {pid: (PidId(pid), encode_request(PidId(pid))) for pid in CORE_PIDS}


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


@lru_cache(maxsize=CODEC_CACHE_SIZE)
def encode_measurement(pid: int, value: float) -> bytes:
    """Payload bytes that decode back to ``value`` (responder side)."""
    definition = PID_TABLE.get(pid)
    if definition is None:
        raise WrongLengthError(f"no payload definition for PID 0x{pid:02X}")
    return definition.encode(value)
