"""The OBD codec against a reference copy of its straightforward version.

The ``_ref_*`` functions below are the codec as it was before its fast
paths were added: decode, strip the prompt, split, and convert every
token that is exactly two hex digits with ``int(tok, 16)``; a sign such as
``+C`` or ``-1`` is malformed. For arbitrary byte strings, every PID, every
mode byte and every payload, the codec in ``fogtrace.obd`` must accept the
same frames, return equal values and raise the same exception types.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogtrace.obd import (
    CORE_PIDS,
    MODE_CURRENT_DATA,
    NEGATIVE_REPLY_MODE,
    PID_TABLE,
    REPLY_MODE_OFFSET,
    MalformedFrameError,
    NegativeResponseError,
    ObdResponse,
    PidId,
    PidMismatchError,
    RangeViolationError,
    UnsupportedModeError,
    WrongLengthError,
    encode_measurement,
    encode_request,
    parse_request,
    parse_response,
    render_response,
)

# -- reference ------------------------------------------------------------------


def _ref_render_response(pid_id: PidId, data: bytes) -> bytes:
    tokens = [f"{pid_id.mode + REPLY_MODE_OFFSET:02X}", f"{pid_id.pid:02X}"]
    tokens.extend(f"{b:02X}" for b in data)
    return (" ".join(tokens) + "\r").encode("ascii")


def _ref_tokenize(line: bytes) -> list[int]:
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedFrameError("frame is not ASCII") from exc
    while text.endswith(">"):
        text = text[:-1]
    if not text.endswith("\r"):
        raise MalformedFrameError("frame not terminated by CR")
    tokens = text.strip().split()
    if not tokens:
        raise MalformedFrameError("empty frame")
    values = []
    for tok in tokens:
        if re.fullmatch("[0-9A-Fa-f]{2}", tok) is None:
            raise MalformedFrameError(f"token {tok!r} is not a hex byte pair")
        values.append(int(tok, 16))
    return values


def _ref_parse_request(line: bytes) -> PidId:
    values = _ref_tokenize(line)
    if len(values) != 2:
        raise MalformedFrameError(f"request must be exactly two bytes, got {len(values)}")
    mode, pid = values
    if mode != MODE_CURRENT_DATA:
        raise UnsupportedModeError(f"unsupported mode 0x{mode:02X}")
    return PidId(pid=pid, mode=mode)


def _ref_decode_pid(pid_id: PidId, data: bytes) -> tuple[float, str]:
    definition = PID_TABLE.get(pid_id.pid)
    if definition is None:
        return float(int.from_bytes(data, "big")), "raw"
    if len(data) != definition.data_length:
        raise WrongLengthError("length")
    value = definition.decode(data)
    if not definition.min_value <= value <= definition.max_value:
        raise RangeViolationError("range")
    return value, definition.unit


def _ref_parse_response(line: bytes, expected: PidId) -> ObdResponse:
    values = _ref_tokenize(line)
    if values[0] == NEGATIVE_REPLY_MODE:
        if len(values) != 3:
            raise MalformedFrameError("negative response must carry service and NRC bytes")
        raise NegativeResponseError(service=values[1], nrc=values[2])
    if len(values) < 2:
        raise MalformedFrameError("reply too short")
    if values[0] != expected.mode + REPLY_MODE_OFFSET:
        raise MalformedFrameError("mode echo")
    if values[1] != expected.pid:
        raise PidMismatchError("pid echo")
    data = bytes(values[2:])
    value, unit = _ref_decode_pid(expected, data)
    return ObdResponse(pid_id=expected, data=data, value=value, unit=unit)


# -- comparison -------------------------------------------------------------------


def outcome(fn, *args):
    """What a call did: its value, or the type (and NRC fields) of what it raised."""
    try:
        return ("ok", fn(*args))
    except NegativeResponseError as exc:
        return ("raised", NegativeResponseError, exc.service, exc.nrc)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc))


# Frames shaped like the real ones, with every way of getting one wrong:
# lower and upper case hex, signs, odd token lengths, stray whitespace,
# missing or doubled terminators, prompts and non-ASCII bytes.
_TOKEN = st.one_of(
    st.integers(0, 255).map(lambda b: f"{b:02X}"),
    st.integers(0, 255).map(lambda b: f"{b:02x}"),
    st.sampled_from(["+1", "-1", "+F", "-0", "1", "ABC", "G0", "0x", "__", "1_", "é"]),
)
_SEP = st.sampled_from([" ", " ", " ", "  ", "\t", "\x1c", "\x0b", "\r", "\n", ""])
_END = st.sampled_from(["\r", "\r", "\r>", "\r>>", "", ">", "\r\n", " \r", "\r >", "\n\r"])


@st.composite
def frames(draw) -> bytes:
    tokens = draw(st.lists(_TOKEN, max_size=6))
    text = draw(st.sampled_from(["", " ", "\n", ">"]))
    for i, token in enumerate(tokens):
        if i:
            text += draw(_SEP)
        text += token
    text += draw(_END)
    return text.encode("utf-8")


_ANY_LINE = st.one_of(frames(), st.binary(max_size=16))
_PID_IDS = st.builds(
    PidId, pid=st.integers(0, 255), mode=st.sampled_from([MODE_CURRENT_DATA, 0x02, 0x09, 0x3F])
)


@settings(max_examples=300, deadline=None)
@given(_ANY_LINE)
@example(b"01 0C\r")
@example(b"01 +C\r")
@example(b"01 -1\r")
@example(b"01 0c\r>")
@example(b"02 0C\r")
@example(b"01\x1c0D\r")
def test_parse_request_matches_reference(line):
    assert outcome(parse_request, line) == outcome(_ref_parse_request, line)


@settings(max_examples=300, deadline=None)
@given(_ANY_LINE, _PID_IDS)
@example(b"41 0C 1A F0\r", PidId(0x0C))
@example(b"41 0C 1a f0\r>", PidId(0x0C))
@example(b"7F 01 12\r", PidId(0x0C))
@example(b"7F 01\r", PidId(0x0C))
@example(b"41 0D -1\r", PidId(0x0D))
@example(b"41 0D FF\r", PidId(0x11))
@example(b"41\r", PidId(0x0C))
def test_parse_response_matches_reference(line, expected):
    assert outcome(parse_response, line, expected) == outcome(_ref_parse_response, line, expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 255), st.integers(0, 0xBF), st.binary(max_size=6))
def test_render_and_parse_match_reference_for_every_pid_and_payload(pid, mode, data):
    pid_id = PidId(pid=pid, mode=mode)
    frame = render_response(pid_id, data)
    assert frame == _ref_render_response(pid_id, data)
    assert outcome(parse_response, frame, pid_id, 1.0) == outcome(_ref_parse_response, frame, pid_id, 1.0)


@given(st.integers(0, 255), st.integers(0xC0, 0xFF), st.binary(max_size=2))
def test_reply_mode_beyond_one_byte_is_refused(pid, mode, data):
    # The reference rendered a three-digit mode token that no parser accepts.
    with pytest.raises(ValueError):
        render_response(PidId(pid=pid, mode=mode), data)


def test_every_pid_request_and_every_core_payload():
    """Every request frame, every one-byte payload and a spread of two-byte ones."""
    for pid in range(256):
        frame = encode_request(PidId(pid))
        assert outcome(parse_request, frame) == outcome(_ref_parse_request, frame)
    for pid in CORE_PIDS:
        width = PID_TABLE[pid].data_length
        space = 256**width
        for raw in sorted({*range(0, space, 1 if width == 1 else 61), 1, space - 2, space - 1}):
            data = raw.to_bytes(width, "big")
            frame = render_response(PidId(pid), data)
            assert frame == _ref_render_response(PidId(pid), data)
            assert outcome(parse_response, frame, PidId(pid), 2.0) == outcome(
                _ref_parse_response, frame, PidId(pid), 2.0
            )
        for value in (0.0, 0.4, 99.6, 254.5, 1e9, -3.0):
            data = encode_measurement(pid, value)
            assert outcome(parse_response, render_response(PidId(pid), data), PidId(pid)) == outcome(
                _ref_parse_response, _ref_render_response(PidId(pid), data), PidId(pid)
            )
