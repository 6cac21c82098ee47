"""The responder's and the reader's memoized paths against the general path.

``VehicleSimulator._reply`` reads a request through ``parse_request``
and ``parse_response`` reads a reply through its own memo, so a repeated
frame is a lookup. These tests pin both to the code the memos cache, run
uncached, on arbitrary input and on the edges where a frame stops being
canonical.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogtrace.obd import (
    CORE_PIDS,
    CORE_REQUESTS,
    NRC_SERVICE_NOT_SUPPORTED,
    NRC_SUBFUNCTION_NOT_SUPPORTED,
    PID_TABLE,
    MalformedFrameError,
    PidId,
    UnsupportedModeError,
    _parse_request,
    encode_measurement,
    encode_request,
    parse_response,
    render_negative_response,
    render_response,
)
from fogtrace.vehicle import VehicleSimulator, VehicleState
from test_obd_codec_equivalence import _ANY_LINE, _ref_parse_response, outcome


def _general_reply(state: VehicleState, raw_request: bytes) -> bytes:
    """The responder with no memo: parse, refuse or read, encode, render."""
    try:
        pid_id = _parse_request.__wrapped__(raw_request)
    except UnsupportedModeError as exc:
        return render_negative_response(exc.mode, NRC_SERVICE_NOT_SUPPORTED)
    except MalformedFrameError:
        return render_negative_response(0x00, NRC_SERVICE_NOT_SUPPORTED)
    if pid_id.pid not in CORE_PIDS:
        return render_negative_response(pid_id.mode, NRC_SUBFUNCTION_NOT_SUPPORTED)
    value = getattr(state, PID_TABLE[pid_id.pid].channel)
    return render_response(pid_id, encode_measurement(pid_id.pid, value))


_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(-10.0, 20_000.0))
_STATES = st.builds(VehicleState, speed_kmh=_VALUES, rpm=_VALUES, throttle_pct=_VALUES)
_REQUESTS = st.one_of(
    st.sampled_from([frame for _, frame in CORE_REQUESTS.values()]),
    st.integers(0, 255).map(lambda pid: encode_request(PidId(pid))),
    _ANY_LINE,
)


@settings(max_examples=300, deadline=None)
@given(_STATES, _REQUESTS)
@example(VehicleState(rpm=16383.75), b"01 0C\r")
@example(VehicleState(speed_kmh=300.0), b"01 0d\r")
@example(VehicleState(throttle_pct=-1.0), b"01 11\r>")
@example(VehicleState(), b"01 0C \r")
@example(VehicleState(), b"01 05\r")
def test_reply_frame_matches_the_general_path(state, raw_request):
    simulator = VehicleSimulator()
    simulator._state = state
    assert outcome(simulator._reply, simulator.snapshot(), raw_request) == outcome(_general_reply, state, raw_request)


@pytest.mark.parametrize(
    "line,expected",
    [
        (b"41 0C 1A F0\r", PidId(0x0C)),  # canonical
        (b"41 0D 3C\r", PidId(0x0D)),
        (b"41 11 FF\r", PidId(0x11)),
        (b"41 0C 1a f0\r", PidId(0x0C)),  # lowercase payload
        (b"41 0c 1A F0\r", PidId(0x0C)),  # lowercase echo
        (b"41 0C 1A F0\r>", PidId(0x0C)),  # trailing prompt
        (b"41 0C 1A F0\r>>", PidId(0x0C)),
        (b"41 0D 1A F0\r", PidId(0x0C)),  # echo of another core PID
        (b"41 0C 1A F0\r", PidId(0x0D)),
        (b"41 0C 1A\r", PidId(0x0C)),  # payload one byte short
        (b"41 0C 1A F0 00\r", PidId(0x0C)),  # one byte long
        (b"41 0D\r", PidId(0x0D)),  # no payload
        (b"41 0D \r", PidId(0x0D)),
        (b"41 0D  3C\r", PidId(0x0D)),  # double space
        (b"41 0D 3C", PidId(0x0D)),  # no CR
        (b"41 0D 3C\r\n", PidId(0x0D)),
        (b"41 0D +C\r", PidId(0x0D)),  # signed token
        (b"41 11 FF\r", PidId(0x11, mode=0x02)),  # core PID, other mode
        (b"42 0C 1A F0\r", PidId(0x0C, mode=0x02)),
        (b"7F 01 12\r", PidId(0x0C)),  # negative reply
        (b"7F 01\r", PidId(0x0C)),
        (b"41 05 7B\r", PidId(0x05)),  # PID outside the table
        (b"41 99 12 34\r", PidId(0x99)),
    ],
)
def test_parse_response_edges_match_reference(line, expected):
    assert outcome(parse_response, line, expected) == outcome(_ref_parse_response, line, expected)
