from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fogtrace.obd import (
    CORE_PIDS,
    PID_RPM,
    PID_SPEED,
    PID_TABLE,
    PID_THROTTLE,
    MalformedFrameError,
    NegativeResponseError,
    ObdError,
    PidId,
    PidMismatchError,
    UnsupportedModeError,
    WrongLengthError,
    decode_pid,
    encode_measurement,
    encode_request,
    parse_request,
    parse_response,
    render_negative_response,
    render_response,
)


class TestEncodeRequest:
    @pytest.mark.parametrize(
        "pid,expected",
        [(0x0C, b"01 0C\r"), (0x0D, b"01 0D\r"), (0x11, b"01 11\r")],
    )
    def test_core_pids(self, pid, expected):
        assert encode_request(PidId(pid)) == expected

    def test_unsupported_mode_rejected(self):
        with pytest.raises(UnsupportedModeError):
            encode_request(PidId(0x0C, mode=0x03))

    def test_pid_must_fit_one_byte(self):
        with pytest.raises(ValueError):
            PidId(0x100)


class TestParseResponse:
    def test_rpm_example(self):
        resp = parse_response(b"41 0C 1A F0\r", PidId(PID_RPM))
        assert resp.value == pytest.approx(1724.0)
        assert resp.unit == "rpm"
        assert resp.data == bytes([0x1A, 0xF0])

    def test_speed_example(self):
        resp = parse_response(b"41 0D 3C\r", PidId(PID_SPEED))
        assert resp.value == 60.0
        assert resp.unit == "km/h"

    def test_pid_mismatch(self):
        with pytest.raises(PidMismatchError):
            parse_response(b"41 0D 3C\r", PidId(PID_RPM))

    def test_trailing_prompt_tolerated(self):
        resp = parse_response(b"41 0D 3C\r>", PidId(PID_SPEED))
        assert resp.value == 60.0

    def test_missing_cr_rejected(self):
        with pytest.raises(MalformedFrameError):
            parse_response(b"41 0D 3C", PidId(PID_SPEED))

    def test_non_hex_rejected(self):
        with pytest.raises(MalformedFrameError):
            parse_response(b"41 0D ZZ\r", PidId(PID_SPEED))

    def test_wrong_mode_echo_rejected(self):
        with pytest.raises(MalformedFrameError):
            parse_response(b"42 0D 3C\r", PidId(PID_SPEED))

    def test_negative_response(self):
        with pytest.raises(NegativeResponseError) as exc:
            parse_response(b"7F 01 12\r", PidId(PID_SPEED))
        assert exc.value.service == 0x01
        assert exc.value.nrc == 0x12

    def test_wrong_data_length(self):
        with pytest.raises(WrongLengthError):
            parse_response(b"41 0D 3C 3C\r", PidId(PID_SPEED))

    def test_unknown_pid_decodes_raw(self):
        resp = parse_response(b"41 42 0A 0B\r", PidId(0x42))
        assert resp.unit == "raw"
        assert resp.value == float(0x0A0B)


class TestDecodePid:
    def test_zero_rpm(self):
        assert decode_pid(PidId(PID_RPM), bytes([0, 0])) == (0.0, "rpm")

    def test_throttle_saturation(self):
        value, unit = decode_pid(PidId(PID_THROTTLE), bytes([0xFF]))
        assert value == pytest.approx(100.0)
        assert unit == "percent"

    def test_rpm_hand_computed(self):
        # (256*26 + 240) / 4
        value, _ = decode_pid(PidId(PID_RPM), bytes([0x1A, 0xF0]))
        assert value == pytest.approx(1724.0)

    def test_wrong_length(self):
        with pytest.raises(WrongLengthError):
            decode_pid(PidId(PID_RPM), bytes([1]))

    def test_pure(self):
        data = bytes([0x12, 0x34])
        assert decode_pid(PidId(PID_RPM), data) == decode_pid(PidId(PID_RPM), data)


class TestExhaustiveProperties:
    def test_round_trip_two_byte_payloads(self):
        pid = PidId(PID_RPM)
        for a in range(256):
            for b in range(256):
                payload = bytes([a, b])
                resp = parse_response(render_response(pid, payload), pid)
                assert resp.data == payload

    @pytest.mark.parametrize("pid", [PID_SPEED, PID_THROTTLE])
    def test_round_trip_one_byte_payloads(self, pid):
        pid_id = PidId(pid)
        for a in range(256):
            payload = bytes([a])
            resp = parse_response(render_response(pid_id, payload), pid_id)
            assert resp.data == payload

    def test_rpm_strictly_increasing(self):
        previous = -1.0
        for word in range(65536):
            value, _ = decode_pid(PidId(PID_RPM), bytes([word >> 8, word & 0xFF]))
            assert value > previous
            previous = value

    @pytest.mark.parametrize("pid", [PID_SPEED, PID_THROTTLE])
    def test_single_byte_strictly_increasing(self, pid):
        previous = -1.0
        for a in range(256):
            value, _ = decode_pid(PidId(pid), bytes([a]))
            assert value > previous
            previous = value

    def test_throttle_bounded(self):
        for a in range(256):
            value, _ = decode_pid(PidId(PID_THROTTLE), bytes([a]))
            assert 0.0 <= value <= 100.0


class TestEncodeMeasurement:
    @pytest.mark.parametrize("pid", CORE_PIDS)
    def test_encode_decode_identity_on_grid(self, pid):
        definition = PID_TABLE[pid]
        # Values on the codec's representable grid survive the round trip.
        for raw in range(0, 256, 7):
            data = bytes([raw]) if definition.data_length == 1 else bytes([raw, 255 - raw])
            value = definition.decode(data)
            assert definition.encode(value) == data

    def test_out_of_range_clamped(self):
        assert encode_measurement(PID_SPEED, 400.0) == bytes([255])
        assert encode_measurement(PID_SPEED, -5.0) == bytes([0])


class TestParseRequest:
    def test_happy_path(self):
        assert parse_request(b"01 0C\r") == PidId(0x0C)

    def test_unsupported_mode(self):
        with pytest.raises(UnsupportedModeError) as caught:
            parse_request(b"03 00\r")
        assert caught.value.mode == 0x03

    def test_too_many_tokens(self):
        with pytest.raises(MalformedFrameError):
            parse_request(b"01 0C 0D\r")

    @pytest.mark.parametrize("frame", [b"01 +C\r", b"01 -1\r"])
    def test_signed_token_rejected(self, frame):
        with pytest.raises(MalformedFrameError):
            parse_request(frame)
        with pytest.raises(MalformedFrameError):
            parse_response(frame.replace(b"01", b"41", 1), PidId(0x0C))


@given(st.binary(min_size=0, max_size=24))
def test_parser_total_over_junk(blob):
    """Arbitrary bytes either parse or raise a typed codec error, never crash."""
    try:
        parse_response(blob, PidId(PID_SPEED))
    except ObdError:
        pass


def test_negative_frame_render():
    assert render_negative_response(0x01) == b"7F 01 12\r"
