"""The codec's memos against the reference codec.

``render_response``, ``parse_request`` and ``parse_response`` look a
repeated frame up in an ``lru_cache`` of at most ``CODEC_CACHE_SIZE``
entries in front of their one implementation. These tests pin a cached
answer to the uncached one: the same value for a repeat, the expected PID
in the key, errors raised on every call and never stored, and a bound
that holds whatever arrives.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fogtrace.obd import (
    CODEC_CACHE_SIZE,
    CORE_PIDS,
    MODE_CURRENT_DATA,
    MalformedFrameError,
    NegativeResponseError,
    PidId,
    PidMismatchError,
    UnsupportedModeError,
    WrongLengthError,
    _parse_reply,
    _parse_request,
    _render,
    parse_request,
    parse_response,
    render_response,
)
from test_obd_codec_equivalence import _ANY_LINE, _ref_parse_response, _ref_render_response, outcome

_EXPECTED = st.one_of(
    st.sampled_from(CORE_PIDS).map(PidId),
    st.builds(PidId, pid=st.integers(0, 255), mode=st.sampled_from([MODE_CURRENT_DATA, 0x02])),
)
_REPLIES = st.one_of(
    st.builds(lambda pid, data: render_response(PidId(pid), data), st.sampled_from(CORE_PIDS), st.binary(max_size=3)),
    _ANY_LINE,
)


@settings(max_examples=400, deadline=None)
@given(_REPLIES, _EXPECTED, _EXPECTED)
@example(b"41 0C 1A F0\r", PidId(0x0C), PidId(0x0D))
@example(b"41 0D 3C\r", PidId(0x0D), PidId(0x0D, mode=0x02))
def test_a_repeated_frame_parses_as_the_reference(line, expected, other):
    assume(other != expected)
    # Cold or warm, and against another PID in between, each answer is the reference's.
    for pid_id in (expected, other, expected, other):
        assert outcome(parse_response, line, pid_id) == outcome(_ref_parse_response, line, pid_id)


@pytest.mark.parametrize(
    "line,expected,error",
    [
        (b"7F 01 12\r", PidId(0x0C), NegativeResponseError),
        (b"41 0C 1A G0\r", PidId(0x0C), MalformedFrameError),
        (b"41 0C 1A\r", PidId(0x0C), WrongLengthError),  # core payload of the wrong size
        (b"41 0D 3C 00\r", PidId(0x0D), WrongLengthError),
        (b"41 0C 1A F0\r", PidId(0x0D), PidMismatchError),  # cached for 0x0C, not for 0x0D
    ],
)
def test_an_error_is_raised_on_every_repeat(line, expected, error):
    parse_response(b"41 0C 1A F0\r", PidId(0x0C))
    for _ in range(3):
        with pytest.raises(error):
            parse_response(line, expected)


@pytest.mark.parametrize(
    "variant,canonical,pid",
    [
        (b"41 0C 1a f0\r", b"41 0C 1A F0\r", 0x0C),
        (b"41 0c 1A F0\r", b"41 0C 1A F0\r", 0x0C),
        (b"41 0C 1A F0\r>", b"41 0C 1A F0\r", 0x0C),
        (b"41 0d 3c\r>>", b"41 0D 3C\r", 0x0D),
        (b"41 11 ff\r>", b"41 11 FF\r", 0x11),
    ],
)
def test_a_lower_case_or_prompted_reply_parses_as_its_canonical_form(variant, canonical, pid):
    for _ in range(2):
        assert parse_response(variant, PidId(pid)) == parse_response(canonical, PidId(pid))


def test_no_error_enters_a_memo():
    _parse_reply.cache_clear()
    _parse_request.cache_clear()
    for _ in range(2):
        for line, error in ((b"7F 01 12\r", NegativeResponseError), (b"41 0C 1A\r", WrongLengthError)):
            with pytest.raises(error):
                parse_response(line, PidId(0x0C))
        for line, error in ((b"03 00\r", UnsupportedModeError), (b"01 0C 0D\r", MalformedFrameError)):
            with pytest.raises(error):
                parse_request(line)
    assert _parse_reply.cache_info().currsize == _parse_request.cache_info().currsize == 0


def test_the_memos_hold_at_most_the_bound():
    for n in range(CODEC_CACHE_SIZE + 100):
        data = n.to_bytes(2, "big")
        assert parse_response(render_response(PidId(0x99), data), PidId(0x99)).data == data
        # Every trailing prompt count is another valid frame, so another key.
        assert parse_request(b"01 %02X\r" % (n % 256) + b">" * (n // 256)) == PidId(n % 256)
        assert render_response(PidId(0x0C), data) == _ref_render_response(PidId(0x0C), data)
    assert _parse_reply.cache_info().currsize == CODEC_CACHE_SIZE
    assert _parse_request.cache_info().currsize == CODEC_CACHE_SIZE
    assert _render.cache_info().currsize == CODEC_CACHE_SIZE
