"""The simulator's tick and payload memos, and the plateau pipeline, against the code they replace.

``vehicle.step`` looks its arithmetic up in ``_kinematics`` and returns a
plain tuple, ``VehicleSimulator.advance_to`` steps and returns one,
``obd.encode_measurement`` is memoized on ``(pid, value)``,
``obd.parse_response`` hands back the response its memo holds, and
``bench._estimate_plateau`` runs as one pipeline of C iterators. Each is
pinned here, bit for bit, to the plain Python it replaced, on arbitrary
input and on the edges: a speed of ``-0.0``, the clamps, NaN, a latency
that is negative or NaN, and every way a reply frame can be wrong.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogtrace import obd
from fogtrace.bench import _estimate_plateau
from fogtrace.obd import CORE_PIDS, PID_TABLE, PidId, WrongLengthError, encode_measurement, parse_response
from fogtrace.vehicle import (
    GEAR_SHIFT_KMH,
    IDLE_RPM,
    K_ACCEL,
    K_DRAG,
    MAX_RPM,
    PROFILES,
    DriveProfile,
    VehicleSimulator,
    VehicleState,
    _kinematics,
    step,
)
from test_obd_codec_equivalence import outcome


def _reference_step(state: VehicleState, profile: DriveProfile, dt_ms: float) -> VehicleState:
    """``step`` as it was before its arithmetic was memoized, line for line."""
    if dt_ms <= 0:
        raise ValueError("dt must be positive")
    dt_s = dt_ms / 1000.0

    previous = state.speed_kmh
    elapsed = state.elapsed_ms
    target = profile.target_speed_at(elapsed / 1000.0)
    max_delta_kmh = profile.accel_limit_mps2 * dt_s * 3.6
    delta = target - previous
    delta = -max_delta_kmh if -max_delta_kmh > delta else delta
    delta = max_delta_kmh if max_delta_kmh < delta else delta
    speed = previous + delta
    speed = speed if speed > 0.0 else 0.0

    accel_mps2 = (speed - previous) / 3.6 / dt_s
    throttle = K_ACCEL * accel_mps2 + K_DRAG * speed
    throttle = 0.0 if 0.0 > throttle else throttle
    throttle = 100.0 if 100.0 < throttle else throttle
    gear = 1 + bisect_right(GEAR_SHIFT_KMH, speed)
    rpm = IDLE_RPM + speed * 120.0 / gear
    rpm = IDLE_RPM if IDLE_RPM > rpm else rpm
    rpm = MAX_RPM if MAX_RPM < rpm else rpm

    odometer = state.odometer_m + (previous + speed) / 2.0 / 3.6 * dt_s
    return tuple.__new__(
        VehicleState, (speed, rpm, throttle, gear, odometer, state.sim_time_ms + dt_ms, elapsed + dt_ms)
    )


def _bits(state: VehicleState) -> tuple:
    """Each field exactly: a float by its hex form, anything else by its type and value."""
    return tuple(field.hex() if type(field) is float else (type(field), field) for field in state)


_TARGETS = sorted({float(target) for profile in PROFILES.values() for _, target in profile.segments})
_LIMITS = sorted(profile.accel_limit_mps2 for profile in PROFILES.values())
_SPEEDS = st.one_of(
    st.sampled_from([0.0, -0.0, *_TARGETS]),
    st.floats(0.0, 260.0),
    st.floats(-5.0, 0.0),
)
_DT_MS = st.one_of(st.sampled_from([1.0, 100.0, 250.0, 30_000.0]), st.floats(1.0, 30_000.0), st.integers(1, 30_000))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    speed=_SPEEDS,
    target=st.sampled_from(_TARGETS),
    limit=st.one_of(st.sampled_from(_LIMITS), st.floats(0.01, 20.0)),
    dt_ms=_DT_MS,
    odometer=st.floats(0.0, 1e7),
    elapsed=st.floats(0.0, 1e7),
)
@example(speed=0.0, target=0.0, limit=3.5, dt_ms=100.0, odometer=0.0, elapsed=0.0)
@example(speed=-0.0, target=0.0, limit=3.5, dt_ms=100.0, odometer=0.0, elapsed=0.0)
@example(speed=-0.0, target=130.0, limit=3.5, dt_ms=100.0, odometer=5.0, elapsed=0.0)
@example(speed=0.0, target=130.0, limit=3.5, dt_ms=100.0, odometer=5.0, elapsed=0.0)
def test_step_is_the_unmemoized_step_bit_for_bit(speed, target, limit, dt_ms, odometer, elapsed):
    profile = DriveProfile("drawn", ((60, target),), limit)
    state = VehicleState(speed_kmh=speed, odometer_m=odometer, sim_time_ms=elapsed, elapsed_ms=elapsed)
    expected = _bits(_reference_step(state, profile, dt_ms))
    # A named or a plain state, each twice: the second call may be served from
    # the entry the first one made. The next state is a plain tuple either way.
    for given_state in (state, state, tuple(state), tuple(state)):
        ticked = step(given_state, profile, dt_ms)
        assert type(ticked) is tuple
        assert _bits(ticked) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    profile=st.sampled_from(sorted(PROFILES.values(), key=lambda p: p.name)),
    tick_ms=st.sampled_from([50.0, 100.0, 250.0, 1000.0]),
    start_ms=st.sampled_from([0.0, 1_234.5, 1.7e12]),
    # Reply delays: repeats (no tick due), sub-tick steps and long gaps.
    delays=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 400.0), st.floats(400.0, 5_000.0)), max_size=40),
)
def test_advance_to_is_a_loop_of_the_unmemoized_step(profile, tick_ms, start_ms, delays):
    sim = VehicleSimulator(profile=profile, tick_ms=tick_ms, start_ms=start_ms)
    reference = VehicleState(sim_time_ms=start_ms)
    t_ms = start_ms
    for delay in delays:
        t_ms += delay
        while reference.sim_time_ms + tick_ms <= t_ms:
            reference = _reference_step(reference, profile, tick_ms)
        state = sim.advance_to(t_ms)
        assert type(state) is tuple
        assert _bits(state) == _bits(reference)
        assert sim.snapshot() == reference


@pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
@pytest.mark.parametrize("target", [0.0, 30.0])
def test_a_negative_zero_speed_is_served_the_entry_of_zero(first, second, target):
    _kinematics.cache_clear()
    profile = DriveProfile("drawn", ((60, target),), 1.5)
    for speed in (first, second):
        state = VehicleState(speed_kmh=speed)
        assert _bits(step(state, profile, 100.0)) == _bits(_reference_step(state, profile, 100.0))
    assert _kinematics.cache_info().hits == 1


def test_every_tick_of_a_profile_trip_is_the_unmemoized_tick():
    for profile in PROFILES.values():
        state = reference = VehicleState()
        for _ in range(3_000):
            state, reference = step(state, profile, 100.0), _reference_step(reference, profile, 100.0)
            assert _bits(state) == _bits(reference)


def test_a_tick_that_is_not_positive_raises_before_the_memo():
    before = _kinematics.cache_info()
    for dt_ms in (0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            step(VehicleState(), PROFILES["calm"], dt_ms)
    assert _kinematics.cache_info() == before


def _bounds(pid: int) -> list[float]:
    low, high = PID_TABLE[pid].min_value, PID_TABLE[pid].max_value
    return [low, high, low - 1.0, high + 1.0, math.nextafter(high, math.inf), -0.0, 0.0, math.inf, -math.inf]


_PAYLOAD_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.floats(-10.0, 20_000.0),
    st.integers(-300, 20_000),
    st.sampled_from(sorted({v for pid in CORE_PIDS for v in _bounds(pid)})),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(pid=st.sampled_from(CORE_PIDS), value=_PAYLOAD_VALUES)
def test_payload_is_the_unmemoized_payload(pid, value):
    expected = outcome(encode_measurement.__wrapped__, pid, value)
    for _ in range(2):
        assert outcome(encode_measurement, pid, value) == expected


@pytest.mark.parametrize("pid", CORE_PIDS)
def test_zeros_and_whole_numbers_share_an_entry_because_they_encode_alike(pid):
    for pair in ((0.0, -0.0), (1, 1.0), (255, 255.0)):
        assert len({encode_measurement.__wrapped__(pid, value) for value in pair}) == 1


@pytest.mark.parametrize("pid", CORE_PIDS)
def test_a_value_that_cannot_be_encoded_raises_on_every_call(pid):
    before = encode_measurement.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError):
            encode_measurement(pid, math.nan)
    after = encode_measurement.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses + 3, before.currsize)


def test_an_unknown_pid_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(WrongLengthError):
            encode_measurement(0x05, 1.0)


_REPLY_PIDS = st.one_of(st.sampled_from(CORE_PIDS), st.integers(0, 255))


def _hex(values: list[int]) -> str:
    return " ".join(f"{value:02X}" for value in values)


@st.composite
def _reply_frames(draw) -> tuple[bytes, PidId]:
    """A reply frame and the request it answers: valid or wrong in each way a peer gets it wrong."""
    expected = PidId(draw(_REPLY_PIDS))
    width = PID_TABLE[expected.pid].data_length if expected.pid in PID_TABLE else draw(st.integers(0, 4))
    data = draw(st.lists(st.integers(0, 255), min_size=width, max_size=width))
    reply = [expected.mode + 0x40, expected.pid, *data]
    kind = draw(st.sampled_from(["valid", "lowercase", "prompted", "negative", "wrong_pid", "malformed"]))
    if kind == "lowercase":
        text = _hex(reply).lower() + "\r"
    elif kind == "prompted":
        text = _hex(reply) + "\r" + ">" * draw(st.integers(1, 2))
    elif kind == "negative":
        text = _hex([0x7F, expected.mode, draw(st.sampled_from([0x11, 0x12, 0x31]))]) + "\r"
    elif kind == "wrong_pid":
        reply[1] = draw(st.integers(0, 255).filter(lambda pid: pid != expected.pid))
        text = _hex(reply) + "\r"
    elif kind == "malformed":
        text = draw(
            st.sampled_from(
                [_hex(reply), _hex(reply) + " +1\r", _hex(reply[:1]) + "\r", "\r", "7F 01\r", _hex(reply)[:-1] + "\r"]
            )
        )
    else:
        text = _hex(reply) + "\r"
    return text.encode("ascii"), expected


@settings(max_examples=400, deadline=None, derandomize=True)
@given(frame=_reply_frames())
def test_parse_response_is_a_fresh_parse_of_the_reply(frame):
    line, expected = frame
    fresh = outcome(obd._parse_reply.__wrapped__, line, expected.mode, expected.pid)
    first = outcome(parse_response, line, expected)
    # Twice: the second call may be served from the entry the first one made.
    assert first == outcome(parse_response, line, expected) == fresh
    if fresh[0] == "ok":
        assert first[1].pid_id == expected
        assert parse_response(line, expected) is first[1]
    else:
        # An error is never cached: each call parses the frame and raises again.
        before = obd._parse_reply.cache_info()
        for _ in range(2):
            assert outcome(parse_response, line, expected) == fresh
        after = obd._parse_reply.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses + 2, before.currsize)


def _reference_plateau(window_counts, latencies, window_ms) -> float | None:
    """``_estimate_plateau`` as a Python loop, as it was written before."""
    if not window_counts:
        return None
    elapsed = 0.0
    stable = []
    for count, latency in zip(window_counts, latencies):
        elapsed += latency
        if elapsed >= window_ms:
            stable.append(count)
    if not stable:
        return None
    return statistics.fmean(stable)


_LATENCIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-300.0, 300.0),
    st.sampled_from([0.0, -0.0, 50.0, 80.0, 200.0]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    replies=st.lists(st.tuples(st.integers(0, 600), _LATENCIES), max_size=60),
    window_ms=st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, 60_000.0, 300.0])),
)
@example(replies=[(1, 50.0), (2, -60.0), (3, 20.0)], window_ms=40.0)
@example(replies=[(1, 50.0), (2, math.nan), (3, 20.0)], window_ms=10.0)
@example(replies=[(1, -0.0), (2, -0.0)], window_ms=0.0)
@example(replies=[(1, math.inf), (2, -math.inf), (3, 1.0)], window_ms=1.0)
def test_plateau_is_the_loop_it_replaces(replies, window_ms):
    counts = [count for count, _ in replies]
    latencies = [latency for _, latency in replies]
    assert _estimate_plateau(counts, latencies, window_ms) == _reference_plateau(counts, latencies, window_ms)
