from __future__ import annotations

import dataclasses
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrace.clock import SimulatedClock
from fogtrace.obd import PID_RPM, PID_SPEED, PID_THROTTLE, NegativeResponseError, PidId, encode_request
from fogtrace.vehicle import (
    AGGRESSIVE_PROFILE,
    CALM_PROFILE,
    GEAR_SHIFT_KMH,
    IDLE_RPM,
    MAX_RPM,
    DriveProfile,
    InProcessObdLink,
    LatencyModel,
    Route,
    ThrottleParams,
    VehicleSimulator,
    VehicleState,
    gear_for_speed,
    step,
)


class TestStep:
    def test_idle_fixed_point(self):
        profile = DriveProfile("stopped", ((60.0, 0.0),), 1.5)
        state = VehicleState()
        for _ in range(50):
            state = step(state, profile, 100.0)
        assert state.speed_kmh == 0.0
        assert state.rpm == 800.0
        assert state.throttle_pct == 0.0
        assert state.gear == 1

    def test_rpm_rule_at_60_in_third(self):
        # 800 + 60 * 120 / 3
        assert gear_for_speed(60.0) == 4  # 60 is the upshift boundary into 4th
        assert gear_for_speed(59.9) == 3
        profile = DriveProfile("cruise", ((600.0, 59.9),), 2.0)
        state = VehicleState()
        for _ in range(600):
            state = step(state, profile, 100.0)
        assert state.gear == 3
        assert state.rpm == pytest.approx(800 + state.speed_kmh * 120 / 3, abs=1e-6)

    def test_ramp_to_target_within_closed_form_time(self):
        # 50 km/h at 2 m/s^2 -> ceil((50 / 3.6) / 2) = 7 s
        profile = DriveProfile("ramp", ((60.0, 50.0),), 2.0)
        state = VehicleState()
        for _ in range(70):
            state = step(state, profile, 100.0)
        assert abs(state.speed_kmh - 50.0) <= 0.5

    def test_gear_shift_table(self):
        assert [gear_for_speed(v) for v in (0, 19.9, 20, 39.9, 40, 59.9, 60, 89.9, 90, 200)] == [
            1, 1, 2, 2, 3, 3, 4, 4, 5, 5,
        ]

    def test_rpm_clamped_to_redline(self):
        profile = DriveProfile("flatout", ((600.0, 255.0),), 10.0)
        state = VehicleState()
        for _ in range(600):
            state = step(state, profile, 100.0)
        assert state.rpm <= 6500.0

    def test_speed_zero_implies_idle(self):
        profile = DriveProfile("brake", ((10.0, 80.0), (60.0, 0.0)), 5.0)
        state = VehicleState()
        for _ in range(400):
            state = step(state, profile, 100.0)
        assert state.speed_kmh == 0.0
        assert state.gear == 1
        assert state.rpm == 800.0

    def test_position_consistent_with_odometer(self):
        profile = CALM_PROFILE
        state = VehicleState()
        route = Route(profile.route)
        for _ in range(3000):
            state = step(state, profile, 100.0)
        lat, lon = route.point_at(state.odometer_m)
        assert (state.lat, state.lon) == pytest.approx((lat, lon))


def tick_log(profile: DriveProfile, duration_s: float, seed: int = 0) -> list[VehicleState]:
    """Every state a fresh simulator steps through in ``duration_s``."""
    sim = VehicleSimulator(profile=profile, seed=seed)
    log = []
    while sim.snapshot().sim_time_ms + sim.tick_ms <= duration_s * 1000.0:
        log.append(sim.step_once())
    return log


class TestRunTrip:
    """A trip ticked through ``VehicleSimulator.step_once``."""

    def test_calm_300s_reading_count_and_accel_bound(self):
        log = tick_log(CALM_PROFILE, 300.0)
        assert len(log) == 3000
        max_step = CALM_PROFILE.accel_limit_mps2 * 0.1 * 3.6
        for first, second in zip(log, log[1:]):
            assert abs(second.speed_kmh - first.speed_kmh) <= max_step + 1e-9

    def test_deterministic_for_seed(self):
        assert tick_log(AGGRESSIVE_PROFILE, 120.0, seed=3) == tick_log(AGGRESSIVE_PROFILE, 120.0, seed=3)

    def test_odometer_nondecreasing(self):
        sim = VehicleSimulator(profile=AGGRESSIVE_PROFILE)
        last = 0.0
        for _ in range(2000):
            state = sim.step_once()
            assert state.odometer_m >= last
            last = state.odometer_m


class TestLatencyModel:
    def test_support_bounds_and_mean(self):
        model = LatencyModel(seed=11)
        samples = [model.sample() for _ in range(10_000)]
        assert min(samples) >= 50.0
        assert max(samples) <= 200.0
        assert 107.0 <= statistics.fmean(samples) <= 113.0

    def test_fixed_model(self):
        model = LatencyModel.fixed(100.0)
        assert {model.sample() for _ in range(10)} == {100.0}
        assert model.mean_ms == 100.0

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(min_ms=100, mode_ms=50, max_ms=200)


class TestHandleRequest:
    def test_reply_reflects_state_and_delay_bounds(self):
        clock = SimulatedClock()
        profile = DriveProfile("cruise", ((600.0, 60.0),), 2.0)
        sim = VehicleSimulator(profile=profile, latency=LatencyModel(seed=5), start_ms=clock.now_ms())
        link = InProcessObdLink(sim, clock)
        # Drive up to steady state first.
        sim.advance_to(clock.now_ms())
        clock.sleep_ms(60_000)
        t0 = clock.now_ms()
        resp = link.request(PID_SPEED)
        delay = clock.now_ms() - t0
        assert 50.0 <= delay <= 200.0
        assert resp.value == 60.0  # encoded to the byte grid at steady state

    def test_measurement_reads_the_pid_channel(self):
        sim = VehicleSimulator(profile=AGGRESSIVE_PROFILE)
        sim.advance_to(30_000.0)
        state = sim.snapshot()
        assert sim.measurement(PID_RPM) == state.rpm
        assert sim.measurement(PID_SPEED) == state.speed_kmh
        assert sim.measurement(PID_THROTTLE) == state.throttle_pct
        with pytest.raises(KeyError):
            sim.measurement(0x99)

    def test_unsupported_pid_negative_response(self):
        clock = SimulatedClock()
        sim = VehicleSimulator(start_ms=clock.now_ms())
        link = InProcessObdLink(sim, clock)
        with pytest.raises(NegativeResponseError):
            link.request(0x99)

    @pytest.mark.parametrize(
        "request_frame,reply",
        [(b"09 02\r", b"7F 09 11\r"), (b"0a 0c\r>", b"7F 0A 11\r"), (b"+3 0C\r", b"7F 00 11\r")],
    )
    def test_unsupported_mode_is_echoed_in_the_negative_reply(self, request_frame, reply):
        assert VehicleSimulator().reply_frame(request_frame) == reply

    def test_replies_fifo_round_robin(self):
        clock = SimulatedClock()
        sim = VehicleSimulator(start_ms=clock.now_ms())
        link = InProcessObdLink(sim, clock)
        pids = [PID_RPM, PID_SPEED, PID_RPM, PID_SPEED]
        responses = [link.request(p) for p in pids]
        assert [r.pid_id.pid for r in responses] == pids
        assert [r.received_at for r in responses] == sorted(r.received_at for r in responses)

    def test_mean_reply_delay_matches_published_envelope(self):
        clock = SimulatedClock()
        sim = VehicleSimulator(latency=LatencyModel(seed=2), start_ms=clock.now_ms())
        link = InProcessObdLink(sim, clock)
        delays = []
        for _ in range(10_000):
            t0 = clock.now_ms()
            link.request(PID_SPEED)
            delays.append(clock.now_ms() - t0)
        assert 107.0 <= statistics.fmean(delays) <= 113.0

    def test_raw_frame_transact(self):
        clock = SimulatedClock()
        sim = VehicleSimulator(start_ms=clock.now_ms())
        link = InProcessObdLink(sim, clock)
        reply = link.transact(encode_request(PidId(PID_SPEED)))
        assert reply.startswith(b"41 0D ")
        assert reply.endswith(b"\r")

    def test_closed_link_raises(self):
        clock = SimulatedClock()
        sim = VehicleSimulator(start_ms=clock.now_ms())
        link = InProcessObdLink(sim, clock)
        link.close()
        with pytest.raises(ConnectionError):
            link.request(PID_SPEED)


class TestProfileValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            DriveProfile("bad", ((0.0, 10.0),), 1.0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            DriveProfile("bad", ((10.0, 300.0),), 1.0)

    def test_profile_cycles(self):
        profile = DriveProfile("two", ((10.0, 20.0), (10.0, 40.0)), 1.0)
        assert profile.target_speed_at(5.0) == 20.0
        assert profile.target_speed_at(15.0) == 40.0
        assert profile.target_speed_at(25.0) == 20.0  # wraps


# Reference versions of the per-tick lookups and the tick itself, written
# as linear walks and builtin clamps; the simulator's bisect lookups and
# inlined clamps must give bit-identical results.


def _walk_target(profile: DriveProfile, elapsed_s: float) -> float:
    t = elapsed_s % sum(duration for duration, _ in profile.segments)
    for duration, target in profile.segments:
        if t < duration:
            return target
        t -= duration
    return profile.segments[-1][1]


def _walk_point(route: Route, distance_m: float) -> tuple[float, float]:
    cum = route._cum
    if cum[-1] <= 0:
        return route.points[0]
    d = distance_m % cum[-1]
    for i in range(1, len(cum)):
        if d <= cum[i]:
            seg = cum[i] - cum[i - 1]
            frac = 0.0 if seg == 0 else (d - cum[i - 1]) / seg
            (lat1, lon1), (lat2, lon2) = route.points[i - 1], route.points[i]
            return (lat1 + (lat2 - lat1) * frac, lon1 + (lon2 - lon1) * frac)
    return route.points[-1]


def _reference_step(
    state: VehicleState, profile: DriveProfile, dt_ms: float, params: ThrottleParams
) -> VehicleState:
    dt_s = dt_ms / 1000.0
    target = _walk_target(profile, state.elapsed_ms / 1000.0)
    max_delta_kmh = profile.accel_limit_mps2 * dt_s * 3.6
    delta = min(max(target - state.speed_kmh, -max_delta_kmh), max_delta_kmh)
    speed = max(0.0, state.speed_kmh + delta)
    accel_mps2 = (speed - state.speed_kmh) / 3.6 / dt_s
    throttle = min(max(params.k_accel * accel_mps2 + params.k_drag * speed, 0.0), 100.0)
    gear = 1 + sum(1 for threshold in GEAR_SHIFT_KMH if speed >= threshold)
    rpm = min(max(IDLE_RPM + speed * 120.0 / gear, IDLE_RPM), MAX_RPM)
    odometer = state.odometer_m + (state.speed_kmh + speed) / 2.0 / 3.6 * dt_s
    lat, lon = _walk_point(Route(profile.route), odometer)
    return dataclasses.replace(
        state,
        speed_kmh=speed,
        rpm=rpm,
        throttle_pct=throttle,
        gear=gear,
        odometer_m=odometer,
        lat=lat,
        lon=lon,
        sim_time_ms=state.sim_time_ms + dt_ms,
        elapsed_ms=state.elapsed_ms + dt_ms,
    )


_SEGMENTS = st.lists(st.tuples(st.integers(1, 120), st.integers(0, 255)), min_size=1, max_size=8)
_POINTS = st.lists(
    st.tuples(st.floats(52.4, 52.6), st.floats(13.3, 13.5)), min_size=1, max_size=8
).map(tuple)


class TestLookupsMatchLinearWalk:
    @settings(max_examples=200, deadline=None)
    @given(_SEGMENTS, st.floats(0, 1e6))
    def test_target_speed(self, segments, elapsed_s):
        profile = DriveProfile("p", tuple(segments), 2.0)
        assert profile.target_speed_at(elapsed_s) == _walk_target(profile, elapsed_s)
        boundary = float(sum(d for d, _ in segments[:-1]))
        assert profile.target_speed_at(boundary) == _walk_target(profile, boundary)

    @settings(max_examples=200, deadline=None)
    @given(_POINTS, st.floats(0, 1e6))
    def test_route_point(self, points, distance_m):
        route = Route(points)
        assert route.point_at(distance_m) == _walk_point(route, distance_m)
        for cum in route._cum:
            assert route.point_at(cum) == _walk_point(route, cum)

    @settings(max_examples=30, deadline=None)
    @given(
        _SEGMENTS,
        st.floats(0.5, 5.0),
        st.sampled_from([50.0, 100.0, 250.0]),
        st.floats(0.0, 40.0),
        st.floats(0.0, 2.0),
    )
    def test_step(self, segments, accel_limit, tick_ms, k_accel, k_drag):
        profile = DriveProfile("p", tuple(segments), accel_limit)
        params = ThrottleParams(k_accel=k_accel, k_drag=k_drag)
        state = expected = VehicleState()
        for _ in range(300):
            state = step(state, profile, tick_ms, params)
            expected = _reference_step(expected, profile, tick_ms, params)
            assert state == expected
