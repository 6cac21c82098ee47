from __future__ import annotations

import contextlib
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrace.clock import SimulatedClock
from fogtrace.external import (
    DAY_MS,
    HOUR_MS,
    FlowService,
    HttpFlowProvider,
    HttpWeatherProvider,
    InvalidCoordinatesError,
    LocalWeatherProvider,
    RateLimitedError,
    RateLimiter,
    ServiceUnavailableError,
    WeatherClient,
    WeatherService,
    travel_time_s,
)
from fogtrace.external_httpd import ContextStubServer
from fogtrace.httpclient import HttpSession

coords = st.tuples(
    st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
)


class TestFlowService:
    def test_deterministic_same_day(self):
        service = FlowService(seed=5)
        t = 1_700_000_000_000
        assert service.segment(52.52, 13.40, t) == service.segment(52.52, 13.40, t + 3600_000)

    def test_changes_across_days(self):
        service = FlowService(seed=5)
        t = 1_700_000_000_000
        assert service.segment(52.52, 13.40, t) != service.segment(52.52, 13.40, t + DAY_MS)

    def test_travel_time_formula(self):
        # 500 m at 50 km/h free flow
        assert travel_time_s(500.0, 50.0) == pytest.approx(36.0)

    def test_invalid_coordinates(self):
        with pytest.raises(InvalidCoordinatesError):
            FlowService().segment(91.0, 0.0, 0)

    @settings(max_examples=150, deadline=None)
    @given(coords, st.integers(min_value=0, max_value=4_000_000_000_000))
    def test_physical_invariants_hold_everywhere(self, latlon, now_ms):
        lat, lon = latlon
        segment = FlowService(seed=1).segment(lat, lon, now_ms)
        assert segment.current_speed_kmh <= segment.free_flow_speed_kmh
        assert 0.0 <= segment.confidence <= 1.0
        assert segment.free_flow_travel_time_s == pytest.approx(
            segment.segment_length_m / (segment.free_flow_speed_kmh / 3.6), abs=1.0
        )
        assert segment.current_travel_time_s == pytest.approx(
            segment.segment_length_m / (segment.current_speed_kmh / 3.6), abs=1.0
        )


class TestWeatherService:
    def test_deterministic_same_hour(self):
        service = WeatherService(seed=2)
        t = 1_700_003_600_000
        assert service.observation(52.52, 13.40, t) == service.observation(52.52, 13.40, t + 60_000)

    def test_changes_across_hours(self):
        service = WeatherService(seed=2)
        t = 1_700_003_600_000
        observed = {service.observation(52.52, 13.40, t + i * HOUR_MS).temp_c for i in range(24)}
        assert len(observed) > 1

    @settings(max_examples=150, deadline=None)
    @given(coords, st.integers(min_value=0, max_value=4_000_000_000_000))
    def test_precipitation_invariants(self, latlon, now_ms):
        lat, lon = latlon
        obs = WeatherService(seed=3).observation(lat, lon, now_ms)
        if obs.condition in ("rain", "snow"):
            assert obs.precipitation_mm_h > 0.0
        if obs.condition == "clear":
            assert obs.precipitation_mm_h == 0.0
        assert obs.wind_ms >= 0.0


class TestRateLimiter:
    def test_sixty_calls_in_window_all_permitted(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock=clock)
        for _ in range(60):
            assert limiter.try_acquire()
            clock.sleep_ms(999.0)

    def test_sixty_first_call_rejected(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock=clock)
        for _ in range(60):
            assert limiter.try_acquire()
        assert not limiter.try_acquire()

    def test_permit_frees_after_window(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock=clock)
        for _ in range(60):
            limiter.try_acquire()
        clock.sleep_ms(60_000.0 + 1)
        assert limiter.try_acquire()

    def test_exhaustive_sliding_window_under_stress(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock=clock)
        permits = []
        # 200 attempts per minute for three minutes.
        for _ in range(600):
            if limiter.try_acquire():
                permits.append(clock.now_ms())
            clock.sleep_ms(300.0)
        assert permits
        for i, start in enumerate(permits):
            inside = sum(1 for t in permits[i:] if t < start + 60_000.0)
            assert inside <= 60

    def test_thread_safety_single_window(self):
        clock = SimulatedClock()
        limiter = RateLimiter(clock=clock)
        granted = []
        lock = threading.Lock()

        def worker():
            for _ in range(30):
                if limiter.try_acquire():
                    with lock:
                        granted.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(granted) == 60


class TestClients:
    def test_rate_limited_raises_by_default(self):
        clock = SimulatedClock()
        client = WeatherClient(
            LocalWeatherProvider(WeatherService(1), clock),
            RateLimiter(clock=clock),
            clock,
        )
        for _ in range(60):
            client.get_current_weather(52.0, 13.0)
        with pytest.raises(RateLimitedError):
            client.get_current_weather(52.0, 13.0)

    def test_invalid_coordinates_from_client(self):
        clock = SimulatedClock()
        client = WeatherClient(LocalWeatherProvider(WeatherService(1), clock), None, clock)
        with pytest.raises(InvalidCoordinatesError):
            client.get_current_weather(91.0, 0.0)


class TestHttpStub:
    def test_flow_and_weather_round_trip(self):
        clock = SimulatedClock()
        with ContextStubServer(seed=4, clock=clock) as stub:
            flow = HttpFlowProvider(stub.base_url).fetch(52.52, 13.40)
            weather = HttpWeatherProvider(stub.base_url).fetch(52.52, 13.40)
            assert flow == FlowService(seed=4).segment(52.52, 13.40, clock.now_ms())
            assert weather == WeatherService(seed=4).observation(52.52, 13.40, clock.now_ms())

    def test_bad_coordinates_400(self):
        with ContextStubServer(seed=4) as stub:
            with contextlib.closing(HttpSession(stub.base_url, timeout_s=10)) as session:
                response = session.request("GET", "/flow", params={"lat": 95, "lon": 0})
            assert response.status == 400
            assert response.json()["error"] == "invalid-coordinates"
            with pytest.raises(InvalidCoordinatesError):
                HttpFlowProvider(stub.base_url).fetch(95.0, 0.0)

    def test_unknown_path_404(self):
        with ContextStubServer(seed=4) as stub:
            with contextlib.closing(HttpSession(stub.base_url, timeout_s=10)) as session:
                assert session.request("GET", "/nope", params={"lat": 1, "lon": 1}).status == 404

    def test_unreachable_service(self):
        provider = HttpWeatherProvider("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServiceUnavailableError):
            provider.fetch(52.0, 13.0)
