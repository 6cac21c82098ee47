"""Traffic-flow and weather context: clients, deterministic stubs, quota.

The real services are replaced by protocol-shaped stubs that derive every
response from quantized coordinates (0.001 degree grid), a time bucket
(day for traffic, hour for weather) and a seed, so repeated queries are
reproducible and the physical invariants hold by construction. Clients
enforce the free-tier quota of 60 calls per sliding minute on their own
side; a denied call raises ``RateLimitedError``.
"""

from __future__ import annotations

import hashlib
import random
import threading
from collections import deque
from dataclasses import dataclass

from .clock import SystemClock
from .httpclient import HttpSession, NoResponseError

CONDITIONS = ("clear", "clouds", "rain", "snow", "fog")

QUANT_DEGREES = 0.001
DAY_MS = 86_400_000
HOUR_MS = 3_600_000

# The free-tier quota each client enforces: calls per sliding window.
QUOTA_CALLS = 60
QUOTA_WINDOW_MS = 60_000.0


class ExternalError(Exception):
    pass


class InvalidCoordinatesError(ExternalError):
    pass


class RateLimitedError(ExternalError):
    pass


class ServiceUnavailableError(ExternalError):
    pass


@dataclass(frozen=True)
class FlowSegment:
    current_speed_kmh: float
    free_flow_speed_kmh: float
    current_travel_time_s: float
    free_flow_travel_time_s: float
    confidence: float
    segment_length_m: float
    matched_at: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "current_speed_kmh": self.current_speed_kmh,
            "free_flow_speed_kmh": self.free_flow_speed_kmh,
            "current_travel_time_s": self.current_travel_time_s,
            "free_flow_travel_time_s": self.free_flow_travel_time_s,
            "confidence": self.confidence,
            "segment_length_m": self.segment_length_m,
            "matched_at": list(self.matched_at),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlowSegment":
        return cls(
            current_speed_kmh=float(data["current_speed_kmh"]),
            free_flow_speed_kmh=float(data["free_flow_speed_kmh"]),
            current_travel_time_s=float(data["current_travel_time_s"]),
            free_flow_travel_time_s=float(data["free_flow_travel_time_s"]),
            confidence=float(data["confidence"]),
            segment_length_m=float(data["segment_length_m"]),
            matched_at=(float(data["matched_at"][0]), float(data["matched_at"][1])),
        )


@dataclass(frozen=True)
class WeatherObservation:
    temp_c: float
    condition: str
    precipitation_mm_h: float
    wind_ms: float
    observed_at: int

    def to_dict(self) -> dict:
        return {
            "temp_c": self.temp_c,
            "condition": self.condition,
            "precipitation_mm_h": self.precipitation_mm_h,
            "wind_ms": self.wind_ms,
            "observed_at": self.observed_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeatherObservation":
        return cls(
            temp_c=float(data["temp_c"]),
            condition=str(data["condition"]),
            precipitation_mm_h=float(data["precipitation_mm_h"]),
            wind_ms=float(data["wind_ms"]),
            observed_at=int(data["observed_at"]),
        )


def check_coordinates(lat: float, lon: float) -> None:
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        raise InvalidCoordinatesError(f"coordinates out of range: ({lat}, {lon})")


def quantize(lat: float, lon: float) -> tuple[int, int]:
    """Grid cell in integer millidegrees."""
    return int(round(lat / QUANT_DEGREES)), int(round(lon / QUANT_DEGREES))


def travel_time_s(length_m: float, speed_kmh: float) -> float:
    return round(length_m / (speed_kmh / 3.6), 1)


def _cell_rng(seed: int, tag: str, qlat: int, qlon: int, bucket: int) -> random.Random:
    # Hash-based mixing: Python's hash() is salted per process, so derive
    # the stream from sha256 for cross-run determinism.
    digest = hashlib.sha256(f"{seed}|{tag}|{qlat}|{qlon}|{bucket}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FlowService:
    """Deterministic road-segment generator keyed by grid cell and day."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def segment(self, lat: float, lon: float, now_ms: float) -> FlowSegment:
        check_coordinates(lat, lon)
        qlat, qlon = quantize(lat, lon)
        rng = _cell_rng(self.seed, "flow", qlat, qlon, int(now_ms) // DAY_MS)
        free_flow = round(rng.uniform(30.0, 110.0), 1)
        current = round(free_flow * rng.uniform(0.35, 1.0), 1)
        length = round(rng.uniform(100.0, 2000.0), 0)
        return FlowSegment(
            current_speed_kmh=current,
            free_flow_speed_kmh=free_flow,
            current_travel_time_s=travel_time_s(length, current),
            free_flow_travel_time_s=travel_time_s(length, free_flow),
            confidence=round(rng.uniform(0.5, 1.0), 2),
            segment_length_m=length,
            matched_at=(qlat * QUANT_DEGREES, qlon * QUANT_DEGREES),
        )


class WeatherService:
    """Deterministic weather generator keyed by grid cell and hour."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def observation(self, lat: float, lon: float, now_ms: float) -> WeatherObservation:
        check_coordinates(lat, lon)
        qlat, qlon = quantize(lat, lon)
        bucket = int(now_ms) // HOUR_MS
        rng = _cell_rng(self.seed, "weather", qlat, qlon, bucket)
        condition = rng.choices(CONDITIONS, weights=(45, 30, 15, 5, 5))[0]
        if condition == "rain":
            precipitation = round(rng.uniform(0.2, 8.0), 1)
        elif condition == "snow":
            precipitation = round(rng.uniform(0.1, 5.0), 1)
        else:
            precipitation = 0.0
        return WeatherObservation(
            temp_c=round(rng.uniform(-5.0, 32.0), 1),
            condition=condition,
            precipitation_mm_h=precipitation,
            wind_ms=round(rng.uniform(0.0, 20.0), 1),
            # The provider's own observation time: the top of the hour, so
            # responses inside one bucket are bitwise identical.
            observed_at=bucket * HOUR_MS,
        )


class RateLimiter:
    """Sliding-window permit source: at most ``QUOTA_CALLS`` grants per window.

    Thread safe; a permit at time T is granted only when fewer than
    ``QUOTA_CALLS`` prior grants lie strictly inside (T - QUOTA_WINDOW_MS, T].
    """

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else SystemClock()
        self._permits: deque[float] = deque()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        now = self.clock.now_ms()
        with self._lock:
            while self._permits and self._permits[0] <= now - QUOTA_WINDOW_MS:
                self._permits.popleft()
            if len(self._permits) >= QUOTA_CALLS:
                return False
            self._permits.append(now)
            return True


class LocalFlowProvider:
    def __init__(self, service: FlowService, clock):
        self.service = service
        self.clock = clock

    def fetch(self, lat: float, lon: float) -> FlowSegment:
        return self.service.segment(lat, lon, self.clock.now_ms())


class LocalWeatherProvider:
    def __init__(self, service: WeatherService, clock):
        self.service = service
        self.clock = clock

    def fetch(self, lat: float, lon: float) -> WeatherObservation:
        return self.service.observation(lat, lon, self.clock.now_ms())


class HttpFlowProvider:
    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.session = HttpSession(base_url, timeout_s)

    def fetch(self, lat: float, lon: float) -> FlowSegment:
        return FlowSegment.from_dict(_http_get_json(self.session, "/flow", lat, lon))


class HttpWeatherProvider:
    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.session = HttpSession(base_url, timeout_s)

    def fetch(self, lat: float, lon: float) -> WeatherObservation:
        return WeatherObservation.from_dict(_http_get_json(self.session, "/weather", lat, lon))


def _http_get_json(session: HttpSession, path: str, lat: float, lon: float) -> dict:
    try:
        response = session.request("GET", path, params={"lat": lat, "lon": lon})
    except NoResponseError as exc:
        raise ServiceUnavailableError(str(exc)) from exc
    if response.status == 400:
        raise InvalidCoordinatesError(response.text)
    if response.status != 200:
        raise ServiceUnavailableError(f"{session.base_url}{path} returned {response.status}")
    return response.json()


class _ContextClient:
    """Coordinate checks plus client-side quota shared by both clients."""

    def __init__(self, provider, limiter: RateLimiter | None, clock):
        self.provider = provider
        self.clock = clock if clock is not None else SystemClock()
        self.limiter = limiter if limiter is not None else RateLimiter(clock=self.clock)

    def _permit(self) -> None:
        if not self.limiter.try_acquire():
            raise RateLimitedError(f"client-side quota exhausted ({QUOTA_CALLS} calls per {QUOTA_WINDOW_MS:g} ms)")


class TrafficClient(_ContextClient):
    def get_flow_segment(self, lat: float, lon: float) -> FlowSegment:
        check_coordinates(lat, lon)
        self._permit()
        return self.provider.fetch(lat, lon)


class WeatherClient(_ContextClient):
    def get_current_weather(self, lat: float, lon: float) -> WeatherObservation:
        check_coordinates(lat, lon)
        self._permit()
        return self.provider.fetch(lat, lon)
