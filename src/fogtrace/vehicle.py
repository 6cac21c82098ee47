"""Simulated ECU: a scripted drive answering OBD queries with delayed replies.

The simulator evolves a kinematic state (speed, rpm, throttle, gear,
odometer, position along a route polyline) in fixed ticks while a drive
profile supplies the speed targets. OBD replies are delayed by a sample
from a triangular latency distribution, default ``(50, 80, 200)`` ms whose
mean is 110 ms; the reply always reflects the state at the moment of reply
emission, and replies on one connection are strictly FIFO.

The kinematic rules are documented constants, not physics:

* speed moves toward the segment target, bounded by the profile's
  acceleration limit
* throttle = clamp(k_accel * accel + k_drag * speed, 0, 100)
* gear comes from a fixed shift table (upshifts at 20/40/60/90 km/h)
* rpm = 800 + speed * 120 / gear, clamped to [800, 6500]
"""

from __future__ import annotations

import math
import random
import socket
import socketserver
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .clock import SystemClock
from .config import Config, ConfigError
from .obd import (
    CORE_PIDS,
    CORE_REQUESTS,
    NRC_SERVICE_NOT_SUPPORTED,
    NRC_SUBFUNCTION_NOT_SUPPORTED,
    PID_TABLE,
    MalformedFrameError,
    ObdResponse,
    PidId,
    UnsupportedModeError,
    encode_measurement,
    encode_request,
    parse_request,
    parse_response,
    render_negative_response,
    render_response,
)
from .served import ServedThread

IDLE_RPM = 800.0
MAX_RPM = 6500.0
GEAR_SHIFT_KMH = (20.0, 40.0, 60.0, 90.0)  # upshift thresholds for gears 2..5
DEFAULT_TICK_MS = 100.0

# Small closed loop used as the default route polyline.
DEFAULT_ROUTE = (
    (52.5200, 13.4050),
    (52.5235, 13.4115),
    (52.5262, 13.4180),
    (52.5240, 13.4260),
    (52.5190, 13.4230),
    (52.5160, 13.4140),
    (52.5200, 13.4050),
)


@dataclass(frozen=True, slots=True)
class VehicleState:
    speed_kmh: float = 0.0
    rpm: float = IDLE_RPM
    throttle_pct: float = 0.0
    gear: int = 1
    odometer_m: float = 0.0
    lat: float = DEFAULT_ROUTE[0][0]
    lon: float = DEFAULT_ROUTE[0][1]
    sim_time_ms: float = 0.0
    elapsed_ms: float = 0.0  # time since trip start, drives the profile


class Route:
    """Cumulative-distance lookup along a polyline of (lat, lon) points."""

    _M_PER_DEG_LAT = 110_540.0
    _M_PER_DEG_LON_EQ = 111_320.0

    def __init__(self, points: tuple[tuple[float, float], ...]):
        if not points:
            raise ValueError("route needs at least one point")
        self.points = points
        ref_lat = math.radians(points[0][0])
        self._lon_scale = self._M_PER_DEG_LON_EQ * math.cos(ref_lat)
        self._cum = [0.0]
        for (lat1, lon1), (lat2, lon2) in zip(points, points[1:]):
            dx = (lon2 - lon1) * self._lon_scale
            dy = (lat2 - lat1) * self._M_PER_DEG_LAT
            self._cum.append(self._cum[-1] + math.hypot(dx, dy))

    @property
    def length_m(self) -> float:
        return self._cum[-1]

    def point_at(self, distance_m: float) -> tuple[float, float]:
        cum = self._cum
        length = cum[-1]
        if length <= 0:
            return self.points[0]
        d = distance_m % length
        i = bisect_left(cum, d, 1)
        if i == len(cum):
            return self.points[-1]
        seg = cum[i] - cum[i - 1]
        frac = 0.0 if seg == 0 else (d - cum[i - 1]) / seg
        (lat1, lon1), (lat2, lon2) = self.points[i - 1], self.points[i]
        return (lat1 + (lat2 - lat1) * frac, lon1 + (lon2 - lon1) * frac)


@dataclass(frozen=True)
class DriveProfile:
    """Scripted targets: ``segments`` is a sequence of (duration s, target km/h)."""

    name: str
    segments: tuple[tuple[float, float], ...]
    accel_limit_mps2: float
    route: tuple[tuple[float, float], ...] = DEFAULT_ROUTE

    def __post_init__(self):
        for duration, target in self.segments:
            if duration <= 0:
                raise ValueError(f"segment durations must be positive, got {duration}")
            if not 0 <= target <= 255:
                raise ValueError(f"target speeds must be in [0, 255] km/h, got {target}")
        # Derived once (the dataclass is frozen, hence object.__setattr__): the
        # end of each segment in script time, the script's length, the targets
        # (the last one twice, for a time that rounds up to the very end) and
        # the distance lookup along the route.
        ends = tuple(accumulate(duration for duration, _ in self.segments))
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_total_s", ends[-1] if ends else 0)
        targets = tuple(target for _, target in self.segments)
        object.__setattr__(self, "_targets", targets + targets[-1:])
        object.__setattr__(self, "_route", Route(self.route))

    def target_speed_at(self, elapsed_s: float) -> float:
        """Target for the given trip time; the script repeats when exhausted."""
        return self._targets[bisect_right(self._ends, elapsed_s % self._total_s)]


CALM_PROFILE = DriveProfile(
    name="calm",
    segments=((40, 30), (80, 50), (30, 30), (60, 45), (20, 0), (70, 55)),
    accel_limit_mps2=1.5,
)

AGGRESSIVE_PROFILE = DriveProfile(
    name="aggressive",
    segments=((15, 70), (10, 15), (20, 95), (10, 30), (25, 130), (10, 0), (15, 80), (15, 20)),
    accel_limit_mps2=3.5,
)

PROFILES = {p.name: p for p in (CALM_PROFILE, AGGRESSIVE_PROFILE)}


@dataclass
class ThrottleParams:
    k_accel: float = 25.0  # % per m/s^2
    k_drag: float = 0.5  # % per km/h


@dataclass
class LatencyModel:
    """Triangular reply-delay distribution in milliseconds."""

    min_ms: float = 50.0
    mode_ms: float = 80.0
    max_ms: float = 200.0
    seed: int = 0

    def __post_init__(self):
        if not self.min_ms <= self.mode_ms <= self.max_ms:
            raise ValueError("latency model requires min <= mode <= max")
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    @classmethod
    def fixed(cls, delay_ms: float, seed: int = 0) -> "LatencyModel":
        return cls(min_ms=delay_ms, mode_ms=delay_ms, max_ms=delay_ms, seed=seed)

    @property
    def mean_ms(self) -> float:
        return (self.min_ms + self.mode_ms + self.max_ms) / 3.0

    def sample(self) -> float:
        with self._lock:
            return self._rng.triangular(self.min_ms, self.max_ms, self.mode_ms)


def gear_for_speed(speed_kmh: float) -> int:
    return 1 + bisect_right(GEAR_SHIFT_KMH, speed_kmh)


def step(
    state: VehicleState,
    profile: DriveProfile,
    dt_ms: float,
    params: ThrottleParams | None = None,
) -> VehicleState:
    """Advance the kinematic state by one tick. Inputs are clamped, never rejected."""
    if dt_ms <= 0:
        raise ValueError("dt must be positive")
    params = params or ThrottleParams()
    dt_s = dt_ms / 1000.0

    # The clamps are written out rather than min(max(...)), with the same
    # comparisons, so the results are bit for bit those of the builtins.
    previous = state.speed_kmh
    target = profile.target_speed_at(state.elapsed_ms / 1000.0)
    max_delta_kmh = profile.accel_limit_mps2 * dt_s * 3.6
    delta = target - previous
    delta = -max_delta_kmh if -max_delta_kmh > delta else delta
    delta = max_delta_kmh if max_delta_kmh < delta else delta
    speed = previous + delta
    speed = speed if speed > 0.0 else 0.0

    accel_mps2 = (speed - previous) / 3.6 / dt_s
    throttle = params.k_accel * accel_mps2 + params.k_drag * speed
    throttle = 0.0 if 0.0 > throttle else throttle
    throttle = 100.0 if 100.0 < throttle else throttle
    gear = 1 + bisect_right(GEAR_SHIFT_KMH, speed)
    rpm = IDLE_RPM + speed * 120.0 / gear
    rpm = IDLE_RPM if IDLE_RPM > rpm else rpm
    rpm = MAX_RPM if MAX_RPM < rpm else rpm

    odometer = state.odometer_m + (previous + speed) / 2.0 / 3.6 * dt_s
    lat, lon = profile._route.point_at(odometer)

    return VehicleState(
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


class VehicleSimulator:
    """Owns one vehicle state and answers OBD request frames from it.

    ``advance_to`` steps the state in fixed ticks up to the given timestamp;
    snapshots handed out are immutable copies, so repliers never observe a
    state mid-update. Thread safe.
    """

    def __init__(
        self,
        profile: DriveProfile = CALM_PROFILE,
        latency: LatencyModel | None = None,
        seed: int = 0,
        tick_ms: float = DEFAULT_TICK_MS,
        start_ms: float = 0.0,
        throttle_params: ThrottleParams | None = None,
    ):
        self.profile = profile
        self.latency = latency if latency is not None else LatencyModel(seed=seed)
        self.tick_ms = float(tick_ms)
        self.throttle_params = throttle_params or ThrottleParams()
        lat, lon = profile._route.point_at(0.0)
        self._state = VehicleState(lat=lat, lon=lon, sim_time_ms=float(start_ms))
        self._lock = threading.RLock()

    @classmethod
    def from_config(cls, config: Config, start_ms: float = 0.0) -> "VehicleSimulator":
        """The simulator ``config`` describes; absent keys take the class defaults."""
        latency = LatencyModel(
            min_ms=config.get_float("vehicle.latency.min_ms", LatencyModel.min_ms),
            mode_ms=config.get_float("vehicle.latency.mode_ms", LatencyModel.mode_ms),
            max_ms=config.get_float("vehicle.latency.max_ms", LatencyModel.max_ms),
            seed=config.seed,
        )
        params = ThrottleParams(
            k_accel=config.get_float("vehicle.throttle.k_accel", ThrottleParams.k_accel),
            k_drag=config.get_float("vehicle.throttle.k_drag", ThrottleParams.k_drag),
        )
        name = config.get("vehicle.profile", CALM_PROFILE.name)
        if name not in PROFILES:
            raise ConfigError(f"vehicle.profile: unknown profile {name!r}")
        return cls(
            profile=PROFILES[name],
            latency=latency,
            tick_ms=config.get_float("vehicle.tick_ms", DEFAULT_TICK_MS),
            start_ms=start_ms,
            throttle_params=params,
        )

    def snapshot(self) -> VehicleState:
        with self._lock:
            return self._state

    def step_once(self) -> VehicleState:
        with self._lock:
            self._state = step(self._state, self.profile, self.tick_ms, self.throttle_params)
            return self._state

    def advance_to(self, t_ms: float) -> VehicleState:
        with self._lock:
            state, tick_ms = self._state, self.tick_ms
            while state.sim_time_ms + tick_ms <= t_ms:
                state = self._state = step(state, self.profile, tick_ms, self.throttle_params)
            return state

    def measurement(self, pid: int) -> float:
        return getattr(self.snapshot(), PID_TABLE[pid].channel)

    def reply_frame(self, raw_request: bytes) -> bytes:
        """Frame in, frame out. Unsupported or broken requests get a 7F frame."""
        try:
            pid_id = parse_request(raw_request)
        except UnsupportedModeError as exc:
            return render_negative_response(exc.mode, NRC_SERVICE_NOT_SUPPORTED)
        except MalformedFrameError:
            return render_negative_response(0x00, NRC_SERVICE_NOT_SUPPORTED)
        if pid_id.pid not in CORE_PIDS:
            return render_negative_response(pid_id.mode, NRC_SUBFUNCTION_NOT_SUPPORTED)
        data = encode_measurement(pid_id.pid, self.measurement(pid_id.pid))
        return render_response(pid_id, data)


class _RequestHelper:
    """Shared encode/transact/parse cycle for OBD links."""

    clock: object

    def transact(self, raw_request: bytes) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def request(self, pid: int | PidId) -> ObdResponse:
        core = CORE_REQUESTS.get(pid)
        if core is None:
            pid_id = pid if isinstance(pid, PidId) else PidId(pid=pid)
            core = pid_id, encode_request(pid_id)
        pid_id, raw_request = core
        reply = self.transact(raw_request)
        return parse_response(reply, pid_id, received_at=self.clock.now_ms())


class InProcessObdLink(_RequestHelper):
    """Synchronous link to a simulator sharing the caller's clock.

    The reply is built from the state advanced to the reply-emission time,
    then delivery is delayed by a latency-model sample. With a simulated
    clock the delay is virtual, so thousands of exchanges run in
    milliseconds of compute time.
    """

    def __init__(self, simulator: VehicleSimulator, clock):
        self.simulator = simulator
        self.clock = clock
        self.latency = simulator.latency
        self.closed = False

    def transact(self, raw_request: bytes) -> bytes:
        if self.closed:
            raise ConnectionError("link is closed")
        t_reply = self.clock.now_ms() + self.latency.sample()
        self.simulator.advance_to(t_reply)
        reply = self.simulator.reply_frame(raw_request)
        self.clock.sleep_ms(t_reply - self.clock.now_ms())
        return reply

    def close(self) -> None:
        self.closed = True


def _frames(sock: socket.socket):
    """The CR-terminated frames read from ``sock``, in order, until the peer closes."""
    buffer = bytearray()
    while chunk := sock.recv(4096):
        buffer += chunk
        while (idx := buffer.find(b"\r")) >= 0:
            frame = bytes(buffer[: idx + 1])
            del buffer[: idx + 1]
            yield frame


class TcpObdLink(_RequestHelper):
    """Client for the TCP framing server; one in-flight request at a time."""

    def __init__(self, host: str, port: int, clock=None, timeout_s: float = 30.0):
        self.clock = clock if clock is not None else SystemClock()
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._frames = _frames(self._sock)

    def transact(self, raw_request: bytes) -> bytes:
        self._sock.sendall(raw_request)
        frame = next(self._frames, None)
        if frame is None:
            raise ConnectionError("OBD server closed the connection")
        return frame

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class _VehicleHandler(socketserver.BaseRequestHandler):
    def handle(self):
        server: VehicleTcpServer = self.server.owner  # type: ignore[attr-defined]
        # One link per connection answers its requests strictly in order, the
        # same way the in-process link answers them on the simulated clock.
        link = InProcessObdLink(server.simulator, server.clock)
        try:
            for frame in _frames(self.request):
                self.request.sendall(link.transact(frame.lstrip(b"\n>")))
        except OSError:
            return


class VehicleTcpServer(ServedThread):
    """Serves the OBD framing over loopback TCP, one thread per connection."""

    def __init__(self, simulator: VehicleSimulator, host: str = "127.0.0.1", port: int = 0, clock=None):
        self.simulator = simulator
        self.clock = clock if clock is not None else SystemClock()
        super().__init__(_VehicleHandler, host, port)
