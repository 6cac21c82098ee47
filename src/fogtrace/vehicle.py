"""Simulated ECU: a scripted drive answering OBD queries with delayed replies.

The simulator evolves a kinematic state (speed, rpm, throttle, gear,
odometer) in fixed ticks while a drive profile supplies the speed targets.
Position is derived, not stepped: ``VehicleSimulator.position`` reads the
point at the current odometer off the one route, ``ROUTE``, when a GPS fix
or a context poll asks for it.

OBD replies are delayed by a sample from a triangular latency
distribution, default ``(50, 80, 200)`` ms whose mean is 110 ms; the reply
always reflects the state at the moment of reply emission, and replies on
one connection are strictly FIFO.

The kinematic rules are documented constants, not physics:

* speed moves toward the segment target, bounded by the profile's
  acceleration limit
* throttle = clamp(K_ACCEL * accel + K_DRAG * speed, 0, 100), with
  ``K_ACCEL`` 25 %/(m/s^2) and ``K_DRAG`` 0.5 %/(km/h)
* gear comes from a fixed shift table (upshifts at 20/40/60/90 km/h)
* rpm = 800 + speed * 120 / gear, clamped to [800, 6500]

A tick's arithmetic depends only on the previous speed, the target, the
acceleration limit and the tick, so ``step`` looks it up in
``_kinematics``, a ``functools.lru_cache`` of at most
``KINEMATICS_CACHE_SIZE`` entries, and adds only the odometer and the
clocks itself. It hits because the car sits at a target, or climbs to it
in steps of one fixed size, for most of a segment: an hour's trip meets a
few hundred distinct keys in its 36,000 ticks (552 on ``aggressive``, 398
on ``calm``). The reply payload is memoized the same way, by
``obd.encode_measurement``.

On the tick path the state is a plain ``tuple`` in ``VehicleState``'s
field order, read by index: ``step`` returns one, the simulator holds one,
and ``advance_to`` hands it back. CPython builds an exact tuple from a free
list and its cyclic GC stops tracking it, but allocates a tuple subclass
such as a ``NamedTuple`` on its slow generic path and tracks it for good;
on the tick that is about a quarter of the time. ``VehicleState`` still
names the fields, and ``snapshot`` returns one for a caller that reads
them by name.
"""

from __future__ import annotations

import math
import random
import socket
import socketserver
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .config import KEYS, Config, ConfigError
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
K_ACCEL = 25.0  # throttle % per m/s^2
K_DRAG = 0.5  # throttle % per km/h

# Entries in the tick memo: an hour's trip on either profile needs fewer
# than 600, and an entry is a key of four numbers and a result of five.
KINEMATICS_CACHE_SIZE = 4096

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


class VehicleState(NamedTuple):
    """The state's field order; the tick path holds a plain tuple and reads it by index."""

    speed_kmh: float = 0.0
    rpm: float = IDLE_RPM
    throttle_pct: float = 0.0
    gear: int = 1
    odometer_m: float = 0.0
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


# The route every drive follows.
ROUTE = Route(DEFAULT_ROUTE)


@dataclass(frozen=True)
class DriveProfile:
    """Scripted targets: ``segments`` is a sequence of (duration s, target km/h)."""

    name: str
    segments: tuple[tuple[float, float], ...]
    accel_limit_mps2: float

    def __post_init__(self):
        # An empty script has no target to drive to; a limit of 0 or below
        # never moves the car, and NaN or an infinite one jumps to any target
        # in one tick. A NaN duration is refused with the others.
        if not self.segments:
            raise ValueError("a drive profile needs at least one segment")
        if not 0 < self.accel_limit_mps2 < math.inf:
            raise ValueError(f"accel_limit_mps2 must be finite and above 0, got {self.accel_limit_mps2}")
        for duration, target in self.segments:
            if not duration > 0:
                raise ValueError(f"segment durations must be positive, got {duration}")
            if not 0 <= target <= 255:
                raise ValueError(f"target speeds must be in [0, 255] km/h, got {target}")
        # Derived once (the dataclass is frozen, hence object.__setattr__): the
        # end of each segment in script time, the script's length and the
        # targets (the last one twice, for a time that rounds up to the very end).
        ends = tuple(accumulate(duration for duration, _ in self.segments))
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_total_s", ends[-1])
        targets = tuple(target for _, target in self.segments)
        object.__setattr__(self, "_targets", targets + targets[-1:])

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

# The longest reply delay: the TCP link's read timeout, past which a reply
# counts as a lost link.
MAX_REPLY_DELAY_MS = 30_000.0


@dataclass
class LatencyModel:
    """Triangular reply-delay distribution in milliseconds."""

    min_ms: float = KEYS["vehicle.latency.min_ms"].default
    mode_ms: float = KEYS["vehicle.latency.mode_ms"].default
    max_ms: float = KEYS["vehicle.latency.max_ms"].default
    seed: int = 0

    def __post_init__(self):
        for name in ("min_ms", "mode_ms", "max_ms"):
            bound = getattr(self, name)
            if not 0 <= bound < math.inf:
                raise ValueError(f"latency {name} must be finite and not negative, got {bound}")
        if not self.min_ms <= self.mode_ms <= self.max_ms:
            raise ValueError(
                f"latency model requires min_ms <= mode_ms <= max_ms, got {self.min_ms}, {self.mode_ms}, {self.max_ms}"
            )
        # A simulated clock moves by these delays, and near its epoch a float
        # steps by about 2.4e-4 ms: with every delay below 1 ms it could stand
        # still, and nothing that polls until a deadline would end. A longer
        # delay than the cap steps the simulator through more ticks per reply
        # than a real link would wait for.
        if not 1 <= self.max_ms <= MAX_REPLY_DELAY_MS:
            raise ValueError(f"latency max_ms must be from 1 to {MAX_REPLY_DELAY_MS:g}, got {self.max_ms}")
        # One generator per model; ``sample`` draws from it with one C call,
        # which needs no lock between the connections that share the model.
        self._random = random.Random(self.seed).random

    @classmethod
    def fixed(cls, delay_ms: float, seed: int = 0) -> "LatencyModel":
        return cls(min_ms=delay_ms, mode_ms=delay_ms, max_ms=delay_ms, seed=seed)

    def sample(self) -> float:
        """``random.Random(seed).triangular(min_ms, max_ms, mode_ms)``, draw for draw.

        The arithmetic is ``triangular``'s, step for step, worked out here
        instead of in a second frame, so every delay is bit for bit the same.
        """
        u = self._random()
        low, high = self.min_ms, self.max_ms
        if low == high:  # triangular's ZeroDivisionError
            return low
        c = (self.mode_ms - low) / (high - low)
        if u > c:
            return high + (low - high) * math.sqrt((1.0 - u) * (1.0 - c))
        return low + (high - low) * math.sqrt(u * c)


def step(state: tuple, profile: DriveProfile, dt_ms: float) -> tuple:
    """Advance the kinematic state by one tick. Inputs are clamped, never rejected.

    ``state`` is read by index, so a ``VehicleState`` or a plain tuple in its
    field order will do; the next state is a plain tuple in that order.
    """
    if dt_ms <= 0:
        raise ValueError("dt must be positive")
    elapsed = state[6]
    speed, rpm, throttle, gear, metres = _kinematics(
        state[0], profile.target_speed_at(elapsed / 1000.0), profile.accel_limit_mps2, dt_ms
    )
    return speed, rpm, throttle, gear, state[4] + metres, state[5] + dt_ms, elapsed + dt_ms


@lru_cache(maxsize=KINEMATICS_CACHE_SIZE)
def _kinematics(
    previous: float, target: float, accel_limit_mps2: float, dt_ms: float
) -> tuple[float, float, float, int, float]:
    """``(speed, rpm, throttle, gear, metres travelled)`` of one tick from ``previous`` toward ``target``.

    A key of ``-0.0`` finds the entry of ``0.0``, and the result is the same:
    the sign of a zero changes no comparison, and a speed of zero comes out
    as a literal ``0.0``, whose sum and difference with either zero is ``0.0``.
    """
    dt_s = dt_ms / 1000.0
    # The clamps are written out rather than min(max(...)), with the same
    # comparisons, so the results are bit for bit those of the builtins.
    max_delta_kmh = accel_limit_mps2 * dt_s * 3.6
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
    return speed, rpm, throttle, gear, (previous + speed) / 2.0 / 3.6 * dt_s


# The state field each core PID reports, by its index in the plain state.
_CHANNEL_OF = {pid: itemgetter(VehicleState._fields.index(PID_TABLE[pid].channel)) for pid in CORE_PIDS}


class VehicleSimulator:
    """Owns one vehicle state and answers OBD request frames from it.

    ``advance_to`` steps the state in fixed ticks up to the given timestamp;
    snapshots handed out are immutable copies, so repliers never observe a
    state mid-update. Thread safe.
    """

    def __init__(
        self,
        profile: DriveProfile = PROFILES[KEYS["vehicle.profile"].default],
        latency: LatencyModel | None = None,
        seed: int = 0,
        tick_ms: float = KEYS["vehicle.tick_ms"].default,
        start_ms: float = 0.0,
    ):
        self.profile = profile
        self.latency = latency if latency is not None else LatencyModel(seed=seed)
        self.tick_ms = float(tick_ms)
        # A plain tuple in VehicleState's field order, replaced whole by each tick.
        self._state = tuple(VehicleState(sim_time_ms=float(start_ms)))
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, config: Config, start_ms: float = 0.0) -> "VehicleSimulator":
        """The simulator ``config`` describes."""
        latency = LatencyModel(
            min_ms=config["vehicle.latency.min_ms"],
            mode_ms=config["vehicle.latency.mode_ms"],
            max_ms=config["vehicle.latency.max_ms"],
            seed=config["seed"],
        )
        name = config["vehicle.profile"]
        if name not in PROFILES:
            raise ConfigError(f"vehicle.profile: unknown profile {name!r}")
        return cls(profile=PROFILES[name], latency=latency, tick_ms=config["vehicle.tick_ms"], start_ms=start_ms)

    def snapshot(self) -> VehicleState:
        """The current state with its fields named."""
        with self._lock:
            return VehicleState._make(self._state)

    def position(self) -> tuple[float, float]:
        """(lat, lon) of the current state: the route point at its odometer."""
        # The state is immutable and replaced whole, so it is read without the lock.
        return ROUTE.point_at(self._state[4])

    def advance_to(self, t_ms: float) -> tuple:
        """The state at ``t_ms``, a plain tuple in ``VehicleState``'s field order."""
        # No tick due, as for a second call at the same time: the state is
        # immutable and replaced whole, so it is read without the lock.
        state = self._state
        if state[5] + self.tick_ms > t_ms:
            return state
        with self._lock:
            state, profile, tick_ms = self._state, self.profile, self.tick_ms
            while state[5] + tick_ms <= t_ms:
                state = step(state, profile, tick_ms)
            self._state = state
            return state

    def _reply(self, state: tuple, raw_request: bytes) -> bytes:
        """The reply frame to ``raw_request`` from ``state``; unsupported or broken requests get a 7F frame."""
        try:
            pid_id = parse_request(raw_request)
        except UnsupportedModeError as exc:
            return render_negative_response(exc.mode, NRC_SERVICE_NOT_SUPPORTED)
        except MalformedFrameError:
            return render_negative_response(0x00, NRC_SERVICE_NOT_SUPPORTED)
        pid = pid_id.pid
        if pid not in CORE_PIDS:
            return render_negative_response(pid_id.mode, NRC_SUBFUNCTION_NOT_SUPPORTED)
        return render_response(pid_id, encode_measurement(pid, _CHANNEL_OF[pid](state)))


class _RequestHelper:
    """Shared encode/transact/parse cycle for OBD links."""

    def transact(self, raw_request: bytes) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def request(self, pid: int | PidId) -> ObdResponse:
        core = CORE_REQUESTS.get(pid)
        if core is None:
            pid_id = pid if isinstance(pid, PidId) else PidId(pid=pid)
            core = pid_id, encode_request(pid_id)
        pid_id, raw_request = core
        return parse_response(self.transact(raw_request), pid_id)


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
        clock, simulator = self.clock, self.simulator
        t_reply = clock.now_ms() + self.latency.sample()
        reply = simulator._reply(simulator.advance_to(t_reply), raw_request)
        clock.sleep_ms(t_reply - clock.now_ms())
        return reply

    def close(self) -> None:
        self.closed = True


# The most bytes either end buffers without a CR, a line buffer as small as
# an adapter's: far above any frame of the codec, and small enough that a
# peer that never sends a CR cannot grow the buffer, or its rescans.
MAX_FRAME_BYTES = 256


def _frames(sock: socket.socket):
    """The CR-terminated frames read from ``sock``, in order, until the peer closes.

    Raises :class:`MalformedFrameError` once more than ``MAX_FRAME_BYTES``
    arrive without a CR.
    """
    buffer = bytearray()
    while chunk := sock.recv(4096):
        buffer += chunk
        while (idx := buffer.find(b"\r")) >= 0:
            frame = bytes(buffer[: idx + 1])
            del buffer[: idx + 1]
            yield frame
        if len(buffer) > MAX_FRAME_BYTES:
            raise MalformedFrameError(f"no CR within {MAX_FRAME_BYTES} bytes")


class TcpObdLink(_RequestHelper):
    """Client for the TCP framing server; one in-flight request at a time."""

    def __init__(self, host: str, port: int, timeout_s: float = MAX_REPLY_DELAY_MS / 1000.0):
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
            try:
                for frame in _frames(self.request):
                    self.request.sendall(link.transact(frame.lstrip(b"\n>")))
            except MalformedFrameError:
                # A frame past MAX_FRAME_BYTES is answered as malformed, and the connection ends.
                self.request.sendall(render_negative_response(0x00, NRC_SERVICE_NOT_SUPPORTED))
        except OSError:
            return


class VehicleTcpServer(ServedThread):
    """Serves the OBD framing over loopback TCP, one thread per connection."""

    def __init__(self, simulator: VehicleSimulator, host: str = "127.0.0.1", port: int = 0, *, clock):
        self.simulator = simulator
        self.clock = clock
        super().__init__(_VehicleHandler, host, port)
