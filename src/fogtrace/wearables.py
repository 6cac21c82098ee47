"""Simulated wearables: heart-rate and respiration sources.

Three device models with distinct interaction styles:

* ``MiBand``: on-demand heart rate, a fresh value at most once per 10 s;
  polls inside the window return the cached sample.
* ``Polar``: subscription push every 2 s (+/- 50 ms jitter) carrying beats
  per minute plus 1-4 R-R intervals; bpm is always consistent with
  60000 / mean(R-R) within 2 percent.
* ``Spire``: subscription push every 5 s (+/- 100 ms) carrying breaths per
  minute and a derived tension/calm/focus/neutral state.

All devices draw their values from a shared ``PhysioModel`` whose stress
level is an exponential moving average (30 s time constant) of normalized
vehicle acceleration, so driving events show up in the physiology with a
realistic lag. The model's parameters (baselines, gains, time constant,
saturation and noise) are module constants. Every generator is seeded and
deterministic.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

KIND_MIBAND = "miband-m1s"
KIND_POLAR = "polar-h7"
KIND_SPIRE = "spire"

RESP_TENSION = "tension"
RESP_CALM = "calm"
RESP_FOCUS = "focus"
RESP_NEUTRAL = "neutral"


class DeviceError(Exception):
    pass


class NotPairedError(DeviceError):
    pass


class DeviceLockedError(DeviceError):
    pass


class AlreadySubscribedError(DeviceError):
    pass


@dataclass(frozen=True)
class HeartSample:
    device: str
    bpm: float
    rr_intervals_ms: tuple[float, ...]
    measured_at: int  # device clock, ms


@dataclass(frozen=True)
class RespirationSample:
    device: str
    breaths_per_min: float
    state: str
    measured_at: int


def respiration_state(breaths_per_min: float) -> str:
    """Deterministic banding: tension > 20, calm < 12, focus 12-16, else neutral."""
    if breaths_per_min > 20:
        return RESP_TENSION
    if breaths_per_min < 12:
        return RESP_CALM
    if 12 <= breaths_per_min <= 16:
        return RESP_FOCUS
    return RESP_NEUTRAL


BASELINE_BPM = 70.0
BPM_GAIN = 25.0
BASELINE_BREATHS = 14.0
BREATHS_GAIN = 10.0
STRESS_TAU_S = 30.0
ACCEL_REF_MPS2 = 3.0  # |accel| at which stress input saturates
BPM_NOISE = 2.0
BREATHS_NOISE = 1.0


class PhysioModel:
    """Driver state coupling vehicle motion to heart and breathing rates.

    ``stress`` in [0, 1] tracks normalized |acceleration| through an
    exponential moving average; bpm = baseline + gain * stress and breaths
    likewise, plus seeded Gaussian noise applied per device.
    """

    def __init__(self):
        self.stress = 0.0

    def update(self, accel_mps2: float, dt_ms: float) -> float:
        if dt_ms <= 0:
            return self.stress
        x = min(abs(accel_mps2) / ACCEL_REF_MPS2, 1.0)
        alpha = 1.0 - math.exp(-(dt_ms / 1000.0) / STRESS_TAU_S)
        self.stress += alpha * (x - self.stress)
        return self.stress

    def bpm(self, rng: random.Random) -> float:
        raw = BASELINE_BPM + BPM_GAIN * self.stress
        raw += rng.gauss(0.0, BPM_NOISE)
        return min(max(raw, 30.0), 220.0)

    def breaths_per_min(self, rng: random.Random) -> float:
        raw = BASELINE_BREATHS + BREATHS_GAIN * self.stress
        raw += rng.gauss(0.0, BREATHS_NOISE)
        return min(max(raw, 4.0), 40.0)


class WearableDevice:
    """Pairing, locking and buffering shared by every simulated device."""

    kind = "generic"
    default_id = "device-1"

    def __init__(self, device_id: str | None = None, physio: PhysioModel | None = None, seed: int = 0):
        self.device_id = device_id if device_id is not None else self.default_id
        self.physio = physio or PhysioModel()
        self.locked_to: str | None = None
        self.buffer: deque = deque(maxlen=4096)
        self._rng = random.Random(f"{seed}:{self.device_id}")

    def pair(self, gateway_id: str) -> None:
        """Bond and lock to one gateway; re-pairing from the owner is idempotent."""
        if self.locked_to is not None and self.locked_to != gateway_id:
            raise DeviceLockedError(f"{self.device_id} is locked to {self.locked_to}")
        self.locked_to = gateway_id

    def require_paired(self) -> None:
        if self.locked_to is None:
            raise NotPairedError(f"{self.device_id} is not paired")

    def erase(self) -> int:
        n = len(self.buffer)
        self.buffer.clear()
        return n


class MiBand(WearableDevice):
    kind = KIND_MIBAND
    default_id = "miband-1"
    min_interval_ms = 10_000.0

    def __init__(self, device_id: str | None = None, physio: PhysioModel | None = None, seed: int = 0):
        super().__init__(device_id, physio, seed)
        self._cached: HeartSample | None = None

    def poll(self, at_ms: float) -> HeartSample:
        """Freshest available measurement; a new one at most every 10 s."""
        self.require_paired()
        if self._cached is None or at_ms - self._cached.measured_at >= self.min_interval_ms:
            bpm = round(self.physio.bpm(self._rng))
            self._cached = HeartSample(
                device=self.device_id,
                bpm=float(bpm),
                rr_intervals_ms=(),
                measured_at=int(at_ms),
            )
            self.buffer.append(self._cached)
        return self._cached


class SampleStream:
    """Pull-style subscription: ``take`` must be called at or after ``next_due_ms``."""

    def __init__(self, device: "_SubscriptionDevice", start_ms: float):
        self.device = device
        self.next_due_ms = start_ms + self._interval()
        self.closed = False

    def _interval(self) -> float:
        device = self.device
        return device.period_ms + device._rng.uniform(-device.jitter_ms, device.jitter_ms)

    def take(self):
        if self.closed:
            raise DeviceError("stream is closed")
        sample = self.device.measure(int(self.next_due_ms))
        self.next_due_ms += self._interval()
        self.device.buffer.append(sample)
        return sample

    def close(self) -> None:
        self.closed = True
        self.device._stream = None


class _SubscriptionDevice(WearableDevice):
    period_ms = 1000.0
    jitter_ms = 0.0

    def __init__(self, device_id: str | None = None, physio: PhysioModel | None = None, seed: int = 0):
        super().__init__(device_id, physio, seed)
        self._stream: SampleStream | None = None

    def subscribe(self, start_ms: float) -> SampleStream:
        self.require_paired()
        if self._stream is not None and not self._stream.closed:
            raise AlreadySubscribedError(f"{self.device_id} already has a subscriber")
        self._stream = SampleStream(self, start_ms)
        return self._stream

    def measure(self, measured_at: int):  # pragma: no cover - subclass hook
        """The sample pushed at ``measured_at``, drawn from the device's generator."""
        raise NotImplementedError


class Polar(_SubscriptionDevice):
    kind = KIND_POLAR
    default_id = "polar-1"
    period_ms = 2000.0
    jitter_ms = 50.0

    def measure(self, measured_at: int) -> HeartSample:
        rng = self._rng
        model_bpm = self.physio.bpm(rng)
        # 1-4 intervals per push, tracking roughly beats-per-2s.
        n = int(round(model_bpm * self.period_ms / 60000.0 + rng.uniform(-0.4, 0.4)))
        n = min(max(n, 1), 4)
        base = 60000.0 / model_bpm
        rr = tuple(
            min(max(base * (1.0 + rng.uniform(-0.02, 0.02)), 250.0), 2000.0) for _ in range(n)
        )
        bpm = float(round(60000.0 / (sum(rr) / len(rr))))
        return HeartSample(
            device=self.device_id,
            bpm=bpm,
            rr_intervals_ms=rr,
            measured_at=measured_at,
        )


class Spire(_SubscriptionDevice):
    kind = KIND_SPIRE
    default_id = "spire-1"
    period_ms = 5000.0
    jitter_ms = 100.0

    def measure(self, measured_at: int) -> RespirationSample:
        breaths = round(self.physio.breaths_per_min(self._rng), 1)
        return RespirationSample(
            device=self.device_id,
            breaths_per_min=breaths,
            state=respiration_state(breaths),
            measured_at=measured_at,
        )
