"""Seeded inputs for every workload.

Everything the benchmark feeds fogtrace is derived here from the run's
``--seed``: the trip's outage schedule, the envelope key, the synthetic
traces of ``store-mix`` and its per-client operation mix. The same seed
always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import random

CSV_HEADER = b"timestamp_ms,source,channel,value,unit,interpolated\n"

# Synthetic trace size classes (bytes of CSV) and their share of uploads.
SIZE_BYTES = {"small": 20_000, "medium": 180_000, "large": 2_100_000}
SIZE_MIX = (("small", 0.6), ("medium", 0.3), ("large", 0.1))
REUPLOAD_SHARE = 0.2
# Store pre-population: archive drivers, and every 12th trace large,
# every 3rd medium, the rest small.
ARCHIVE_DRIVERS = 8
_T0_MS = 1_735_689_600_000


def key_for(seed: int) -> bytes:
    return hashlib.sha256(f"perfbench-key-{seed}".encode()).digest()


def nonce_for(seed: int, tag: str, index: int) -> bytes:
    return hashlib.sha256(f"perfbench-nonce-{seed}-{tag}-{index}".encode()).digest()[:12]


# -- trip-hour outages ---------------------------------------------------------


def outage_schedule(seed: int, duration_s: float) -> list[tuple[int, int]]:
    """(exchange index, refused reconnects) for 4-6 link drops.

    The drops fall one per equal slot of the trip's first ~93% of OBD
    exchanges (about 9.1 exchanges per simulated second), so each is
    followed by real replies and none runs into the end of the trip.
    """
    rng = random.Random(f"perfbench-outages-{seed}")
    count = rng.randint(4, 6)
    first, last = 100, int(8.5 * duration_s)
    slot = (last - first) // count
    return [
        (first + i * slot + rng.randrange(slot // 2), rng.randint(1, 3)) for i in range(count)
    ]


# -- store-mix synthetic traces -----------------------------------------------


def _body(seed: int, size_class: str) -> tuple[bytes, int]:
    """Valid trace rows filling about ``SIZE_BYTES[size_class]`` bytes."""
    rng = random.Random(f"perfbench-body-{seed}-{size_class}")
    target = SIZE_BYTES[size_class]
    lines: list[str] = []
    size = 0
    ts = _T0_MS + 1000
    speed = 40.0
    while size < target:
        ts += rng.randint(30, 200)
        speed = min(max(speed + rng.uniform(-3, 3), 0.0), 130.0)
        kind = rng.randrange(4)
        if kind == 0:
            line = f"{ts},obd-1,speed_kmh,{int(speed)},km/h,0\n"
        elif kind == 1:
            line = f"{ts},obd-1,rpm,{800 + rng.randrange(20000) / 4},rpm,0\n"
        elif kind == 2:
            line = f"{ts},gps-1,lat,{52.5 + rng.uniform(0, 0.01):.6f},deg,0\n"
        else:
            line = f"{ts},polar-1,bpm,{rng.randint(60, 110)}@{ts - 5},bpm,0\n"
        lines.append(line)
        size += len(line)
    return "".join(lines).encode("ascii"), len(lines)


class TraceFactory:
    """Distinct synthetic traces built from one cached body per size class."""

    def __init__(self, seed: int):
        self.seed = seed
        self._bodies = {name: _body(seed, name) for name in SIZE_BYTES}

    def trace(self, tag: str, index: int, size_class: str) -> tuple[bytes, int]:
        """(csv bytes, row count); the leading alert row makes each trace unique."""
        body, rows = self._bodies[size_class]
        first = f"{_T0_MS},alerts,alert,perfbench-{tag}-{index},,0\n".encode("ascii")
        return CSV_HEADER + first + body, rows + 1

    def manifest(self, driver_id: str, tag: str, index: int, csv_bytes: bytes, rows: int):
        from fogtrace.gateway.records import SessionManifest

        return SessionManifest(
            session_id=f"perfbench-{tag}-{index}",
            driver_id=driver_id,
            vehicle_id="vehicle-1",
            started_at=_T0_MS,
            ended_at=_T0_MS + 3_600_000,
            devices=(),
            row_count=rows,
            csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
        )


def prepopulation(count: int) -> list[tuple[int, str, str]]:
    """(index, archive driver, size class) of each pre-populated trace."""
    out = []
    for i in range(count):
        size_class = "large" if i % 12 == 0 else "medium" if i % 3 == 0 else "small"
        out.append((i, f"archive-{i % ARCHIVE_DRIVERS}", size_class))
    return out


class ClientMix:
    """One store-mix client's seeded sequence of choices."""

    def __init__(self, seed: int, client: int):
        self._rng = random.Random(f"perfbench-mix-{seed}-{client}")

    def size_class(self) -> str:
        x = self._rng.random()
        for name, share in SIZE_MIX:
            if x < share:
                return name
            x -= share
        return SIZE_MIX[-1][0]

    def reupload(self) -> bool:
        return self._rng.random() < REUPLOAD_SHARE

    def pick(self, n: int) -> int:
        return self._rng.randrange(n)
