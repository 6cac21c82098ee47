"""Time sources for the pipeline.

Everything that needs "now" or a delay takes a clock object instead of
calling :mod:`time` directly, so full sessions and benchmarks can run on a
virtual timeline in milliseconds of compute time while the same code paths
run in real time when wired to :class:`SystemClock`.
"""

from __future__ import annotations

import time

# Fixed origin for virtual timelines (2025-01-01T00:00:00Z). A constant
# start keeps simulated traces byte-reproducible across runs.
DEFAULT_SIM_EPOCH_MS = 1_735_689_600_000.0


class SystemClock:
    """Wall clock. ``now_ms`` is Unix epoch milliseconds."""

    def now_ms(self) -> float:
        return time.time() * 1000.0

    def sleep_ms(self, ms: float) -> None:
        if ms > 0:
            time.sleep(ms / 1000.0)


class SimulatedClock:
    """Virtual clock where sleeping advances time instead of blocking."""

    def __init__(self, start_ms: float = DEFAULT_SIM_EPOCH_MS):
        self._now = float(start_ms)

    def now_ms(self) -> float:
        return self._now

    def sleep_ms(self, ms: float) -> None:
        if ms > 0:
            self._now += ms
