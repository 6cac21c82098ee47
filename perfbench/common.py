"""Paths, statistics and the result record shared by every workload."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_REPEATS = 3


def use_program() -> None:
    """Put the checkout's ``src`` on the import path, or stop."""
    if not (SRC / "fogtrace" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fogtrace sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process, or with RUSAGE_CHILDREN of the
    largest child it has waited for."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- speed of the machine ------------------------------------------------------------
#
# The CPU of a shared machine changes speed by up to 1.7x, each virtual
# CPU on its own, in periods of a fraction of a second to minutes, so runs
# of the same CPU-bound code spread 25-30% in wall time. For the two workloads that are CPU-bound and run on a simulated
# clock, the clock the benchmark builds interrupts the work every
# ``BURST_EVERY`` sleeps with a short pure-Python burst on the same thread.
# The wall time between two bursts is scaled by the speed the bursts at
# its ends saw, relative to a burst taking ``BURST_REF_S``; the bursts'
# own time is left out.

BURST_EVERY = 64
BURST_REF_S = 100e-6


def burst() -> float:
    """Seconds one burst of codec-like string, int and dict work takes."""
    t0 = perf_counter()
    table = {}
    for i in range(60):
        tokens = f"{i:04X} {i % 255:02X}\r".strip().split()
        table[tokens[0]] = int(tokens[1], 16) * 100 / 255
    return perf_counter() - t0


class Speed:
    """Wall time since ``start``, as measured and at the reference speed."""

    def start(self) -> None:
        self.raw_s = self.ref_s = 0.0
        self.bursts = 0
        self._last_burst = burst()
        self._since = perf_counter()

    def tick(self) -> None:
        """Close the current segment with a burst."""
        segment = perf_counter() - self._since
        took = burst()
        self.raw_s += segment
        self.ref_s += segment * 2 * BURST_REF_S / (self._last_burst + took)
        self.bursts += 1
        self._last_burst = took
        self._since = perf_counter()

    def lap(self) -> tuple[float, float]:
        """(measured, reference-speed) seconds so far."""
        self.tick()
        return self.raw_s, self.ref_s


def calibrated_clock(speed: Speed):
    """A ``SimulatedClock`` that ticks ``speed`` every ``BURST_EVERY`` sleeps."""
    from fogtrace.clock import SimulatedClock

    class CalibratedClock(SimulatedClock):
        left = BURST_EVERY

        def sleep_ms(self, ms: float) -> None:
            super().sleep_ms(ms)
            self.left -= 1
            if not self.left:
                self.left = BURST_EVERY
                speed.tick()

    return CalibratedClock()


def timed(fn):
    """(result, wall seconds) of one call."""
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0


def median_setup(setup, teardown) -> tuple[float, object]:
    """Set up ``SETUP_REPEATS`` times; keep the last, return the median time.

    ``setup`` returns (state, seconds it took).
    """
    times = []
    state = None
    for i in range(SETUP_REPEATS):
        state, seconds = setup()
        times.append(seconds)
        if i < SETUP_REPEATS - 1:
            teardown(state)
    return median(times), state


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def golden_problems(workload: str, seed: int, quick: bool, sha: str) -> list[str]:
    recorded = load_golden().get("quick" if quick else "full", {}).get(workload, {}).get(str(seed))
    if recorded is not None and recorded != sha:
        return [f"content sha256 {sha[:16]} differs from the recorded {recorded[:16]} for seed {seed}"]
    return []


@dataclass
class Outcome:
    """What one workload run measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    tracer: object = None  # the traced run's Tracer, whose spans are written out

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"perfbench: {what} failed: {exc!r}", file=sys.stderr)

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)
