"""OBD polling benchmark: throughput ramp and latency statistics.

The harness polls back to back and treats every reply as a benchmark
update, recording the number of replies inside the trailing 60 s window at
that moment. The resulting series rises by one per update until the window
first fills (roughly 60 s / mean-cycle updates in) and then plateaus at
60000 / mean-cycle-ms replies, which for the default triangular
(50, 80, 200) latency model lands around 545 per window. A ``7F`` reply
carries no reading: it is counted as a negative and adds no update.
"""

from __future__ import annotations

import io
import itertools
import statistics
from collections import deque
from dataclasses import dataclass

from .obd import CORE_PIDS, NegativeResponseError, ObdError

DEFAULT_WINDOW_MS = 60_000.0
RAMP_FRACTION = 0.95


@dataclass(frozen=True)
class LatencyStats:
    mean_ms: float
    min_ms: float
    max_ms: float
    p50_ms: float
    p95_ms: float


@dataclass
class BenchReport:
    duration_ms: float
    window_ms: float
    replies: int
    window_counts: list[int]
    latency: LatencyStats | None
    plateau: float | None
    ramp_updates: int | None
    negatives: int = 0
    interrupted: bool = False

    def to_dict(self) -> dict:
        """The report as ``bench-obd --json`` prints it, without ``window_counts``."""
        return {
            "duration_ms": self.duration_ms,
            "window_ms": self.window_ms,
            "replies": self.replies,
            "negatives": self.negatives,
            "latency": {**vars(self.latency)} if self.latency else None,
            "plateau": self.plateau,
            "ramp_updates": self.ramp_updates,
            "interrupted": self.interrupted,
        }

    def series_csv(self) -> bytes:
        out = io.StringIO()
        out.write("update_index,commands_in_window\n")
        for i, count in enumerate(self.window_counts, start=1):
            out.write(f"{i},{count}\n")
        return out.getvalue().encode("utf-8")

    def summary(self) -> str:
        lines = [
            f"replies: {self.replies} over {self.duration_ms / 1000.0:.0f}s",
            f"negative replies: {self.negatives}",
            f"plateau (window count): {self.plateau:.1f}" if self.plateau is not None else "plateau: n/a",
            f"ramp complete at update: {self.ramp_updates}" if self.ramp_updates else "ramp: n/a",
        ]
        if self.latency:
            lines.append(
                "latency ms: mean {mean_ms:.1f} min {min_ms:.1f} max {max_ms:.1f} "
                "p50 {p50_ms:.1f} p95 {p95_ms:.1f}".format_map(vars(self.latency))
            )
        return "\n".join(lines)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an already sorted list."""
    if not sorted_values:
        raise ValueError("no values")
    idx = round(q * (len(sorted_values) - 1))
    return sorted_values[int(idx)]


def run_obd_bench(
    link,
    clock,
    duration_ms: float,
    window_ms: float = DEFAULT_WINDOW_MS,
) -> BenchReport:
    """Poll the core PIDs back to back until the deadline, one window count per reading."""
    reply_times: deque[float] = deque()
    window_counts: list[int] = []
    latencies: list[float] = []
    t_start = clock.now_ms()
    deadline = t_start + duration_ms
    pids = itertools.cycle(CORE_PIDS)
    negatives = 0
    interrupted = False
    # One clock read per turn: the time a reply lands is when the next request is issued.
    issued = t_start
    while issued < deadline:
        try:
            link.request(next(pids))
        except NegativeResponseError:
            negatives += 1
            issued = clock.now_ms()
            continue
        except (ConnectionError, OSError, ObdError):
            # Emit whatever was measured so far as a partial report.
            interrupted = True
            break
        received = clock.now_ms()
        latencies.append(received - issued)
        reply_times.append(received)
        while reply_times and reply_times[0] <= received - window_ms:
            reply_times.popleft()
        window_counts.append(len(reply_times))
        issued = received

    latency_stats = None
    if latencies:
        ordered = sorted(latencies)
        latency_stats = LatencyStats(
            mean_ms=statistics.fmean(latencies),
            min_ms=ordered[0],
            max_ms=ordered[-1],
            p50_ms=percentile(ordered, 0.50),
            p95_ms=percentile(ordered, 0.95),
        )
    plateau = _estimate_plateau(window_counts, latencies, window_ms)
    ramp = _ramp_updates(window_counts, plateau)
    return BenchReport(
        duration_ms=duration_ms,
        window_ms=window_ms,
        replies=len(window_counts),
        window_counts=window_counts,
        latency=latency_stats,
        plateau=plateau,
        ramp_updates=ramp,
        negatives=negatives,
        interrupted=interrupted,
    )


def _estimate_plateau(window_counts, latencies, window_ms) -> float | None:
    """Mean window count over updates whose window was already full."""
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


def _ramp_updates(window_counts, plateau) -> int | None:
    if plateau is None:
        return None
    threshold = RAMP_FRACTION * plateau
    for i, count in enumerate(window_counts, start=1):
        if count >= threshold:
            return i
    return None
