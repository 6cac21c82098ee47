"""obd-bench: the paper's polling benchmark on the in-process link.

``run_obd_bench`` polls back to back over ``InProcessObdLink`` for 3,600
simulated seconds at triangular (50, 80, 200) ms, about 32.8k replies, on
the simulated clock. No session work is involved, so the vehicle and codec
layers are measured on their own. One operation is one whole bench run.
"""

from __future__ import annotations

from fogtrace import bench as fogbench
from fogtrace.clock import SimulatedClock
from fogtrace.vehicle import InProcessObdLink, LatencyModel, VehicleSimulator

import checks
from common import Outcome, Speed, calibrated_clock, golden_problems, median, median_setup
from tracer import Tracer

DURATION_S = 3600.0
QUICK_DURATION_S = 300.0
WARMUP_S = 300.0


def bench(seed: int, duration_s: float, speed: Speed | None = None):
    """(report, (measured, reference-speed) seconds or None, clock start)."""
    clock = calibrated_clock(speed) if speed else SimulatedClock()
    simulator = VehicleSimulator(
        latency=LatencyModel(min_ms=50.0, mode_ms=80.0, max_ms=200.0, seed=seed),
        seed=seed,
        start_ms=clock.now_ms(),
    )
    link = InProcessObdLink(simulator, clock)
    start = clock.now_ms()
    if speed is None:
        return fogbench.run_obd_bench(link, clock, duration_s * 1000.0), None, start
    raw0, ref0 = speed.lap()
    report = fogbench.run_obd_bench(link, clock, duration_s * 1000.0)
    raw1, ref1 = speed.lap()
    return report, (raw1 - raw0, ref1 - ref0), start


def content_sha(seed: int, quick: bool, _work) -> str:
    """sha256 of the per-update window series CSV."""
    report, _, _ = bench(seed, QUICK_DURATION_S if quick else DURATION_S)
    return checks.sha256_hex(report.series_csv())


def run(seed: int, seconds: float, trace: bool, quick: bool, _work) -> Outcome:
    duration = QUICK_DURATION_S if quick else DURATION_S
    outcome = Outcome()
    speed = Speed()
    speed.start()
    setup_s, _ = median_setup(lambda: (None, bench(seed, WARMUP_S, speed)[1][1]), lambda _: None)
    tracer = Tracer()
    times: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    replies: list[int] = []
    expected = sha = None
    try:
        for tracing in (False, True) if trace else (False,):
            if tracing:
                # Imported here: layers loads the store and HTTP stack, which an
                # untraced obd-bench never uses and whose memory it must not count.
                import layers

                layers.install_gateway(tracer)
                # Calibration bursts as spans of their own: not self time of the link or bench.
                tracer.patch(speed, "tick", "calibration")
            spent = 0.0
            while spent < (seconds / 2 if trace else seconds) or not times[tracing]:
                outcome.attempted += 1
                report, took, start = bench(seed, duration, speed)
                spent += took[0]
                times[tracing].append(took)
                if not tracing:
                    replies.append(report.replies)
                if expected is None:
                    expected = checks.expected_bench(seed, duration * 1000.0, start)
                    sha = checks.sha256_hex(report.series_csv())
                    outcome.check(golden_problems("obd-bench", seed, quick, sha))
                outcome.check(checks.check_bench(report.to_dict(), report.window_counts, *expected))
                if checks.sha256_hex(report.series_csv()) != sha:
                    outcome.problems.append("the same seed produced different series within one run")
                del report  # the next bench's peak memory must be its own
    finally:
        tracer.unpatch()

    p50 = {k: median([ref for _, ref in v]) for k, v in times.items() if v}
    if trace:
        overhead = (p50[True] / p50[False] - 1.0) * 100.0
        outcome.metrics = layers.metrics(tracer.totals(), len(times[True]), {"trace.overhead_pct": overhead})
        outcome.tracer = tracer
        return outcome
    rate = sum(replies) / sum(ref for _, ref in times[False])
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50[False] * 1000.0, "ms"),
        "throughput_per_s": (rate, "1/s"),
    }
    outcome.detail = {
        "obd_replies_per_s": (rate, "1/s"),
        "bench_runs": (len(replies), "count"),
        "replies_per_run": (replies[0], "count"),
        "measured_op_p50_ms": (median([raw for raw, _ in times[False]]) * 1000.0, "ms"),
        "calibration_bursts": (speed.bursts, "count"),
    }
    return outcome
