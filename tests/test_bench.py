from __future__ import annotations

import pytest

from fogtrace.bench import DEFAULT_WINDOW_MS, percentile, run_obd_bench
from fogtrace.clock import SimulatedClock
from fogtrace.vehicle import InProcessObdLink, LatencyModel, VehicleSimulator


def make_link(latency: LatencyModel):
    clock = SimulatedClock()
    sim = VehicleSimulator(latency=latency, start_ms=clock.now_ms())
    return InProcessObdLink(sim, clock), clock


def _mean_ms(model: LatencyModel) -> float:
    """The mean of the triangular delay distribution."""
    return (model.min_ms + model.mode_ms + model.max_ms) / 3


class TestFixedLatency:
    def test_plateau_600_at_100ms(self):
        link, clock = make_link(LatencyModel.fixed(100.0))
        report = run_obd_bench(link, clock, 120_000.0)
        assert report.plateau == pytest.approx(600.0, rel=0.01)
        # Once the window is full, the count is exactly the analytic value.
        assert set(report.window_counts[700:]) == {600}

    def test_window_count_equals_update_index_during_ramp(self):
        link, clock = make_link(LatencyModel.fixed(100.0))
        report = run_obd_bench(link, clock, 90_000.0)
        for i, count in enumerate(report.window_counts[:599], start=1):
            assert count == i


class TestTriangularModel:
    def test_ramp_and_plateau(self):
        link, clock = make_link(LatencyModel(seed=9))
        report = run_obd_bench(link, clock, 300_000.0)
        expected = DEFAULT_WINDOW_MS / _mean_ms(link.latency)
        assert report.plateau == pytest.approx(expected, rel=0.05)
        assert report.ramp_updates is not None
        assert 400 <= report.ramp_updates <= 650
        # The ramp is monotone: window counts never decrease before it completes.
        ramp = report.window_counts[: report.ramp_updates]
        assert all(b >= a for a, b in zip(ramp, ramp[1:]))

    def test_latency_stats_within_support(self):
        link, clock = make_link(LatencyModel(seed=9))
        report = run_obd_bench(link, clock, 120_000.0)
        stats = report.latency
        assert 50.0 <= stats.min_ms <= stats.p50_ms <= stats.p95_ms <= stats.max_ms <= 200.0
        assert 105.0 <= stats.mean_ms <= 115.0


class TestDeterminism:
    def test_same_seed_identical_report(self):
        first = run_obd_bench(*make_link(LatencyModel(seed=21)), 90_000.0)
        second = run_obd_bench(*make_link(LatencyModel(seed=21)), 90_000.0)
        assert first == second

    def test_different_seed_differs(self):
        first = run_obd_bench(*make_link(LatencyModel(seed=1)), 90_000.0)
        second = run_obd_bench(*make_link(LatencyModel(seed=2)), 90_000.0)
        assert first != second


class TestAnalyticCrossCheck:
    @pytest.mark.parametrize(
        "model",
        [
            LatencyModel.fixed(60.0),
            LatencyModel(min_ms=50.0, mode_ms=80.0, max_ms=200.0, seed=5),
            LatencyModel(min_ms=80.0, mode_ms=100.0, max_ms=180.0, seed=5),
        ],
    )
    def test_plateau_matches_mean_cycle(self, model):
        link, clock = make_link(model)
        report = run_obd_bench(link, clock, 240_000.0)
        assert report.plateau == pytest.approx(DEFAULT_WINDOW_MS / _mean_ms(model), rel=0.05)


class TestReportOutputs:
    def test_series_csv_parses(self):
        link, clock = make_link(LatencyModel.fixed(100.0))
        report = run_obd_bench(link, clock, 5_000.0)
        lines = report.series_csv().decode().strip().split("\n")
        assert lines[0] == "update_index,commands_in_window"
        assert len(lines) == report.replies + 1
        first = lines[1].split(",")
        assert first == ["1", "1"]

    def test_to_dict_runs(self):
        link, clock = make_link(LatencyModel.fixed(100.0))
        report = run_obd_bench(link, clock, 5_000.0)
        data = report.to_dict()
        assert data["replies"] == 50
        assert data["negatives"] == 0
        assert not data["interrupted"]

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert percentile(values, 0.5) == pytest.approx(50.0, abs=1.0)


class TestPartialReport:
    def test_connection_loss_yields_partial(self):
        class DyingLink:
            def __init__(self, inner, n):
                self.inner, self.n = inner, n

            def request(self, pid):
                if self.n <= 0:
                    raise ConnectionError("gone")
                self.n -= 1
                return self.inner.request(pid)

        link, clock = make_link(LatencyModel.fixed(100.0))
        report = run_obd_bench(DyingLink(link, 25), clock, 60_000.0)
        assert report.interrupted
        assert report.replies == 25


class ScriptedLink(InProcessObdLink):
    """The simulator's link, but the n-th request is answered with ``frames[n]``."""

    def __init__(self, frames: dict[int, bytes], latency: LatencyModel):
        clock = SimulatedClock()
        super().__init__(VehicleSimulator(latency=latency, start_ms=clock.now_ms()), clock)
        self.frames = frames
        self.requests = 0

    def transact(self, raw_request: bytes) -> bytes:
        reply = super().transact(raw_request)
        self.requests += 1
        return self.frames.get(self.requests, reply)


class TestNegativeReplies:
    def test_negative_reply_is_counted_and_the_run_goes_on(self):
        link = ScriptedLink({5: b"7F 01 12\r"}, LatencyModel.fixed(100.0))
        report = run_obd_bench(link, link.clock, 10_000.0)
        assert not report.interrupted
        assert report.negatives == 1
        assert report.replies + report.negatives == link.requests == 100
        # A negative is no reading: no window update and no latency sample.
        assert len(report.window_counts) == report.replies == 99
        assert report.window_counts[4] == 5  # the sixth request: five readings in the window
        assert report.to_dict()["negatives"] == 1
        assert "negative replies: 1" in report.summary()

    def test_only_negatives_still_ends_at_the_deadline(self):
        link = ScriptedLink({n: b"7F 01 12\r" for n in range(1, 51)}, LatencyModel.fixed(100.0))
        report = run_obd_bench(link, link.clock, 5_000.0)
        assert (report.replies, report.negatives, report.interrupted) == (0, 50, False)
        assert report.latency is None and report.plateau is None

    @pytest.mark.parametrize("frame", [b"41 0C\r", b"no frame\r", b"41 0D 3C 00\r", b"7F 01\r"])
    def test_other_codec_error_ends_with_a_partial_report(self, frame):
        link = ScriptedLink({5: frame}, LatencyModel.fixed(100.0))
        report = run_obd_bench(link, link.clock, 10_000.0)
        assert report.interrupted
        assert (report.replies, report.negatives) == (4, 0)
