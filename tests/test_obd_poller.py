from __future__ import annotations

from collections import Counter

import pytest

from fogtrace.clock import SimulatedClock
from fogtrace.gateway import Gateway, SessionRunner
from fogtrace.gateway.records import csv_to_rows
from fogtrace.vehicle import PROFILES, InProcessObdLink, LatencyModel, VehicleSimulator
from fogtrace.wearables import MiBand, PhysioModel, Polar, Spire


def make_link_factory(sim_clock, latency):
    sim = VehicleSimulator(latency=latency, start_ms=sim_clock.now_ms())
    return lambda: InProcessObdLink(sim, sim_clock)


def poll(sim_clock, key, factory, duration_s: float):
    """A session whose only producer is the OBD link, run through ``SessionRunner``."""
    gateway = Gateway(clock=sim_clock, key=key)
    runner = SessionRunner(gateway, sim_clock, obd_link_factory=factory)
    return runner.run("d", "v", duration_s, upload=False)


class TestThroughput:
    def test_60s_against_default_model(self, sim_clock, key):
        result = poll(sim_clock, key, make_link_factory(sim_clock, LatencyModel(seed=3)), 60.0)
        # ~545 replies per minute at the 110 ms mean cycle
        assert abs(result.obd.rows - 545) <= 545 * 0.05

    @pytest.mark.parametrize("delay_ms,expected", [(50.0, 1200), (100.0, 600), (200.0, 300)])
    def test_fixed_latency_commands_per_minute(self, sim_clock, key, delay_ms, expected):
        result = poll(sim_clock, key, make_link_factory(sim_clock, LatencyModel.fixed(delay_ms)), 60.0)
        assert abs(result.obd.rows - expected) <= expected * 0.02

    def test_rows_land_in_session(self, sim_clock, key):
        sim = VehicleSimulator(latency=LatencyModel.fixed(100.0), start_ms=sim_clock.now_ms())
        links = []

        def factory():
            links.append(InProcessObdLink(sim, sim_clock))
            return links[-1]

        gateway = Gateway(clock=sim_clock, key=key)
        result = SessionRunner(gateway, sim_clock, obd_link_factory=factory).run("d", "v", 3.0, upload=False)
        assert result.manifest.row_count == 30
        csv_bytes = result.csv_bytes
        assert b"rpm" in csv_bytes and b"speed_kmh" in csv_bytes and b"throttle_pct" in csv_bytes
        # The loop closes its one link and ends the session, freeing the gateway.
        assert [link.closed for link in links] == [True]
        assert gateway.active is None


class _FlakyLink:
    """Dies after a fixed number of replies."""

    def __init__(self, inner, replies_before_death: int):
        self.inner = inner
        self.remaining = replies_before_death

    def request(self, pid):
        if self.remaining <= 0:
            raise ConnectionError("synthetic link loss")
        self.remaining -= 1
        return self.inner.request(pid)

    def close(self):
        pass


class TestReconnect:
    def test_session_survives_connection_loss(self, sim_clock, key):
        sim = VehicleSimulator(latency=LatencyModel.fixed(100.0), start_ms=sim_clock.now_ms())
        attempts = []

        def factory():
            attempts.append(sim_clock.now_ms())
            if len(attempts) == 2:
                # First reconnect attempt fails outright, forcing backoff.
                raise ConnectionError("still down")
            return _FlakyLink(InProcessObdLink(sim, sim_clock), 10)

        result = poll(sim_clock, key, factory, 30.0)
        assert result.obd.reconnects >= 1
        assert result.obd.rows > 10  # polling resumed after the loss
        assert b"obd-reconnect" in result.csv_bytes

    def test_run_alerts_match_the_trace_alert_rows(self, sim_clock, key):
        sim = VehicleSimulator(
            profile=PROFILES["aggressive"], latency=LatencyModel.fixed(100.0), start_ms=sim_clock.now_ms()
        )
        result = poll(sim_clock, key, lambda: _FlakyLink(InProcessObdLink(sim, sim_clock), 500), 180.0)
        alert_rows = [row.value for row in csv_to_rows(result.csv_bytes) if row.channel == "alert"]
        # The rule engine's alerts and the poller's reconnect markers both count.
        assert Counter(alert_rows) == Counter(event.rule for event in result.alerts)
        assert {"obd-reconnect", "overspeed"} <= set(alert_rows)
        assert alert_rows.count("obd-reconnect") == result.obd.reconnects

    def test_backoff_doubles_between_attempts(self, sim_clock, key):
        sim = VehicleSimulator(latency=LatencyModel.fixed(100.0), start_ms=sim_clock.now_ms())
        attempts = []

        def factory():
            attempts.append(sim_clock.now_ms())
            if 2 <= len(attempts) <= 4:
                raise ConnectionError("down")
            return _FlakyLink(InProcessObdLink(sim, sim_clock), 5)

        poll(sim_clock, key, factory, 20.0)
        # Gaps between the failed attempts follow the 0.5 s / 1 s / 2 s ladder.
        gaps = [b - a for a, b in zip(attempts[1:], attempts[2:])]
        assert gaps[0] == pytest.approx(500.0)
        assert gaps[1] == pytest.approx(1000.0)
        assert gaps[2] == pytest.approx(2000.0)

    def test_deadline_bounds_reconnect_attempts(self, sim_clock, key):
        def factory():
            raise ConnectionError("permanently down")

        start = sim_clock.now_ms()
        result = poll(sim_clock, key, factory, 5.0)
        assert result.obd.rows == 0
        # The last backoff sleep may cross the deadline, but no attempt follows it.
        assert sim_clock.now_ms() - start < 5_000.0 + 4_000.0


class _NegativeLink(InProcessObdLink):
    """Answers every request, after the usual latency, with ``7F 01 12``."""

    def transact(self, raw_request: bytes) -> bytes:
        super().transact(raw_request)
        return b"7F 01 12\r"


class TestNegativeReplies:
    def _trip(self, link_type):
        clock = SimulatedClock()
        sim = VehicleSimulator(profile=PROFILES["calm"], latency=LatencyModel(seed=7), seed=7, start_ms=clock.now_ms())
        physio = PhysioModel()
        runner = SessionRunner(
            Gateway(clock=clock, key=bytes(32)),
            clock,
            simulator=sim,
            obd_link_factory=lambda: link_type(sim, clock),
            wearables=(MiBand("miband-1", physio, 7), Polar("polar-1", physio, 7), Spire("spire-1", physio, 7)),
            physio=physio,
        )
        result = runner.run("d", "v", 120.0, upload=False)
        return result, Counter(r.source for r in csv_to_rows(result.csv_bytes) if not r.interpolated)

    def test_negative_only_link_does_not_starve_producers(self):
        up, up_counts = self._trip(InProcessObdLink)
        negative, counts = self._trip(_NegativeLink)
        assert negative.obd.rows == 0 and negative.obd.negatives == up.obd.rows
        assert "obd-1" not in counts
        del up_counts["obd-1"]
        # Every other producer is serviced at the same instants as with the link up.
        assert counts == up_counts
        assert (counts["polar-1"], counts["spire-1"], counts["miband-1"], counts["gps-1"]) == (201, 48, 12, 240)
