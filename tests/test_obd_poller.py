from __future__ import annotations

import pytest

from fogtrace.gateway import Gateway, obd_poll_loop
from fogtrace.gateway.session import KIND_OBD, LocalSource
from fogtrace.vehicle import InProcessObdLink, LatencyModel, VehicleSimulator


@pytest.fixture
def gateway(sim_clock, key):
    gw = Gateway(clock=sim_clock, key=key)
    gw.pair_device(LocalSource("obd-1", KIND_OBD))
    return gw


def make_link_factory(sim_clock, latency):
    sim = VehicleSimulator(latency=latency, start_ms=sim_clock.now_ms())
    return lambda: InProcessObdLink(sim, sim_clock)


class TestThroughput:
    def test_60s_against_default_model(self, gateway, sim_clock):
        session = gateway.start_session("d", "v")
        stats = obd_poll_loop(
            make_link_factory(sim_clock, LatencyModel(seed=3)),
            session,
            sim_clock,
            source="obd-1",
            duration_ms=60_000.0,
        )
        # ~545 replies per minute at the 110 ms mean cycle
        assert abs(stats.rows - 545) <= 545 * 0.05

    @pytest.mark.parametrize("delay_ms,expected", [(50.0, 1200), (100.0, 600), (200.0, 300)])
    def test_fixed_latency_commands_per_minute(self, sim_clock, key, delay_ms, expected):
        gateway = Gateway(clock=sim_clock, key=key)
        gateway.pair_device(LocalSource("obd-1", KIND_OBD))
        session = gateway.start_session("d", "v")
        stats = obd_poll_loop(
            make_link_factory(sim_clock, LatencyModel.fixed(delay_ms)),
            session,
            sim_clock,
            source="obd-1",
            duration_ms=60_000.0,
        )
        assert abs(stats.rows - expected) <= expected * 0.02

    def test_rows_land_in_session(self, gateway, sim_clock):
        session = gateway.start_session("d", "v")
        obd_poll_loop(
            make_link_factory(sim_clock, LatencyModel.fixed(100.0)),
            session,
            sim_clock,
            source="obd-1",
            duration_ms=3_000.0,
        )
        csv_bytes, manifest = gateway.end_session()
        assert manifest.row_count == 30
        assert b"rpm" in csv_bytes and b"speed_kmh" in csv_bytes and b"throttle_pct" in csv_bytes


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
    def test_session_survives_connection_loss(self, gateway, sim_clock):
        sim = VehicleSimulator(latency=LatencyModel.fixed(100.0), start_ms=sim_clock.now_ms())
        attempts = []

        def factory():
            attempts.append(sim_clock.now_ms())
            if len(attempts) == 2:
                # First reconnect attempt fails outright, forcing backoff.
                raise ConnectionError("still down")
            return _FlakyLink(InProcessObdLink(sim, sim_clock), 10)

        session = gateway.start_session("d", "v")
        stats = obd_poll_loop(
            factory, session, sim_clock, source="obd-1", duration_ms=30_000.0
        )
        csv_bytes, _ = gateway.end_session()
        assert stats.reconnects >= 1
        assert stats.rows > 10  # polling resumed after the loss
        assert b"obd-reconnect" in csv_bytes

    def test_backoff_doubles_between_attempts(self, gateway, sim_clock):
        sim = VehicleSimulator(latency=LatencyModel.fixed(100.0), start_ms=sim_clock.now_ms())
        attempts = []

        def factory():
            attempts.append(sim_clock.now_ms())
            if 2 <= len(attempts) <= 4:
                raise ConnectionError("down")
            return _FlakyLink(InProcessObdLink(sim, sim_clock), 5)

        session = gateway.start_session("d", "v")
        obd_poll_loop(factory, session, sim_clock, source="obd-1", duration_ms=20_000.0)
        # Gaps between the failed attempts follow the 0.5 s / 1 s / 2 s ladder.
        gaps = [b - a for a, b in zip(attempts[1:], attempts[2:])]
        assert gaps[0] == pytest.approx(500.0)
        assert gaps[1] == pytest.approx(1000.0)
        assert gaps[2] == pytest.approx(2000.0)

    def test_deadline_bounds_reconnect_attempts(self, gateway, sim_clock):
        def factory():
            raise ConnectionError("permanently down")

        session = gateway.start_session("d", "v")
        stats = obd_poll_loop(factory, session, sim_clock, source="obd-1", duration_ms=5_000.0)
        assert stats.rows == 0


class TestStopConditions:
    def test_stop_callback(self, gateway, sim_clock):
        session = gateway.start_session("d", "v")
        seen = []

        def on_cycle(now):
            seen.append(now)
            if len(seen) == 5:
                gateway.end_session()

        stats = obd_poll_loop(
            make_link_factory(sim_clock, LatencyModel.fixed(100.0)),
            session,
            sim_clock,
            source="obd-1",
            on_cycle=on_cycle,
        )
        assert stats.rows == 5

    def test_session_close_stops_loop(self, gateway, sim_clock):
        session = gateway.start_session("d", "v")
        gateway.end_session()
        stats = obd_poll_loop(
            make_link_factory(sim_clock, LatencyModel.fixed(100.0)),
            session,
            sim_clock,
            source="obd-1",
            duration_ms=10_000.0,
        )
        assert stats.rows == 0
