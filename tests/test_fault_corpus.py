"""The trace bytes of seeded trips on the fault paths are pinned.

``test_golden_trace.py`` pins six trips on the happy path. Each case here
runs a fully wired ``SessionRunner`` on the simulated clock through one
fault instead: a lost and refused OBD link, negative (``7F``) replies,
non-default tick and GPS periods, no wearables, alert rules that fire
again and again, and context clients that fail. Each compares the CSV
sha256 with the value recorded before the simulator lost its derived
state, and checks that the fault really happened, so a case cannot pass
by silently taking the happy path.
"""

from __future__ import annotations

from collections import Counter

import pytest

from fogtrace.clock import SimulatedClock
from fogtrace.config import Config
from fogtrace.external import (
    FlowService,
    LocalFlowProvider,
    LocalWeatherProvider,
    RateLimiter,
    ServiceUnavailableError,
    TrafficClient,
    WeatherClient,
    WeatherService,
)
from fogtrace.gateway import Gateway, SessionRunner
from fogtrace.gateway.records import csv_to_rows, sha256_hex
from fogtrace.obd import render_negative_response
from fogtrace.vehicle import DriveProfile, InProcessObdLink, LatencyModel, VehicleSimulator
from fogtrace.wearables import MiBand, PhysioModel, Polar, Spire

KEY = bytes(range(32))

# Hard stops and starts, then a rest: the driver's stress climbs past the
# tension band and falls back, so the stress rule fires more than once.
STOP_GO = DriveProfile("stop-go", ((6.0, 120.0), (6.0, 0.0)) * 7 + ((30.0, 0.0),), 5.0)

CORPUS_SHA256 = {
    "link-lost-then-refused": "4e36e16b5b17a7156dcc6a45a3df0e12f6a100e8e027326cc1d02e9bbb17815b",
    "negative-one-in-five": "34784495c8afc9b61c621ac1eecdd399135430d624080cff51535ba7472824ce",
    "coarse-tick-and-gps": "479b1f077c616ecbe0730e74d5daa049c2395259996560ec1096091ec6764037",
    "no-wearables": "339e1d3d295029902f8abfd1f66367b63fceecfdc56f31872c790e4b7f7e676f",
    "alerts-fire-repeatedly": "6593fcc0ceef3a8a998694548b903e83e92e010535102d752bd1b694994424ef",
    "context-clients-fail": "07fd18afac3ac67b001b629083415351c75371dd21786c7edaa6bbd70c27d830",
}


class _LinkFaults:
    """Link factory over one simulator: loses the link at exchange ``lose_at``, then refuses ``refusals`` connects."""

    def __init__(self, simulator, clock, lose_at: int, refusals: int):
        self.simulator, self.clock = simulator, clock
        self.lose_at, self.refusals = lose_at, refusals
        self.exchanges = 0

    def __call__(self):
        if self.exchanges >= self.lose_at and self.refusals > 0:
            self.refusals -= 1
            raise ConnectionRefusedError("synthetic refusal")
        link = InProcessObdLink(self.simulator, self.clock)
        inner = link.transact

        def transact(raw_request: bytes) -> bytes:
            self.exchanges += 1
            if self.exchanges == self.lose_at:
                raise ConnectionResetError("synthetic link loss")
            return inner(raw_request)

        link.transact = transact
        return link


class _EveryFifthNegative(InProcessObdLink):
    """Answers every fifth exchange with a ``7F`` frame, after its usual delay."""

    exchanges = 0

    def transact(self, raw_request: bytes) -> bytes:
        reply = super().transact(raw_request)
        self.exchanges += 1
        return render_negative_response(0x01) if self.exchanges % 5 == 0 else reply


class _FailingProvider:
    """Wraps a provider; every ``period``-th fetch raises ``ServiceUnavailableError``."""

    def __init__(self, inner, period: int):
        self.inner, self.period = inner, period
        self.calls = 0

    def fetch(self, lat: float, lon: float):
        self.calls += 1
        if self.calls % self.period == 0:
            raise ServiceUnavailableError("synthetic outage")
        return self.inner.fetch(lat, lon)


def _trip(
    profile: str | DriveProfile,
    seed: int,
    duration_s: float,
    config: dict | None = None,
    link=None,
    wearables: bool = True,
    fail_every: int = 0,
):
    """Run one trip; ``link(simulator, clock)`` gives the link factory, the in-process link by default."""
    clock = SimulatedClock()
    cfg = Config({"seed": str(seed), **(config or {})})
    if isinstance(profile, DriveProfile):
        simulator = VehicleSimulator(profile, LatencyModel(seed=seed), start_ms=clock.now_ms())
    else:
        simulator = VehicleSimulator.from_config(cfg.merged({"vehicle.profile": profile}), start_ms=clock.now_ms())
    factory = link(simulator, clock) if link else (lambda: InProcessObdLink(simulator, clock))
    physio = PhysioModel()
    devices = (MiBand("miband-1", physio, seed), Polar("polar-1", physio, seed), Spire("spire-1", physio, seed))
    flow = LocalFlowProvider(FlowService(seed), clock)
    weather = LocalWeatherProvider(WeatherService(seed), clock)
    if fail_every:
        flow, weather = _FailingProvider(flow, fail_every), _FailingProvider(weather, fail_every + 1)
    runner = SessionRunner(
        Gateway(clock=clock, key=KEY, config=cfg),
        clock,
        simulator=simulator,
        obd_link_factory=factory,
        wearables=devices if wearables else (),
        physio=physio if wearables else None,
        traffic=TrafficClient(flow, RateLimiter(clock=clock), clock),
        weather=WeatherClient(weather, RateLimiter(clock=clock), clock),
    )
    result = runner.run("driver-1", "vehicle-1", duration_s, upload=False)
    assert result.manifest.csv_sha256 == sha256_hex(result.csv_bytes)
    return result, runner


def _pinned(case: str, result) -> None:
    assert result.manifest.csv_sha256 == CORPUS_SHA256[case]


def test_link_lost_then_refused():
    # The link dies at its 800th exchange and the next three connects are
    # refused; GPS fixes and the context poll catch up after the outage.
    result, runner = _trip("aggressive", 7, 300.0, link=lambda sim, clock: _LinkFaults(sim, clock, 800, 3))
    assert runner.obd_link_factory.refusals == 0
    assert result.obd.reconnects == 1 and result.obd.dropped_ms > 0
    assert b"obd-reconnect" in result.csv_bytes
    _pinned("link-lost-then-refused", result)


def test_negative_one_in_five():
    result, _ = _trip("calm", 101, 240.0, link=lambda sim, clock: lambda: _EveryFifthNegative(sim, clock))
    assert result.obd.negatives > 0
    assert result.obd.rows == pytest.approx(4 * result.obd.negatives, abs=4)
    _pinned("negative-one-in-five", result)


def test_coarse_tick_and_gps():
    result, runner = _trip("aggressive", 303, 180.0, config={"vehicle.tick_ms": "250", "gateway.gps_period_ms": "500"})
    assert runner.simulator.tick_ms == 250.0
    rows = csv_to_rows(result.csv_bytes)
    assert sum(1 for row in rows if row.channel == "lat") >= 2 * 180 - 2
    _pinned("coarse-tick-and-gps", result)


def test_no_wearables():
    result, _ = _trip("calm", 7, 120.0, wearables=False)
    sources = {row.source for row in csv_to_rows(result.csv_bytes)}
    assert not sources & {"miband-1", "polar-1", "spire-1"}
    _pinned("no-wearables", result)


def test_alerts_fire_repeatedly():
    result, _ = _trip(STOP_GO, 101, 300.0, config={"gateway.hr_limit_bpm": "85", "gateway.overspeed_kmh": "100"})
    fired = Counter(event.rule for event in result.alerts)
    assert fired["hr-high"] >= 2 and fired["overspeed"] >= 2 and fired["stress"] >= 2
    _pinned("alerts-fire-repeatedly", result)


def test_context_clients_fail():
    # Every third traffic and every fourth weather fetch fails, and a 500 ms
    # poll period exhausts the 60-a-minute client quota.
    result, _ = _trip("calm", 303, 150.0, config={"external.period_ms": "500"}, fail_every=3)
    assert result.context_failures > result.context_rounds // 2
    assert b"traffic_current_speed" in result.csv_bytes and b"weather_temp_c" in result.csv_bytes
    _pinned("context-clients-fail", result)
