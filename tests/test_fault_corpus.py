"""The trace bytes of seeded trips on the fault paths are pinned.

``test_golden_trace.py`` pins six trips on the happy path. Each case here
runs a fully wired ``SessionRunner`` on the simulated clock through one
fault or edge instead: an OBD link lost and then refused, or refused
before its first connect, negative (``7F``) replies one in five and on
every exchange, lowercase replies with a prompt, 1 ms and 2 s reply
latencies, non-default tick and GPS periods, no wearables and each
wearable alone, alert rules that fire again and again, context clients
that fail or only hit their quota, and a weather condition that only the
quoted CSV render can carry. Each compares the CSV sha256 with the value
recorded before the code it guards last changed, and checks that the
fault really happened, so a case cannot pass by silently taking the happy
path. The last test runs every case again with each memo on the trip path
replaced by the function it caches, which must not change a byte.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import pytest

from fogtrace import obd
from fogtrace.clock import DEFAULT_SIM_EPOCH_MS, SimulatedClock
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
from fogtrace.gateway import Gateway, SessionRunner, session
from fogtrace.gateway.obd_poller import BACKOFF_INITIAL_MS
from fogtrace.gateway.records import csv_to_rows, sha256_hex
from fogtrace.obd import render_negative_response
from fogtrace.vehicle import DriveProfile, InProcessObdLink, LatencyModel, VehicleSimulator
from fogtrace.wearables import MiBand, PhysioModel, Polar, Spire

KEY = bytes(range(32))
WEARABLES = ("miband-1", "polar-1", "spire-1")
OBD_CHANNELS = {"rpm", "speed_kmh", "throttle_pct"}

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
    "every-reply-negative": "63add4001005d271802bd420d25e7bc26c1381d23e72f0efcfc3ee5bdf38dde8",
    "latency-1-1-1": "02799c04a9e4fd05341661b22a865932984f6b2384c6722888219bfb69802db8",
    "latency-50-80-2000": "0a22ec995c0a57d21f2100425179edd4ca72ebe8e1371f0cbb83b1b5152c2554",
    "only-miband-1": "ba9a5bc4c03201cc79c3b598b4fbb396baff10e5228e1ae247751ca95b5ac09d",
    "only-polar-1": "892a651ec9816b1eacc9977cf6e51399835824df3c6406ca8c46126ece886991",
    "only-spire-1": "5eb856629605939c41f0b20a79a80be722f60f5ff5e383e8b843747bba967bc7",
    "weather-condition-quoted": "de40a71e1c6621748ce5e67795cebd101c01dee1b4198e77ab50099da62e55ce",
    "link-refused-before-first-connect": "fa6024996c87462ac5ac4c04aa3b21b3235c8a5ebe5cdb9b2feeb49785bc399f",
    "context-quota-only": "519a9aa0c76ceb39980f6b2c63151d7982cbca45ce131ba5d8f162e718d346ed",
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


class _EveryNthNegative(InProcessObdLink):
    """Answers every ``period``-th exchange with a ``7F`` frame, after its usual delay."""

    def __init__(self, simulator, clock, period: int):
        super().__init__(simulator, clock)
        self.period, self.exchanges = period, 0

    def transact(self, raw_request: bytes) -> bytes:
        reply = super().transact(raw_request)
        self.exchanges += 1
        return render_negative_response(0x01) if self.exchanges % self.period == 0 else reply


class _LowerCasePrompted(InProcessObdLink):
    """Answers with the reply in lowercase hex followed by an ELM327 ``>`` prompt."""

    def transact(self, raw_request: bytes) -> bytes:
        return super().transact(raw_request).lower() + b">"


# A weather condition with a comma, a quote and a CR, which only the quoted
# CSV render can carry.
AWKWARD_CONDITION = 'rain, "heavy"\rgusts'


class _AwkwardWeather:
    """Wraps a weather provider; every observation's condition is ``AWKWARD_CONDITION``."""

    def __init__(self, inner):
        self.inner = inner

    def fetch(self, lat: float, lon: float):
        return dataclasses.replace(self.inner.fetch(lat, lon), condition=AWKWARD_CONDITION)


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
    wearables: tuple[str, ...] = WEARABLES,
    fail_every: int = 0,
    weather_provider=None,
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
    if weather_provider:
        weather = weather_provider(weather)
    if fail_every:
        flow, weather = _FailingProvider(flow, fail_every), _FailingProvider(weather, fail_every + 1)
    runner = SessionRunner(
        Gateway(clock=clock, key=KEY, config=cfg),
        clock,
        simulator=simulator,
        obd_link_factory=factory,
        wearables=tuple(device for device in devices if device.device_id in wearables),
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


def test_link_refused_before_first_connect():
    # The first three connects are refused: the session's first OBD row
    # waits out the 0.5 + 1 + 2 s backoff, and no reconnect is reported
    # for a link that never was up.
    result, runner = _trip("aggressive", 101, 120.0, link=lambda sim, clock: _LinkFaults(sim, clock, 0, 3))
    assert runner.obd_link_factory.refusals == 0
    assert result.obd.reconnects == 0 and result.obd.dropped_ms == 0
    assert b"obd-reconnect" not in result.csv_bytes
    first_obd = min(row.timestamp_ms for row in csv_to_rows(result.csv_bytes) if row.channel in OBD_CHANNELS)
    assert first_obd >= DEFAULT_SIM_EPOCH_MS + BACKOFF_INITIAL_MS * (1 + 2 + 4)
    _pinned("link-refused-before-first-connect", result)


def test_negative_one_in_five():
    result, _ = _trip("calm", 101, 240.0, link=lambda sim, clock: lambda: _EveryNthNegative(sim, clock, 5))
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
    result, _ = _trip("calm", 7, 120.0, wearables=())
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


def test_context_quota_only():
    # The providers never fail; a 250 ms poll period asks each client for
    # 240 fetches a minute against its quota of 60, so every failure is a
    # refused permit.
    result, _ = _trip("calm", 7, 120.0, config={"external.period_ms": "250"})
    assert result.context_failures > 0
    assert b"traffic_current_speed" in result.csv_bytes and b"weather_temp_c" in result.csv_bytes
    _pinned("context-quota-only", result)


def test_every_reply_negative():
    links = []

    def connect(simulator, clock):
        def link():
            links.append(_EveryNthNegative(simulator, clock, 1))
            return links[-1]

        return link

    result, _ = _trip("aggressive", 7, 120.0, link=connect)
    assert result.obd.rows == 0 and result.obd.negatives == sum(link.exchanges for link in links) > 0
    assert not OBD_CHANNELS & {row.channel for row in csv_to_rows(result.csv_bytes)}
    _pinned("every-reply-negative", result)


def test_lowercase_prompted_replies_give_the_canonical_trace():
    # The same trip as the no-wearables case, read through non-canonical
    # but valid reply frames.
    result, _ = _trip("calm", 7, 120.0, wearables=(), link=lambda sim, clock: lambda: _LowerCasePrompted(sim, clock))
    assert result.obd.rows > 0
    _pinned("no-wearables", result)


# A 1 ms link answers about 1,000 exchanges a second, so that trip is short.
LATENCIES = (("1,1,1", 20.0), ("50,80,2000", 120.0))


@pytest.mark.parametrize("latency,duration_s", LATENCIES, ids=["latency-1-1-1", "latency-50-80-2000"])
def test_latency_extremes(latency, duration_s):
    low, mode, high = latency.split(",")
    config = {"vehicle.latency.min_ms": low, "vehicle.latency.mode_ms": mode, "vehicle.latency.max_ms": high}
    result, runner = _trip("aggressive", 101, duration_s, config=config)
    assert (runner.simulator.latency.min_ms, runner.simulator.latency.max_ms) == (float(low), float(high))
    assert result.obd.rows > 0
    _pinned(f"latency-{latency.replace(',', '-')}", result)


@pytest.mark.parametrize("wearable", WEARABLES)
def test_one_wearable_alone(wearable):
    result, _ = _trip("calm", 303, 120.0, wearables=(wearable,))
    sources = {row.source for row in csv_to_rows(result.csv_bytes)}
    assert wearable in sources and not sources & (set(WEARABLES) - {wearable})
    _pinned(f"only-{wearable}", result)


def test_weather_condition_that_needs_quoting():
    result, _ = _trip("calm", 7, 120.0, weather_provider=_AwkwardWeather)
    assert b'"rain, ""heavy""\rgusts"' in result.csv_bytes
    conditions = {row.value for row in csv_to_rows(result.csv_bytes) if row.channel == "weather_condition"}
    assert conditions == {AWKWARD_CONDITION}
    _pinned("weather-condition-quoted", result)


# Every memo on the trip path: the codec's three and the session's OBD cell.
MEMOS = ((obd, "_render"), (obd, "_parse_request"), (obd, "_parse_reply"), (session, "_obd_cell"))

CASES = (
    test_link_lost_then_refused,
    test_link_refused_before_first_connect,
    test_negative_one_in_five,
    test_coarse_tick_and_gps,
    test_no_wearables,
    test_alerts_fire_repeatedly,
    test_context_clients_fail,
    test_context_quota_only,
    test_every_reply_negative,
    test_lowercase_prompted_replies_give_the_canonical_trace,
    *(functools.partial(test_latency_extremes, *latency) for latency in LATENCIES),
    *(functools.partial(test_one_wearable_alone, wearable) for wearable in WEARABLES),
    test_weather_condition_that_needs_quoting,
)


def test_every_case_is_the_same_with_every_memo_bypassed(monkeypatch):
    memos = [getattr(module, name) for module, name in MEMOS]
    for (module, name), memo in zip(MEMOS, memos):
        monkeypatch.setattr(module, name, memo.__wrapped__)
    before = [memo.cache_info() for memo in memos]
    for case in CASES:
        case()
    # Not one lookup went through a memo.
    assert [memo.cache_info() for memo in memos] == before
