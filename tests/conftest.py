from __future__ import annotations

import contextlib
from http.server import BaseHTTPRequestHandler

import pytest

from fogtrace.clock import SimulatedClock, SystemClock
from fogtrace.cloudstore import ClientAccount, CloudClient, CloudStoreHTTPServer, CloudStoreService
from fogtrace.external import (
    FlowService,
    LocalFlowProvider,
    LocalWeatherProvider,
    RateLimiter,
    TrafficClient,
    WeatherClient,
    WeatherService,
)
from fogtrace.gateway import Gateway, SessionRunner
from fogtrace.served import ServedHttp, send_reply
from fogtrace.vehicle import PROFILES, InProcessObdLink, LatencyModel, VehicleSimulator
from fogtrace.wearables import MiBand, PhysioModel, Polar, Spire

TEST_KEY = bytes(range(32))


@pytest.fixture
def sim_clock() -> SimulatedClock:
    return SimulatedClock()


@pytest.fixture
def key() -> bytes:
    return TEST_KEY


@pytest.fixture
def no_wall_clock(monkeypatch):
    """Fail whatever reads or sleeps on the wall clock through ``SystemClock``, on any thread."""

    def refuse(self, *args):
        raise AssertionError("the wall clock was used")

    monkeypatch.setattr(SystemClock, "now_ms", refuse)
    monkeypatch.setattr(SystemClock, "sleep_ms", refuse)


class _CannedHandler(BaseHTTPRequestHandler):
    """Answers every GET and POST with its server's ``status`` and ``body``, as a captive portal or a proxy would."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        send_reply(self, self.server.owner.status, self.server.owner.body, {"Content-Type": "text/html"})

    do_POST = do_GET

    def log_message(self, fmt, *args):
        pass


class CannedServer(ServedHttp):
    def __init__(self, body: bytes, status: int = 200):
        self.body = body
        self.status = status
        super().__init__(_CannedHandler)


@pytest.fixture
def canned_server():
    """Start a loopback server that answers every request with the body (and status) given; stopped after the test."""
    with contextlib.ExitStack() as stack:
        yield lambda body, status=200: stack.enter_context(CannedServer(body, status))


@pytest.fixture
def accounts() -> dict[str, ClientAccount]:
    return {
        "gw": ClientAccount("gw", "gw-secret", frozenset({"upload", "read"})),
        "uploader": ClientAccount("uploader", "up-secret", frozenset({"upload"})),
        "reader": ClientAccount("reader", "rd-secret", frozenset({"read"})),
    }


@pytest.fixture
def store_service(tmp_path, accounts):
    service = CloudStoreService(tmp_path / "store", clients=accounts)
    yield service
    service.close()


@pytest.fixture
def store_server(store_service):
    with CloudStoreHTTPServer(store_service) as server:
        yield server


@pytest.fixture
def cloud_client(store_server):
    client = CloudClient(store_server.base_url, "gw", "gw-secret")
    yield client
    client.session.close()


@pytest.fixture
def pipeline_factory(sim_clock, key):
    """Fully wired session runner on the simulated clock."""

    def make(
        profile: str = "calm",
        seed: int = 7,
        context: bool = True,
        cloud_client=None,
        obd: bool = True,
        outbox_dir=None,
        trace_dir=None,
        config=None,
    ):
        clock = sim_clock
        sim = VehicleSimulator(
            profile=PROFILES[profile],
            latency=LatencyModel(seed=seed),
            seed=seed,
            start_ms=clock.now_ms(),
        )
        physio = PhysioModel()
        gateway = Gateway(
            clock=clock, key=key, outbox_dir=outbox_dir, trace_dir=trace_dir, config=config
        )
        traffic = weather = None
        if context:
            traffic = TrafficClient(
                LocalFlowProvider(FlowService(seed), clock), RateLimiter(clock=clock), clock
            )
            weather = WeatherClient(
                LocalWeatherProvider(WeatherService(seed), clock), RateLimiter(clock=clock), clock
            )
        runner = SessionRunner(
            gateway,
            clock,
            simulator=sim,
            obd_link_factory=(lambda: InProcessObdLink(sim, clock)) if obd else None,
            wearables=(
                MiBand("miband-1", physio, seed),
                Polar("polar-1", physio, seed),
                Spire("spire-1", physio, seed),
            ),
            physio=physio,
            traffic=traffic,
            weather=weather,
            cloud_client=cloud_client,
        )
        return runner

    return make
