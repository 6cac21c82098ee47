"""The shared lifecycle of the three loopback servers: start, serve, stop."""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

import pytest

from fogtrace.clock import SystemClock
from fogtrace.cloudstore import CloudStoreHTTPServer, CloudStoreService
from fogtrace.external_httpd import ContextStubServer
from fogtrace.httpclient import HttpSession
from fogtrace.obd import PID_RPM
from fogtrace.vehicle import LatencyModel, TcpObdLink, VehicleSimulator, VehicleTcpServer


def _vehicle(_tmp_path):
    clock = SystemClock()
    return VehicleTcpServer(VehicleSimulator(latency=LatencyModel.fixed(5.0), start_ms=clock.now_ms()), clock=clock)


def _vehicle_request(server):
    link = TcpObdLink(*server.address)
    try:
        assert link.request(PID_RPM).pid_id.pid == PID_RPM
    finally:
        link.close()


def _store_request(server):
    with contextlib.closing(HttpSession(server.base_url, timeout_s=10)) as session:
        assert session.request("GET", "/nope").status == 404


def _stub_request(server):
    with contextlib.closing(HttpSession(server.base_url, timeout_s=10)) as session:
        assert session.request("GET", "/flow", params={"lat": 52.52, "lon": 13.40}).status == 200


SERVERS = {
    "vehicle": (_vehicle, _vehicle_request),
    "store": (lambda tmp_path: CloudStoreHTTPServer(CloudStoreService(tmp_path / "store")), _store_request),
    "context-stub": (lambda _tmp_path: ContextStubServer(clock=SystemClock(), seed=4), _stub_request),
}


@pytest.fixture(params=sorted(SERVERS))
def served(request, tmp_path):
    make, one_request = SERVERS[request.param]
    return lambda: make(tmp_path), one_request


def test_exit_is_prompt_and_releases_the_port(served):
    make, one_request = served
    with make() as server:
        one_request(server)
        address = server.address
        t0 = time.perf_counter()
    assert time.perf_counter() - t0 < 0.2
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=1).close()


def test_stop_before_start_returns(served):
    make, _ = served
    server = make()
    # On a thread, so that a stop that blocks fails the test instead of hanging it.
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(server.address, timeout=1).close()


def test_second_stop_is_a_no_op(served):
    make, one_request = served
    server = make().start()
    one_request(server)
    server.stop()
    t0 = time.perf_counter()
    server.stop()
    assert time.perf_counter() - t0 < 0.2


# One request on a raw connection to each server, and the byte its answer ends with.
RAW_EXCHANGES = {
    "vehicle": (b"01 0C\r", b"\r"),
    "store": (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", b"}"),
    "context-stub": (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", b"}"),
}


def _answer(sock, request: bytes, end: bytes) -> bytes:
    """Send ``request`` and read until the answer ends with ``end``; b"" when none comes."""
    reply = b""
    try:
        sock.sendall(request)
        while not reply.endswith(end) and (chunk := sock.recv(4096)):
            reply += chunk
    except OSError:
        pass
    return reply


@pytest.mark.parametrize("name", sorted(SERVERS))
def test_stop_ends_open_connections(name, tmp_path):
    server = SERVERS[name][0](tmp_path).start()
    request, end = RAW_EXCHANGES[name]
    with socket.create_connection(server.address, timeout=5) as sock:
        assert _answer(sock, request, end).endswith(end)
        server.stop()
        assert _answer(sock, request, end) == b""


@pytest.mark.parametrize("name", ["store", "context-stub"])
@pytest.mark.parametrize(
    "request_bytes,status,error,detail",
    [
        (b"PUT /flow HTTP/1.1\r\nHost: x\r\n\r\n", 501, "not-implemented", "Unsupported method ('PUT')"),
        (b"DELETE /api/v1/traces HTTP/1.1\r\nHost: x\r\n\r\n", 501, "not-implemented", "Unsupported method ('DELETE')"),
        (b"GARBAGE\r\n\r\n", 400, "bad-request", "Bad request syntax ('GARBAGE')"),
        (b"GET / HTTP/x\r\n\r\n", 400, "bad-request", "Bad request version ('HTTP/x')"),
    ],
    ids=["put", "delete", "garbage", "bad-version"],
)
def test_errors_http_server_answers_are_json(name, tmp_path, request_bytes, status, error, detail):
    make, one_request = SERVERS[name]
    with make(tmp_path) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            head, _, body = _answer(sock, request_bytes, b"}").partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].split(b" ")[1] == str(status).encode()
        assert b"Content-Type: application/json" in lines
        assert b"Connection: close" in lines
        assert json.loads(body) == {"error": error, "detail": detail}
        # A new connection is served as usual.
        one_request(server)


def test_idle_stop_does_not_wait_for_a_poll(served):
    make, one_request = served
    stops = []
    for _ in range(5):
        server = make().start()
        one_request(server)
        t0 = time.perf_counter()
        server.stop()
        stops.append(time.perf_counter() - t0)
    assert min(stops) < 0.010, stops


# Each server's request cut short, so that its handler is still reading it.
PARTIAL_REQUESTS = {
    "vehicle": b"01 0",
    "store": b"POST /api/v1/traces HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nabc",
    "context-stub": b"GET /flow HTTP/1.1\r\nHost: x\r\n",
}


def _wait_for(condition) -> bool:
    deadline = time.monotonic() + 5
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    return condition()


def _handler_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if "process_request_thread" in t.name}


@pytest.mark.parametrize("name", sorted(SERVERS))
def test_stop_mid_request_prints_nothing(name, tmp_path, capfd):
    server = SERVERS[name][0](tmp_path).start()
    before = _handler_threads()
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(PARTIAL_REQUESTS[name])
        assert _wait_for(lambda: server._server.open_requests)
        time.sleep(0.02)  # the handler is now blocked reading the rest
        server.stop()
    assert _wait_for(lambda: not _handler_threads() - before)
    assert capfd.readouterr().err == ""


def test_wake_connection_is_not_served(served):
    make, one_request = served
    server = make()
    tcp = server._server
    entries = []
    handle_request = tcp.handle_request
    tcp.handle_request = lambda: entries.append(None) or handle_request()
    server.start()
    one_request(server)  # the server is serving, and that connection is then closed
    assert _wait_for(lambda: not tcp.open_requests)
    # The serving thread is back in handle_request, so the wake connection
    # stop() makes is accepted and refused there, not left unaccepted.
    assert _wait_for(lambda: len(entries) == 2)
    verified, processed = [], []
    verify_request, process_request = tcp.verify_request, tcp.process_request
    tcp.verify_request = lambda request, address: verified.append(address) or verify_request(request, address)
    tcp.process_request = lambda request, address: processed.append(address) or process_request(request, address)
    server.stop()
    assert len(verified) == 1
    assert processed == []
    assert tcp.open_requests == set()
