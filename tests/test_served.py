"""The shared lifecycle of the three loopback servers: start, serve, stop."""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import pytest

from fogtrace.cloudstore import CloudStoreHTTPServer, CloudStoreService
from fogtrace.external_httpd import ContextStubServer
from fogtrace.httpclient import HttpSession
from fogtrace.obd import PID_RPM
from fogtrace.vehicle import LatencyModel, TcpObdLink, VehicleSimulator, VehicleTcpServer


def _vehicle(_tmp_path):
    return VehicleTcpServer(VehicleSimulator(latency=LatencyModel.fixed(5.0), start_ms=time.time() * 1000.0))


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
    "context-stub": (lambda _tmp_path: ContextStubServer(seed=4), _stub_request),
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
