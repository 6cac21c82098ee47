"""The one HTTP client: connection reuse, replacement, failure mapping, no third-party imports."""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogtrace
from fogtrace.clock import SimulatedClock
from fogtrace.cloudstore import CloudClient, CloudUnreachableError, NotFoundError
from fogtrace.cloudstore.httpd import parse_multipart
from fogtrace.external import FlowSegment, FlowService, HttpProvider, ServiceUnavailableError, WeatherObservation
from fogtrace.external_httpd import ContextStubServer
from fogtrace.httpclient import HttpSession, NoResponseError, encode_multipart
from fogtrace.served import ServedHttp, send_json

MANIFEST = b'{"session_id": "s1", "driver_id": "drv"}'
DEAD_URL = "http://127.0.0.1:9"


def test_store_client_keeps_one_connection(cloud_client):
    cloud_client.issue_token()
    sock = cloud_client.session._conn.sock
    local_address = sock.getsockname()
    receipt = cloud_client.upload_trace(MANIFEST, b"one connection")
    assert cloud_client.get_trace(receipt["trace_ref"])[0] == b"one connection"
    assert len(cloud_client.list_traces(driver_id="drv")) == 1
    with pytest.raises(NotFoundError):
        cloud_client.get_trace("00" * 32)
    assert cloud_client.session._conn.sock is sock
    assert sock.getsockname() == local_address


@pytest.mark.parametrize("ref", ["ab cd", "x\ny", "\u00e9", "a%20b", "a?b", "a#b"])
def test_unsafe_trace_ref_is_encoded_not_unreachable(cloud_client, ref):
    with pytest.raises(NotFoundError) as caught:
        cloud_client.get_trace(ref)
    assert ref in str(caught.value)


def test_a_request_that_fails_part_way_does_not_poison_the_next(store_server):
    session = HttpSession(store_server.base_url, timeout_s=10)
    try:
        with pytest.raises(UnicodeEncodeError):
            session.request("GET", "/nope", headers={"X-Note": "\u20ac"})
        assert session.request("GET", "/nope").status == 404
    finally:
        session.close()


class _Http10Handler(BaseHTTPRequestHandler):
    """Answers every GET in HTTP/1.0, closing the connection after each reply."""

    def do_GET(self):
        send_json(self, 200, {"path": self.path})

    def log_message(self, fmt, *args):
        pass


def test_http10_server_connection_is_replaced():
    with ServedHttp(_Http10Handler) as server:
        with contextlib.closing(HttpSession(server.base_url, timeout_s=10)) as session:
            for n in range(3):
                assert session.request("GET", f"/{n}").json() == {"path": f"/{n}"}
                assert session._conn.sock is None


def test_stub_fetches_share_one_connection():
    clock = SimulatedClock()
    with ContextStubServer(seed=4, clock=clock) as stub:
        provider = HttpProvider(stub.base_url, FlowSegment)
        with contextlib.closing(provider.session):
            expected = FlowService(seed=4).segment(52.52, 13.40, clock.now_ms())
            assert provider.fetch(52.52, 13.40) == expected
            sock = provider.session._conn.sock
            for _ in range(4):
                assert provider.fetch(52.52, 13.40) == expected
            assert provider.session._conn.sock is sock is not None


def test_threads_take_turns_on_one_session(cloud_client):
    cloud_client.upload_trace(MANIFEST, b"shared")
    errors, listed = [], []

    def worker():
        try:
            for _ in range(5):
                listed.append(len(cloud_client.list_traces(driver_id="drv")))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert listed == [1] * 20


def test_connection_closed_while_idle_is_replaced():
    """A keep-alive server that hangs up between requests costs the client nothing."""
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Type: text/plain\r\n\r\nok"
    listener = socket.create_server(("127.0.0.1", 0))
    served = []

    def serve_twice():
        for _ in range(2):
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(reply)
            served.append(True)

    thread = threading.Thread(target=serve_twice, daemon=True)
    thread.start()
    session = HttpSession(f"http://127.0.0.1:{listener.getsockname()[1]}", timeout_s=5)
    try:
        assert session.request("GET", "/a").body == b"ok"
        deadline = time.monotonic() + 5
        while not served and time.monotonic() < deadline:
            time.sleep(0.01)
        assert served, "the server never closed the first connection"
        assert session.request("GET", "/b").body == b"ok"
    finally:
        session.close()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "fail",
    [
        lambda t: CloudClient(DEAD_URL, "gw", "gw-secret", timeout_s=t).issue_token(),
        lambda t: HttpProvider(DEAD_URL, WeatherObservation, timeout_s=t).fetch(52.0, 13.0),
    ],
    ids=["store", "context"],
)
def test_dead_port_fails_within_timeout(fail):
    t0 = time.monotonic()
    with pytest.raises((CloudUnreachableError, ServiceUnavailableError)) as raised:
        fail(0.5)
    assert time.monotonic() - t0 < 0.5
    assert isinstance(raised.value.__cause__, NoResponseError)


def test_silent_server_times_out():
    # The kernel completes the handshake from the listen backlog; nothing ever answers.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = CloudClient(f"http://127.0.0.1:{listener.getsockname()[1]}", "gw", "gw-secret", timeout_s=0.3)
        t0 = time.monotonic()
        with pytest.raises(CloudUnreachableError):
            client.issue_token()
        assert 0.25 <= time.monotonic() - t0 < 3.0
        client.session.close()


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.sampled_from(["manifest", "trace", "extra"]), st.binary(max_size=512), min_size=1))
def test_multipart_round_trip(parts):
    body, content_type = encode_multipart(
        {name: (f"{name}.bin", data, "application/octet-stream") for name, data in parts.items()}
    )
    assert parse_multipart(content_type, body) == parts


def _boundary(content_type: str) -> bytes:
    return content_type.partition("boundary=")[2].encode("ascii")


def test_multipart_bodies_share_one_boundary():
    _, first = encode_multipart({"manifest": ("m.json", b"{}", "application/json")})
    _, second = encode_multipart({"trace": ("t.bin", os.urandom(4096), "application/octet-stream")})
    assert first == second and len(_boundary(first)) == 32


@pytest.mark.parametrize("where", ["inside", "as-delimiter", "at-end"])
def test_a_part_holding_the_boundary_gets_a_fresh_one(where):
    _, usual = encode_multipart({"manifest": ("m.json", b"{}", "application/json")})
    boundary = _boundary(usual)
    trace = {
        "inside": b"x" + boundary + b"y",
        "as-delimiter": b"\r\n--" + boundary + b"--\r\n",
        "at-end": b"\r\n--" + boundary,
    }[where]
    parts = {"manifest": ("m.json", b"{}", "application/json"), "trace": ("t.bin", trace, "application/octet-stream")}
    body, content_type = encode_multipart(parts)
    assert _boundary(content_type) != boundary and _boundary(content_type) not in trace
    assert parse_multipart(content_type, body) == {"manifest": b"{}", "trace": trace}
    # The fresh boundary served that body only.
    assert encode_multipart({"manifest": ("m.json", b"{}", "application/json")})[1] == usual


def test_cli_import_loads_no_third_party_http_stack():
    src = str(Path(fogtrace.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, fogtrace.cli; print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
