"""TCP framing server checks (real clock and short latencies to stay quick, unless noted)."""

from __future__ import annotations

import threading

import pytest

from fogtrace.clock import SimulatedClock, SystemClock
from fogtrace.obd import (
    CORE_PIDS,
    PID_RPM,
    PID_SPEED,
    PID_THROTTLE,
    NegativeResponseError,
    ObdError,
    PidId,
    encode_request,
)
from fogtrace.vehicle import (
    MAX_FRAME_BYTES,
    InProcessObdLink,
    LatencyModel,
    TcpObdLink,
    VehicleSimulator,
    VehicleTcpServer,
)


@pytest.fixture
def quick_server():
    import time

    sim = VehicleSimulator(latency=LatencyModel.fixed(10.0), start_ms=time.time() * 1000.0)
    with VehicleTcpServer(sim, clock=SystemClock()) as server:
        yield server


def test_frames_over_tcp(quick_server):
    link = TcpObdLink(*quick_server.address)
    try:
        for pid in (PID_RPM, PID_SPEED, PID_THROTTLE):
            resp = link.request(pid)
            assert resp.pid_id.pid == pid
    finally:
        link.close()


def test_unsupported_pid_negative_over_tcp(quick_server):
    link = TcpObdLink(*quick_server.address)
    try:
        with pytest.raises(NegativeResponseError):
            link.request(PidId(0x99))
    finally:
        link.close()


def test_concurrent_clients_fifo(quick_server):
    """Each connection sees its own replies in request order."""
    errors = []

    def worker():
        link = TcpObdLink(*quick_server.address)
        try:
            for i in range(6):
                pid = (PID_RPM, PID_SPEED, PID_THROTTLE)[i % 3]
                resp = link.request(pid)
                if resp.pid_id.pid != pid:
                    errors.append((pid, resp.pid_id.pid))
        except Exception as exc:  # noqa: BLE001 - surfaced via the list
            errors.append(exc)
        finally:
            link.close()

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not errors


def test_malformed_frame_gets_negative_reply(quick_server):
    import socket

    with socket.create_connection(quick_server.address, timeout=5) as sock:
        sock.sendall(b"NOT HEX\r")
        data = b""
        while not data.endswith(b"\r"):
            data += sock.recv(64)
    assert data == b"7F 00 11\r"


@pytest.mark.parametrize("frame", [b"01 +C\r", b"01 -1\r"])
def test_signed_token_gets_negative_reply_and_keeps_the_connection(quick_server, frame):
    link = TcpObdLink(*quick_server.address)
    try:
        assert link.transact(frame) == b"7F 00 11\r"
        assert link.request(PID_RPM).pid_id.pid == PID_RPM
    finally:
        link.close()


def _exchanges(link, clock, count=30):
    """Reply frames and the time on ``clock`` when each arrived."""
    pids = (*CORE_PIDS, 0x99)
    seen = []
    for i in range(count):
        frame = link.transact(encode_request(PidId(pids[i % len(pids)])))
        seen.append((frame, clock.now_ms()))
    return seen


def test_served_vehicle_replies_as_the_in_process_link():
    # Simulated clocks, so both sides see the same latency draws at the same times.
    served_clock, local_clock = SimulatedClock(), SimulatedClock()
    served_sim = VehicleSimulator(seed=7, start_ms=served_clock.now_ms())
    local_sim = VehicleSimulator(seed=7, start_ms=local_clock.now_ms())
    with VehicleTcpServer(served_sim, clock=served_clock) as server:
        link = TcpObdLink(*server.address)
        try:
            served = _exchanges(link, served_clock)
        finally:
            link.close()
    local = _exchanges(InProcessObdLink(local_sim, local_clock), local_clock)
    assert served == local
    assert local[3][0].startswith(b"7F 01 12")  # the unsupported PID's negative reply


def test_frame_without_cr_past_the_cap_is_refused_and_the_server_keeps_serving(quick_server):
    import socket

    # Far past the cap, and small enough for the loopback buffers to take at once.
    with socket.create_connection(quick_server.address, timeout=5) as sock:
        sock.sendall(b"0" * (64 * 1024))
        data = b""
        while not data.endswith(b"\r"):
            chunk = sock.recv(64)
            if not chunk:
                break
            data += chunk
        assert data == b"7F 00 11\r"
        try:
            assert sock.recv(64) == b""  # then the server ends the connection
        except ConnectionResetError:
            pass  # unread bytes make the close a reset
    link = TcpObdLink(*quick_server.address)
    try:
        assert link.request(PID_RPM).pid_id.pid == PID_RPM
    finally:
        link.close()


def test_reply_without_cr_past_the_cap_is_an_obd_error():
    import socket

    with socket.create_server(("127.0.0.1", 0)) as listener:

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.recv(64)
                conn.sendall(b"41" * MAX_FRAME_BYTES)
                conn.recv(64)  # until the client closes

        server = threading.Thread(target=answer)
        server.start()
        link = TcpObdLink(*listener.getsockname(), timeout_s=5.0)
        try:
            with pytest.raises(ObdError):
                link.request(PID_RPM)
        finally:
            link.close()
            server.join(timeout=5)
        assert not server.is_alive()
