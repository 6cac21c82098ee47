"""One lifecycle for the loopback servers: a socketserver on a daemon thread.

A server binds its port when constructed, serves from a background thread
between ``start`` and ``stop``, and is a context manager. The serving
thread waits in accept without polling; ``stop`` wakes it with one loopback
connection, which is closed unserved, and ends the connections still open,
so a stopped server answers nothing.
Request handlers reach the object that owns the server as
``self.server.owner``; the HTTP ones reply through :func:`send_reply` and
bind :func:`send_error` as their ``send_error``.
"""

from __future__ import annotations

import contextlib
import json
import socket
import socketserver
import threading


class _ThreadingTcp(socketserver.ThreadingTCPServer):
    # The HTTP servers use this class too: http.server.ThreadingHTTPServer adds
    # only a getfqdn() lookup for a server_name that no handler here reads, and
    # importing http.server would load the email package for the TCP servers.
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        # Daemon handler threads are neither tracked nor joined; their sockets are.
        self.open_requests: set[socket.socket] = set()
        self.stopping = False

    def verify_request(self, request, client_address):
        # Once stopping, a connection (the one stop() wakes accept with, or a
        # late client) is closed unserved: no handler thread starts for it.
        return not self.stopping

    def process_request(self, request, client_address):
        self.open_requests.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self.open_requests.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A handler whose connection stop() ended fails as expected; say nothing.
        if not self.stopping:
            super().handle_error(request, client_address)


class ServedThread:
    """A threading TCP server bound to ``(host, port)`` with ``handler``, served on a thread."""

    def __init__(self, handler: type[socketserver.BaseRequestHandler], host: str = "127.0.0.1", port: int = 0):
        self._server = _ThreadingTcp((host, port), handler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self):
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        # Blocks in accept with no timeout: an idle server does not wake until
        # a client, or stop(), connects.
        while not self._server.stopping:
            self._server.handle_request()

    def stop(self) -> None:
        """Stop serving and release the port; safe before ``start`` and when repeated."""
        thread, self._thread = self._thread, None
        self._server.stopping = True
        if thread is not None:
            with contextlib.suppress(OSError):
                socket.create_connection(self.address, timeout=1).close()
            thread.join(timeout=5)
        for request in list(self._server.open_requests):
            with contextlib.suppress(OSError):
                request.shutdown(socket.SHUT_RDWR)
        self._server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class ServedHttp(ServedThread):
    """A :class:`ServedThread` whose handler speaks HTTP, addressed by ``base_url``."""

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"


def send_reply(handler, status: int, body: bytes, headers: dict[str, str]) -> None:
    """Answer the request an ``http.server`` handler is serving, in one write.

    The status line, the headers and the body go out together: written apart,
    the body would wait under Nagle's algorithm for the client's delayed ACK
    of the headers, about 40 ms a reply.
    """
    handler.log_request(status)
    lines = [
        f"{handler.protocol_version} {status} {handler.responses.get(status, ('',))[0]}",
        f"Server: {handler.version_string()}",
        f"Date: {handler.date_time_string()}",
        *(f"{name}: {value}" for name, value in headers.items()),
        f"Content-Length: {len(body)}",
    ]
    if handler.close_connection:
        # Told, the client opens a new connection for its next request instead
        # of sending it on this one as the server closes it.
        lines.append("Connection: close")
    handler.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)


def send_json(handler, status: int, body) -> None:
    """Answer with ``body`` as JSON."""
    send_reply(handler, status, json.dumps(body).encode("utf-8"), {"Content-Type": "application/json"})


def send_error(handler, code: int, message: str | None = None, explain: str | None = None) -> None:
    """``send_error`` for the HTTP handlers: the status ``http.server`` chose, as ``{error, detail}``.

    ``http.server`` calls it for a request it cannot parse or a method the
    handler lacks, before any body is read, so the connection is closed.
    """
    phrase = handler.responses.get(code, ("error",))[0]
    handler.close_connection = True
    send_json(handler, code, {"error": phrase.lower().replace(" ", "-"), "detail": message or phrase})
