"""One lifecycle for the loopback servers: a socketserver on a daemon thread.

A server binds its port when constructed, serves from a background thread
between ``start`` and ``stop``, and is a context manager. Request handlers
reach the object that owns the server as ``self.server.owner``.
"""

from __future__ import annotations

import socketserver
import threading

# How often serve_forever checks for a shutdown request, so stop() waits at
# most about this long (the socketserver default of 0.5 s would be paid by
# every CLI run and every test that starts a server).
POLL_INTERVAL_S = 0.05


class _ThreadingTcp(socketserver.ThreadingTCPServer):
    # The HTTP servers use this class too: http.server.ThreadingHTTPServer adds
    # only a getfqdn() lookup for a server_name that no handler here reads, and
    # importing http.server would load the email package for the TCP servers.
    allow_reuse_address = True
    daemon_threads = True


class ServedThread:
    """A threading TCP server bound to ``(host, port)`` with ``handler``, served on a thread."""

    def __init__(self, handler: type[socketserver.BaseRequestHandler], host: str = "127.0.0.1", port: int = 0):
        self._server = _ThreadingTcp((host, port), handler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self):
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port; safe before ``start`` and when repeated."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._server.shutdown()
            thread.join(timeout=5)
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
