"""A keep-alive HTTP client over one standard-library connection.

The trace-store client and the two context-service providers share it.
An :class:`HttpSession` holds one connection to one base URL and reuses it
from request to request, replacing it when the server has closed it.

A process sends all its multipart bodies with one boundary, drawn at import.
The store's header parser (``email.feedparser``) compiles a regex per
distinct boundary, and ``re``'s cache serves one it has seen before.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import socket
import threading
from typing import NamedTuple
from urllib.parse import quote, urlencode, urlsplit

# Characters left as they are in a request path; the rest is percent-encoded.
# This is the set browsers and most clients keep, '%' included so that a path
# already encoded passes through unchanged.
_PATH_SAFE = "!#$%&'()*+,/:;=?@[]~"

_BOUNDARY = os.urandom(16).hex()


class NoResponseError(Exception):
    """The request got no HTTP response: refused, reset, timed out or garbled."""


class HttpResponse(NamedTuple):
    status: int
    headers: http.client.HTTPMessage
    body: bytes

    def json(self):
        return json.loads(self.body)

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", "replace")


class HttpSession:
    """One persistent connection to ``base_url``; requests take turns on it."""

    def __init__(self, base_url: str, timeout_s: float):
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        connection = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        self._conn = connection(url.hostname, url.port, timeout=timeout_s)
        self._prefix = url.path
        self._lock = threading.Lock()

    def request(self, method: str, path: str, params=None, body: bytes | None = None, headers=None) -> HttpResponse:
        target = quote(self._prefix + path, safe=_PATH_SAFE) + (f"?{urlencode(params)}" if params else "")
        with self._lock:
            try:
                self._ensure_connected()
                self._conn.request(method, target, body=body, headers=headers or {})
                response = self._conn.getresponse()
                return HttpResponse(response.status, response.headers, response.read())
            except (OSError, http.client.HTTPException) as exc:
                self._conn.close()
                raise NoResponseError(f"{method} {self.base_url}{path}: {exc!r}") from exc
            except BaseException:
                # Whatever broke off the exchange left the connection mid-request.
                self._conn.close()
                raise

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _ensure_connected(self) -> None:
        sock = self._conn.sock
        if sock is not None and _readable(sock):
            # An idle keep-alive socket turns readable only when the server
            # has closed it (or sent bytes nobody asked for): start afresh.
            self._conn.close()
            sock = None
        if sock is None:
            self._conn.connect()
            # Headers and body go out as separate writes; without this a small
            # body could wait for the server's delayed ACK of the headers.
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _readable(sock) -> bool:
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


def encode_multipart(parts: dict[str, tuple[str, bytes, str]]) -> tuple[bytes, str]:
    """Encode ``{name: (filename, data, content_type)}`` as multipart/form-data.

    Returns the body and the ``Content-Type`` header value that names its
    boundary: the process's own, or a fresh one when a part contains it.
    """
    boundary = _BOUNDARY
    while any(boundary.encode("ascii") in data for _, data, _ in parts.values()):
        boundary = os.urandom(16).hex()
    chunks = []
    for name, (filename, data, content_type) in parts.items():
        chunks.append(
            f'--{boundary}\r\nContent-Disposition: form-data; name="{name}"; filename="{filename}"\r\n'
            f"Content-Type: {content_type}\r\n\r\n".encode("utf-8")
        )
        chunks += (data, b"\r\n")
    chunks.append(f"--{boundary}--\r\n".encode("ascii"))
    return b"".join(chunks), f"multipart/form-data; boundary={boundary}"
