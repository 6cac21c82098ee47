"""REST surface for the trace repository.

* ``POST /api/v1/token``  {client_id, client_secret} -> bearer token
* ``POST /api/v1/traces`` multipart parts ``manifest`` + ``trace`` -> 201 receipt
* ``GET  /api/v1/traces/{ref}`` -> blob, metadata in ``X-Trace-Manifest`` (base64 JSON)
* ``GET  /api/v1/traces?driver_id=&from=&to=&limit=&offset=`` -> metadata array

Errors are ``{error, detail}`` with matching status codes. A body whose
``Content-Length`` is not a count of bytes answers 400, one above
``MAX_BODY_BYTES`` 413; neither body is read, and the connection is closed.
"""

from __future__ import annotations

import base64
import email.parser
import email.policy
import json
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, unquote, urlparse

from ..served import ServedHttp, send_json
from .service import BadRequestError, CloudError, CloudStoreService, MissingPartError, PayloadTooLargeError

_TRACES_PATH = "/api/v1/traces"
_TOKEN_PATH = "/api/v1/token"

# The largest request body read; a 3,600 s trace upload is about 2.2 MB.
MAX_BODY_BYTES = 64 * 1024 * 1024


def parse_multipart(content_type: str, body: bytes) -> dict[str, bytes]:
    """Extract named form parts from a multipart/form-data body."""
    head = f"Content-Type: {content_type}\r\nMIME-Version: 1.0\r\n\r\n".encode("latin-1")
    message = email.parser.BytesParser(policy=email.policy.default).parsebytes(head + body)
    if not message.is_multipart():
        raise MissingPartError("body is not multipart/form-data")
    parts: dict[str, bytes] = {}
    for part in message.iter_parts():
        name = part.get_param("name", header="content-disposition")
        if name:
            payload = part.get_payload(decode=True)
            parts[str(name)] = payload if payload is not None else b""
    return parts


class _Handler(BaseHTTPRequestHandler):
    server_version = "TraceStore/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CloudStoreService:
        return self.server.owner.service  # type: ignore[attr-defined]

    def do_POST(self):
        path = urlparse(self.path).path
        try:
            # Read before any check: an unread body would be parsed as the next request.
            body = self._read_body()
            if path == _TOKEN_PATH:
                self._handle_token(body)
            elif path == _TRACES_PATH:
                self._handle_upload(body)
            else:
                send_json(self, 404, {"error": "not-found", "detail": path})
        except CloudError as exc:
            send_json(self, exc.http_status, exc.to_body())

    def do_GET(self):
        url = urlparse(self.path)
        try:
            if url.path == _TRACES_PATH:
                self._handle_list(parse_qs(url.query))
            elif url.path.startswith(_TRACES_PATH + "/"):
                self._handle_get(unquote(url.path[len(_TRACES_PATH) + 1 :]))
            else:
                send_json(self, 404, {"error": "not-found", "detail": url.path})
        except CloudError as exc:
            send_json(self, exc.http_status, exc.to_body())

    # -- endpoint bodies ----------------------------------------------------

    def _handle_token(self, body: bytes):
        try:
            credentials = json.loads(body.decode("utf-8"))
            client_id = credentials["client_id"]
            client_secret = credentials["client_secret"]
        except (ValueError, KeyError, UnicodeDecodeError):
            raise BadRequestError("body must be JSON with client_id/client_secret") from None
        token = self.service.issue_token(client_id, client_secret)
        ttl_s = (token.expires_at_ms - self.service.clock.now_ms()) / 1000.0
        send_json(
            self, 200, {"access_token": token.token, "token_type": "Bearer", "expires_in": int(round(ttl_s))}
        )

    def _handle_upload(self, body: bytes):
        content_type = self.headers.get("Content-Type", "")
        if "multipart/form-data" not in content_type:
            raise MissingPartError("expected multipart/form-data")
        parts = parse_multipart(content_type, body)
        receipt = self.service.upload_trace(
            self._bearer(), parts.get("manifest"), parts.get("trace")
        )
        send_json(self, 201, receipt)

    def _handle_get(self, trace_ref: str):
        blob, metadata = self.service.get_trace(self._bearer(), trace_ref)
        encoded = base64.b64encode(json.dumps(metadata.to_dict()).encode("utf-8"))
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        self.send_header("X-Trace-Manifest", encoded.decode("ascii"))
        self.end_headers()
        self.wfile.write(blob)

    def _handle_list(self, query: dict[str, list[str]]):
        def _int_param(name, default=None, minimum=None):
            values = query.get(name)
            if not values:
                return default
            try:
                value = int(values[0])
            except ValueError:
                raise BadRequestError(f"{name} must be an integer, got {values[0]!r}") from None
            if minimum is not None and value < minimum:
                raise BadRequestError(f"{name} must be at least {minimum}, got {value}")
            return value

        listed = self.service.list_traces(
            self._bearer(),
            driver_id=query.get("driver_id", [None])[0],
            from_ms=_int_param("from"),
            to_ms=_int_param("to"),
            limit=_int_param("limit", 50, minimum=1),
            offset=_int_param("offset", 0, minimum=0),
        )
        send_json(self, 200, [m.to_dict() for m in listed])

    # -- plumbing ------------------------------------------------------------

    def _bearer(self) -> str | None:
        header = self.headers.get("Authorization", "")
        if header.startswith("Bearer "):
            return header[len("Bearer ") :].strip()
        return None

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            # The body's end is unknown, so the connection cannot carry another request.
            self.close_connection = True
            raise BadRequestError(f"Content-Length must be a count of bytes, got {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise PayloadTooLargeError(f"body of {length} bytes is over the {MAX_BODY_BYTES}-byte limit")
        return self.rfile.read(length) if length else b""

    def log_message(self, fmt, *args):
        pass


class CloudStoreHTTPServer(ServedHttp):
    """Threaded HTTP front end over a :class:`CloudStoreService`."""

    def __init__(self, service: CloudStoreService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        super().__init__(_Handler, host, port)
