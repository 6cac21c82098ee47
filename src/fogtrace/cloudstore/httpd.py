"""REST surface for the trace repository.

* ``POST /api/v1/token``  {client_id, client_secret} -> bearer token
* ``POST /api/v1/traces`` multipart parts ``manifest`` + ``trace`` -> 201 receipt
* ``GET  /api/v1/traces/{ref}`` -> blob, metadata in ``X-Trace-Manifest`` (base64 JSON)
* ``GET  /api/v1/traces?driver_id=&from=&to=&limit=&offset=`` -> metadata array

Both carry each manifest as the text it was uploaded as (see ``service``).

Every request, GET or POST, takes one dispatch: its body is read first,
then it is routed on its method and path. Every reply is one write.
Errors are ``{error, detail}`` with matching status codes, those
``http.server`` answers itself (an unknown method, a request line it
cannot parse) included. Any other exception a request raises is logged
and answered 500 ``internal``, and the connection is closed. A body whose
``Content-Length`` is not a count of bytes, or that comes with a
``Transfer-Encoding``, answers 400, one above ``MAX_BODY_BYTES`` 413; no
such body is read, and the connection is closed.
"""

from __future__ import annotations

import base64
import json
import logging
import re
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, unquote, urlparse

from ..served import ServedHttp, send_error, send_json, send_reply
from .service import BadRequestError, CloudError, CloudStoreService, MissingPartError, PayloadTooLargeError

log = logging.getLogger(__name__)

_TRACES_PATH = "/api/v1/traces"
_TOKEN_PATH = "/api/v1/token"

# The largest request body read; a 3,600 s trace upload is about 2.2 MB.
MAX_BODY_BYTES = 64 * 1024 * 1024

# One ``; name=value`` header parameter, the value quoted (with escapes) or bare.
_PARAM = re.compile(r';\s*([^\s=;]+)\s*=\s*("(?:[^"\\]|\\.)*"|[^;]*)')


def _params(value: str) -> dict[str, str]:
    """The ``;``-separated parameters of a header value, names lower-cased, first one kept."""
    params: dict[str, str] = {}
    for name, raw in _PARAM.findall(value):
        raw = raw.strip()
        if len(raw) >= 2 and raw[0] == raw[-1] == '"':
            raw = raw[1:-1].replace("\\\\", "\\").replace('\\"', '"')
        params.setdefault(name.lower(), raw)
    return params


def parse_multipart(content_type: str, body: bytes) -> dict[str, bytes]:
    """Extract the named parts of a multipart/form-data body (RFC 7578).

    Each ``CRLF--boundary`` delimiter is found with ``bytes.find`` and each
    payload sliced out of ``body`` once. A part without a name is ignored,
    and parts after an unclosed last delimiter run to the end of the body.
    """
    boundary = _params(content_type).get("boundary", "").rstrip()
    delimiter = b"\r\n--" + boundary.encode("latin-1", "replace")
    # The first delimiter may open the body, with no line break before it.
    found = -2 if body.startswith(delimiter[2:]) else body.find(delimiter)
    if not boundary or found == -1:
        raise MissingPartError("body is not multipart/form-data")
    parts: dict[str, bytes] = {}
    pos = found + len(delimiter)
    while not body.startswith(b"--", pos):
        line_end = body.find(b"\r\n", pos)
        if line_end < 0:
            break
        end = body.find(delimiter, line_end)
        end = len(body) if end < 0 else end
        # The blank line after the headers; a part with no body at all shares its CRLF with the delimiter.
        head_end = body.find(b"\r\n\r\n", line_end, end + 2)
        if head_end >= 0:
            for line in body[line_end + 2 : head_end].decode("latin-1").split("\r\n"):
                field, _, value = line.partition(":")
                if field.strip().lower() == "content-disposition":
                    name = _params(value).get("name")
                    if name:
                        parts[name] = body[head_end + 4 : end]
                    break
        pos = end + len(delimiter)
    return parts


class _Handler(BaseHTTPRequestHandler):
    server_version = "TraceStore/1"
    protocol_version = "HTTP/1.1"
    send_error = send_error

    @property
    def service(self) -> CloudStoreService:
        return self.server.owner.service  # type: ignore[attr-defined]

    def _dispatch(self):
        url = urlparse(self.path)
        try:
            # Read before any check, whatever the method: an unread body would be parsed as the next request.
            body = self._read_body()
            route = (self.command, url.path)
            if route == ("POST", _TOKEN_PATH):
                self._handle_token(body)
            elif route == ("POST", _TRACES_PATH):
                self._handle_upload(body)
            elif route == ("GET", _TRACES_PATH):
                self._handle_list(parse_qs(url.query))
            elif self.command == "GET" and url.path.startswith(_TRACES_PATH + "/"):
                self._handle_get(unquote(url.path[len(_TRACES_PATH) + 1 :]))
            else:
                send_json(self, 404, {"error": "not-found", "detail": url.path})
        except CloudError as exc:
            send_json(self, exc.http_status, exc.to_body())
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            log.exception("%s %s failed", self.command, self.path)
            self.close_connection = True
            send_json(self, 500, CloudError(f"{type(exc).__name__}: {exc}").to_body())

    do_GET = do_POST = _dispatch

    # -- endpoint bodies ----------------------------------------------------

    def _handle_token(self, body: bytes):
        try:
            credentials = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError):
            credentials = None
        if type(credentials) is not dict or not all(
            type(credentials.get(field)) is str for field in ("client_id", "client_secret")
        ):
            raise BadRequestError("body must be a JSON object with string client_id and client_secret")
        token = self.service.issue_token(credentials["client_id"], credentials["client_secret"])
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
        encoded = base64.b64encode(metadata.to_json().encode("utf-8"))
        send_reply(
            self, 200, blob, {"Content-Type": "application/octet-stream", "X-Trace-Manifest": encoded.decode("ascii")}
        )

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
        body = "[" + ", ".join(m.to_json() for m in listed) + "]"
        send_reply(self, 200, body.encode("utf-8"), {"Content-Type": "application/json"})

    # -- plumbing ------------------------------------------------------------

    def _bearer(self) -> str | None:
        header = self.headers.get("Authorization", "")
        if header.startswith("Bearer "):
            return header[len("Bearer ") :].strip()
        return None

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length", "0").strip()
        # A body framed in any other way has no known end, so the connection cannot carry another request.
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise BadRequestError("Transfer-Encoding is not supported; send a Content-Length")
        if not (raw.isascii() and raw.isdigit()):
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
