"""HTTP stub server mimicking the two third-party context services.

Endpoints: ``GET /flow?lat=&lon=`` and ``GET /weather?lat=&lon=``, JSON
bodies carrying exactly the typed fields, in the order the record declares
them. Each is answered by the local provider the simulated clock uses
in-process, so responses are deterministic. Other paths answer 404, bad
coordinates 400 ``invalid-coordinates``; connections stay open (HTTP/1.1).
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, urlparse

from .external import (
    RECORD_PATHS,
    FlowSegment,
    FlowService,
    InvalidCoordinatesError,
    LocalFlowProvider,
    LocalWeatherProvider,
    WeatherObservation,
    WeatherService,
)
from .served import ServedHttp, send_error, send_json


class _StubHandler(BaseHTTPRequestHandler):
    server_version = "ContextStub/1"
    # Keep-alive, as the store: a provider's session sends all its fetches on one connection.
    protocol_version = "HTTP/1.1"
    send_error = send_error

    def do_GET(self):
        if "Content-Length" in self.headers or "Transfer-Encoding" in self.headers:
            # A GET's body is never read, so this reply ends the connection rather than parse it as a request.
            self.close_connection = True
        url = urlparse(self.path)
        provider = self.server.owner.routes.get(url.path)  # type: ignore[attr-defined]
        if provider is None:
            return send_json(self, 404, {"error": "not-found", "detail": self.path})
        query = parse_qs(url.query)
        try:
            record = provider.fetch(float(query.get("lat", ["nan"])[0]), float(query.get("lon", ["nan"])[0]))
        except (ValueError, InvalidCoordinatesError) as exc:
            return send_json(self, 400, {"error": "invalid-coordinates", "detail": str(exc)})
        return send_json(self, 200, vars(record))

    def log_message(self, fmt, *args):  # noqa: A002 - quiet by default
        pass


class ContextStubServer(ServedHttp):
    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, clock, seed: int = 0):
        # Each record's local provider, at the path HttpProvider asks for it.
        self.routes = {
            RECORD_PATHS[FlowSegment]: LocalFlowProvider(FlowService(seed), clock),
            RECORD_PATHS[WeatherObservation]: LocalWeatherProvider(WeatherService(seed), clock),
        }
        super().__init__(_StubHandler, host, port)
