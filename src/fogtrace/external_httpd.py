"""HTTP stub server mimicking the two third-party context services.

Endpoints: ``GET /flow?lat=&lon=`` and ``GET /weather?lat=&lon=``, JSON
bodies carrying exactly the typed fields. Each is answered by the local
provider the simulated clock uses in-process, so responses are deterministic.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, urlparse

from .clock import SystemClock
from .external import (
    FlowService,
    InvalidCoordinatesError,
    LocalFlowProvider,
    LocalWeatherProvider,
    WeatherService,
)
from .served import ServedHttp, send_json


class _StubHandler(BaseHTTPRequestHandler):
    server_version = "ContextStub/1"

    def do_GET(self):
        owner: ContextStubServer = self.server.owner  # type: ignore[attr-defined]
        url = urlparse(self.path)
        query = parse_qs(url.query)
        try:
            lat = float(query.get("lat", ["nan"])[0])
            lon = float(query.get("lon", ["nan"])[0])
        except ValueError:
            return send_json(self, 400, {"error": "invalid-coordinates", "detail": "lat/lon not numeric"})
        try:
            if url.path == "/flow":
                return send_json(self, 200, owner.flow.fetch(lat, lon).to_dict())
            if url.path == "/weather":
                return send_json(self, 200, owner.weather.fetch(lat, lon).to_dict())
        except InvalidCoordinatesError as exc:
            return send_json(self, 400, {"error": "invalid-coordinates", "detail": str(exc)})
        return send_json(self, 404, {"error": "not-found", "detail": self.path})

    def log_message(self, fmt, *args):  # noqa: A002 - quiet by default
        pass


class ContextStubServer(ServedHttp):
    def __init__(self, host: str = "127.0.0.1", port: int = 0, clock=None, seed: int = 0):
        clock = clock if clock is not None else SystemClock()
        self.flow = LocalFlowProvider(FlowService(seed), clock)
        self.weather = LocalWeatherProvider(WeatherService(seed), clock)
        super().__init__(_StubHandler, host, port)
