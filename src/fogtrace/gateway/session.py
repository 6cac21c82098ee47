"""The data-logger core: pairing, per-trip sessions and row aggregation.

A gateway pairs and locks devices, then runs at most one session at a
time. Producers (the OBD poll loop, wearable streams, GPS, context
pollers) push their native records through ``Session.ingest``, which fans
each record out into trace rows stamped with the gateway's arrival clock.
Ending a session flushes everything: gap filling, a stable sort, CSV
rendering, hashing, and the session manifest.

Ingest is thread safe so concurrent producers may feed one session; the
session object is the only writer of its row store.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path

from ..clock import SystemClock
from ..config import Config
from ..external import FlowSegment, WeatherObservation
from ..obd import PID_TABLE, ObdResponse
from ..wearables import HeartSample, MiBand, Polar, RespirationSample, Spire
from .alerts import AlertEngine, AlertEvent, AlertRule, default_rules
from .gapfill import fill_session_gaps
from .records import (
    Pairing,
    SessionManifest,
    TraceRow,
    encode_value,
    fmt_scalar,
    new_session_id,
    rows_to_csv,
    sha256_hex,
    sort_rows,
)

log = logging.getLogger(__name__)

KIND_OBD = "obd"
KIND_GPS = "gps"

SERVICE_TRAFFIC = "traffic"
SERVICE_WEATHER = "weather"
SERVICE_ALERTS = "alerts"

DEFAULT_GPS_PERIOD_MS = 1000.0
DEFAULT_CONTEXT_PERIOD_MS = 30_000.0


class GatewayError(Exception):
    pass


class NoDevicesError(GatewayError):
    pass


class SessionAlreadyActiveError(GatewayError):
    pass


class NoActiveSessionError(GatewayError):
    pass


class SessionActiveError(GatewayError):
    pass


class UnknownSourceError(GatewayError):
    pass


class GpsFix:
    """A position sample from the coordinator's own GPS."""

    __slots__ = ("lat", "lon", "at")

    def __init__(self, lat: float, lon: float, at: float):
        self.lat = lat
        self.lon = lon
        self.at = at


class LocalSource:
    """Pairing stand-in for coordinator-integrated endpoints (OBD link, GPS)."""

    def __init__(self, device_id: str, kind: str):
        self.device_id = device_id
        self.kind = kind
        self.locked_to: str | None = None

    def pair(self, gateway_id: str) -> None:
        if self.locked_to is not None and self.locked_to != gateway_id:
            raise GatewayError(f"{self.device_id} already attached to {self.locked_to}")
        self.locked_to = gateway_id

    def unpair(self, gateway_id: str) -> None:
        if self.locked_to == gateway_id:
            self.locked_to = None

    def erase(self) -> int:
        return 0


class Gateway:
    def __init__(
        self,
        gateway_id: str = "gateway-1",
        clock=None,
        key: bytes | None = None,
        outbox_dir: str | Path | None = None,
        trace_dir: str | Path | None = None,
        config: Config | None = None,
    ):
        self.gateway_id = gateway_id
        self.clock = clock if clock is not None else SystemClock()
        self.key = key
        self.config = config or Config()
        self.outbox_dir = Path(outbox_dir) if outbox_dir else None
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.pairings: dict[str, Pairing] = {}
        self.devices: dict[str, object] = {}
        self.services: set[str] = {SERVICE_TRAFFIC, SERVICE_WEATHER, SERVICE_ALERTS}
        self.active: Session | None = None
        self._control = threading.Lock()

    def pair_device(self, device) -> Pairing:
        """Bond ``device`` (anything with device_id/kind/pair) and lock it here."""
        device.pair(self.gateway_id)
        existing = self.pairings.get(device.device_id)
        if existing is not None:
            return existing
        pairing = Pairing(
            device_id=device.device_id,
            kind=device.kind,
            locked_to=self.gateway_id,
            paired_at=int(self.clock.now_ms()),
        )
        self.pairings[device.device_id] = pairing
        self.devices[device.device_id] = device
        return pairing

    def start_session(self, driver_id: str, vehicle_id: str) -> "Session":
        with self._control:
            if self.active is not None:
                raise SessionAlreadyActiveError("a session is already running")
            if not self.pairings:
                raise NoDevicesError("no devices paired")
            rules = default_rules(
                hr_limit_bpm=self.config.get_float("gateway.hr_limit_bpm", 120.0),
                overspeed_kmh=self.config.get_float("gateway.overspeed_kmh", 120.0),
            )
            self.active = Session(self, driver_id, vehicle_id, rules)
            return self.active

    def end_session(self) -> tuple[bytes, SessionManifest]:
        with self._control:
            if self.active is None:
                raise NoActiveSessionError("no session running")
            session = self.active
            self.active = None
        return session.finish()

    def erase_data(self, scope: str) -> dict[str, int]:
        """Clear device buffers and/or the local outbox and trace directories."""
        if scope not in ("device", "local", "both"):
            raise ValueError(f"unknown erase scope {scope!r}")
        if self.active is not None:
            raise SessionActiveError("cannot erase while a session is active")
        erased = {"device_samples": 0, "local_files": 0}
        if scope in ("device", "both"):
            for device in self.devices.values():
                erase = getattr(device, "erase", None)
                if erase:
                    erased["device_samples"] += erase()
        if scope in ("local", "both"):
            for directory in (self.outbox_dir, self.trace_dir):
                if directory and directory.exists():
                    for path in directory.iterdir():
                        if path.is_file():
                            path.unlink()
                            erased["local_files"] += 1
        log.info("erase scope=%s result=%s", scope, erased)
        return erased

    @property
    def gps_period_ms(self) -> float:
        """Period of the GPS fixes, read when used so schedule and gap fill agree."""
        return self.config.get_float("gateway.gps_period_ms", DEFAULT_GPS_PERIOD_MS)

    @property
    def context_period_ms(self) -> float:
        """Period of the traffic and weather polls, read like ``gps_period_ms``."""
        return self.config.get_float("external.period_ms", DEFAULT_CONTEXT_PERIOD_MS)

    def _gap_period_for(self, source: str, channel: str) -> float | None:
        """Nominal period of one stream, keyed by device kind or service.

        OBD channels are absent: at ~9 rows/s a real void is always far
        beyond the fill window, so interpolation would only add noise.
        Polar ``rr_ms`` is absent too: a push carries 1-4 intervals.
        """
        pairing = self.pairings.get(source)
        kind = pairing.kind if pairing is not None else source
        gps, context = self.gps_period_ms, self.context_period_ms
        periods = {
            (Polar.kind, "bpm"): Polar.period_ms,
            (Spire.kind, "breaths_per_min"): Spire.period_ms,
            (MiBand.kind, "bpm"): MiBand.min_interval_ms,
            (KIND_GPS, "lat"): gps,
            (KIND_GPS, "lon"): gps,
            (SERVICE_TRAFFIC, "traffic_current_speed"): context,
            (SERVICE_TRAFFIC, "traffic_free_flow_speed"): context,
            (SERVICE_WEATHER, "weather_temp_c"): context,
        }
        return periods.get((kind, channel))


class Session:
    def __init__(self, gateway: Gateway, driver_id: str, vehicle_id: str, alert_rules: list[AlertRule]):
        self.gateway = gateway
        self.driver_id = driver_id
        self.vehicle_id = vehicle_id
        self.session_id = new_session_id()
        self.started_at = int(gateway.clock.now_ms())
        self.ended_at: int | None = None
        self.alerts: list[AlertEvent] = []
        self.dropped = 0
        self._rows: list[TraceRow] = []
        self._engine = AlertEngine(alert_rules)
        self._lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def row_count(self) -> int:
        with self._lock:
            return len(self._rows)

    def ingest(self, sample, source: str | None = None) -> list[TraceRow]:
        """Fan a source record out into rows stamped with the arrival time.

        Samples arriving after the session closed are dropped and counted,
        never raised: producers may race the shutdown.
        """
        arrival = int(self.gateway.clock.now_ms())
        with self._lock:
            if self._closed:
                self.dropped += 1
                return []
            source_of, fan_out = _INGEST_RULES.get(type(sample)) or _inherited_rules(type(sample))
            resolved = self._check_source(source_of(sample, source), sample)
            appended = []
            for row in fan_out(sample, resolved, arrival):
                appended.append(row)
                for event in self._engine.observe(row):
                    self.alerts.append(event)
                    appended.append(
                        TraceRow(
                            timestamp_ms=event.at,
                            source=SERVICE_ALERTS,
                            channel="alert",
                            value=event.rule,
                            unit="",
                            interpolated=0,
                        )
                    )
            self._rows.extend(appended)
            return appended

    def _check_source(self, source: str | None, sample) -> str:
        if source is None:
            raise UnknownSourceError(f"no source given for {type(sample).__name__}")
        if source not in self.gateway.pairings and source not in self.gateway.services:
            raise UnknownSourceError(f"source {source!r} is neither paired nor registered")
        return source

    def finish(self) -> tuple[bytes, SessionManifest]:
        with self._lock:
            self._closed = True
            self.ended_at = int(self.gateway.clock.now_ms())
            rows = list(self._rows)
        rows = fill_session_gaps(rows, self.gateway._gap_period_for)
        rows = sort_rows(rows)
        csv_bytes = rows_to_csv(rows)
        manifest = SessionManifest(
            session_id=self.session_id,
            driver_id=self.driver_id,
            vehicle_id=self.vehicle_id,
            started_at=self.started_at,
            ended_at=self.ended_at,
            devices=tuple(self.gateway.pairings.values()),
            row_count=len(rows),
            csv_sha256=sha256_hex(csv_bytes),
        )
        with self._lock:
            self._rows = rows
        return csv_bytes, manifest


def _obd_rows(sample: ObdResponse, source: str, arrival_ms: int) -> list[TraceRow]:
    definition = PID_TABLE.get(sample.pid_id.pid)
    if definition is None:
        raise ValueError(f"no trace channel for PID 0x{sample.pid_id.pid:02X}")
    return [TraceRow(arrival_ms, source, definition.channel, fmt_scalar(sample.value), definition.unit)]


def _heart_rows(sample: HeartSample, source: str, arrival_ms: int) -> list[TraceRow]:
    rows = [TraceRow(arrival_ms, source, "bpm", encode_value(sample.bpm, sample.measured_at), "bpm")]
    rows.extend(
        TraceRow(arrival_ms, source, "rr_ms", encode_value(rr, sample.measured_at), "ms")
        for rr in sample.rr_intervals_ms
    )
    return rows


def _respiration_rows(sample: RespirationSample, source: str, arrival_ms: int) -> list[TraceRow]:
    return [
        TraceRow(
            arrival_ms,
            source,
            "breaths_per_min",
            encode_value(sample.breaths_per_min, sample.measured_at),
            "breaths/min",
        ),
        TraceRow(arrival_ms, source, "resp_state", encode_value(sample.state, sample.measured_at), ""),
    ]


def _gps_rows(sample: GpsFix, source: str, arrival_ms: int) -> list[TraceRow]:
    return [
        TraceRow(arrival_ms, source, "lat", fmt_scalar(sample.lat), "deg"),
        TraceRow(arrival_ms, source, "lon", fmt_scalar(sample.lon), "deg"),
    ]


def _flow_rows(sample: FlowSegment, source: str, arrival_ms: int) -> list[TraceRow]:
    return [
        TraceRow(arrival_ms, source, "traffic_current_speed", fmt_scalar(sample.current_speed_kmh), "km/h"),
        TraceRow(
            arrival_ms, source, "traffic_free_flow_speed", fmt_scalar(sample.free_flow_speed_kmh), "km/h"
        ),
    ]


def _weather_rows(sample: WeatherObservation, source: str, arrival_ms: int) -> list[TraceRow]:
    return [
        TraceRow(arrival_ms, source, "weather_temp_c", fmt_scalar(sample.temp_c), "C"),
        TraceRow(arrival_ms, source, "weather_condition", sample.condition, ""),
    ]


def _alert_rows(sample: AlertEvent, source: str, _arrival_ms: int) -> list[TraceRow]:
    return [TraceRow(sample.at, source, "alert", sample.rule, "")]


def _cannot_ingest(sample, _source: str, _arrival_ms: int) -> list[TraceRow]:
    raise TypeError(f"cannot ingest {type(sample).__name__}")


# Ingest dispatch by the exact type of the record: how its source is found
# from the one the caller gave, then how it becomes rows. Heart and
# respiration samples name their own device and alert events belong to the
# alert service whatever the caller gives; context records default to
# their service.
_INGEST_RULES = {
    ObdResponse: (lambda sample, source: source, _obd_rows),
    HeartSample: (lambda sample, source: sample.device, _heart_rows),
    RespirationSample: (lambda sample, source: sample.device, _respiration_rows),
    GpsFix: (lambda sample, source: source, _gps_rows),
    FlowSegment: (lambda sample, source: SERVICE_TRAFFIC if source is None else source, _flow_rows),
    WeatherObservation: (lambda sample, source: SERVICE_WEATHER if source is None else source, _weather_rows),
    AlertEvent: (lambda sample, source: SERVICE_ALERTS, _alert_rows),
}


def _inherited_rules(kind: type):
    """The rules of the nearest base class of ``kind`` that has any."""
    for cls in kind.__mro__:
        rules = _INGEST_RULES.get(cls)
        if rules is not None:
            return rules
    return (lambda sample, source: source), _cannot_ingest
