"""The data-logger core: pairing, per-trip sessions and row aggregation.

A gateway pairs and locks devices, then runs at most one session at a
time. Producers (the OBD link, wearable streams, GPS, context pollers)
push their native records through ``Session.ingest``, which fans each
record out into trace rows stamped with the gateway's arrival clock.
The alert rules see only the rows of the channels they watch: a record
whose rows are all of other channels (two OBD readings in three, every
GPS fix) goes straight to the row store, and an alert row follows the row
that fired it. Ending a session flushes everything: gap filling, a stable
sort, CSV rendering, hashing, and the session manifest.

A session has one owner: the trip loop that started it makes every
``ingest`` call, on its own thread, and ends it once through
``Gateway.end_session``. Nothing else feeds or ends it, so it takes no
lock, and the session object is the only writer of its row store.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

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
# The gateway's own sources, which feed a session unpaired.
SERVICES = frozenset({SERVICE_TRAFFIC, SERVICE_WEATHER, SERVICE_ALERTS})

# Distinct (PID, value) pairs whose trace cell ``_obd_cell`` keeps; an hour
# of aggressive driving has about 600.
OBD_CELL_CACHE_SIZE = 4096


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


class GpsFix(NamedTuple):
    """A position sample from the coordinator's own GPS."""

    lat: float
    lon: float
    at: float


class LocalSource(NamedTuple):
    """Pairing stand-in for coordinator-integrated endpoints (OBD link, GPS).

    The coordinator owns them, so pairing one locks nothing.
    """

    device_id: str
    kind: str

    def pair(self, gateway_id: str) -> None:
        pass


class Gateway:
    def __init__(
        self,
        clock,
        key: bytes | None = None,
        outbox_dir: str | Path | None = None,
        trace_dir: str | Path | None = None,
        config: Config | None = None,
    ):
        self.clock = clock
        self.key = key
        self.config = config or Config()
        self.outbox_dir = Path(outbox_dir) if outbox_dir else None
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.pairings: dict[str, Pairing] = {}
        self.devices: dict[str, object] = {}
        self.active: Session | None = None

    def pair_device(self, device) -> Pairing:
        """Bond ``device`` (anything with device_id/kind/pair) and lock it to ``gateway.id``."""
        gateway_id = self.config["gateway.id"]
        device.pair(gateway_id)
        existing = self.pairings.get(device.device_id)
        if existing is not None:
            return existing
        pairing = Pairing(
            device_id=device.device_id,
            kind=device.kind,
            locked_to=gateway_id,
            paired_at=int(self.clock.now_ms()),
        )
        self.pairings[device.device_id] = pairing
        self.devices[device.device_id] = device
        return pairing

    def start_session(self, driver_id: str, vehicle_id: str) -> "Session":
        if self.active is not None:
            raise SessionAlreadyActiveError("a session is already running")
        if not self.pairings:
            raise NoDevicesError("no devices paired")
        rules = default_rules(
            hr_limit_bpm=self.config["gateway.hr_limit_bpm"], overspeed_kmh=self.config["gateway.overspeed_kmh"]
        )
        self.active = Session(self, driver_id, vehicle_id, rules)
        return self.active

    def end_session(self) -> tuple[bytes, SessionManifest]:
        """Free the gateway for the next session and render the one that ran."""
        if self.active is None:
            raise NoActiveSessionError("no session running")
        session, self.active = self.active, None
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

    def _gap_period_for(self, source: str, channel: str) -> float | None:
        """Nominal period of one stream, keyed by device kind or service.

        OBD channels are absent: at ~9 rows/s a real void is always far
        beyond the fill window, so interpolation would only add noise.
        Polar ``rr_ms`` is absent too: a push carries 1-4 intervals.
        """
        pairing = self.pairings.get(source)
        kind = pairing.kind if pairing is not None else source
        gps, context = self.config["gateway.gps_period_ms"], self.config["external.period_ms"]
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
        self._rows: list[TraceRow] = []
        self._engine = AlertEngine(alert_rules)
        # Sources already checked. Pairings only grow while a session runs
        # and the services are fixed, so an admitted source stays valid; a
        # refused one is never added and is checked again on its next sample.
        self._admitted: set[str] = set()

    def ingest(self, sample, source: str | None = None) -> list[TraceRow]:
        """Fan a source record out into rows stamped with the arrival time."""
        arrival = int(self.gateway.clock.now_ms())
        try:
            source_of, fan_out = _INGEST_RULES[type(sample)]
        except KeyError:
            raise TypeError(f"cannot ingest {type(sample).__name__}") from None
        resolved = source_of(sample, source)
        if resolved not in self._admitted:
            self._admitted.add(self._check_source(resolved, sample))
        if type(sample) is AlertEvent:
            self.alerts.append(sample)
        appended = fan_out(sample, resolved, arrival)
        watched = self._engine.channels
        for row in appended:
            if row[2] in watched:  # channel
                appended = self._observe(appended, arrival)
                break
        self._rows.extend(appended)
        return appended

    def _observe(self, rows: list[TraceRow], arrival: int) -> list[TraceRow]:
        """``rows`` with the alert row of each event they fire right after the row that fired it."""
        observed = []
        for row in rows:
            observed.append(row)
            for event in self._engine.observe(row):
                self.alerts.append(event)
                observed.extend(_alert_rows(event, SERVICE_ALERTS, arrival))
        return observed

    def _check_source(self, source: str | None, sample) -> str:
        if source is None:
            raise UnknownSourceError(f"no source given for {type(sample).__name__}")
        if source not in self.gateway.pairings and source not in SERVICES:
            raise UnknownSourceError(f"source {source!r} is neither paired nor registered")
        return source

    def finish(self) -> tuple[bytes, SessionManifest]:
        """Render the trace: gap fill, stable sort, CSV, hash and manifest."""
        self.ended_at = int(self.gateway.clock.now_ms())
        rows = sort_rows(fill_session_gaps(self._rows, self.gateway._gap_period_for))
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
        return csv_bytes, manifest


def _obd_rows(sample: ObdResponse, source: str, arrival_ms: int) -> list[TraceRow]:
    channel, value, unit = _obd_cell(sample.pid_id.pid, sample.value)
    return [TraceRow(arrival_ms, source, channel, value, unit)]


# ``typed`` keeps a bool apart from the int equal to it, so ``fmt_scalar``
# still refuses it; an exception is never cached.
@lru_cache(maxsize=OBD_CELL_CACHE_SIZE, typed=True)
def _obd_cell(pid: int, value: float) -> tuple[str, str, str]:
    """The (channel, value, unit) of one OBD reading."""
    definition = PID_TABLE.get(pid)
    if definition is None:
        raise ValueError(f"no trace channel for PID 0x{pid:02X}")
    return definition.channel, fmt_scalar(value), definition.unit


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


# Ingest dispatch by the exact type of the record: how its source is found
# from the one the caller gave, then how it becomes rows. Heart and
# respiration samples name their own device and alert events belong to the
# alert service whatever the caller gives; context records default to
# their service. A type without an entry, a subclass included, is refused.
_INGEST_RULES = {
    ObdResponse: (lambda sample, source: source, _obd_rows),
    HeartSample: (lambda sample, source: sample.device, _heart_rows),
    RespirationSample: (lambda sample, source: sample.device, _respiration_rows),
    GpsFix: (lambda sample, source: source, _gps_rows),
    FlowSegment: (lambda sample, source: SERVICE_TRAFFIC if source is None else source, _flow_rows),
    WeatherObservation: (lambda sample, source: SERVICE_WEATHER if source is None else source, _weather_rows),
    AlertEvent: (lambda sample, source: SERVICE_ALERTS, _alert_rows),
}
