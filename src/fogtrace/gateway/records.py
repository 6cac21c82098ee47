"""Trace rows, the per-trip CSV format, pairings and session manifests.

A trace is a long-format CSV: one row per (timestamp, source, channel,
value) so heterogeneous cadences stay lossless. Header and quoting are
fixed (UTF-8, LF line endings, RFC 4180 quoting via the csv module):

    timestamp_ms,source,channel,value,unit,interpolated

Timestamps are the gateway's arrival clock in Unix epoch milliseconds;
device clocks are untrusted, but for physiological samples the device's
own timestamp is preserved inside the value as ``<scalar>@<device_ms>``.
Rows sort by (timestamp_ms, source, channel), stable, so any interleaving
of the same source streams renders to identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import uuid
from dataclasses import dataclass, fields
from operator import attrgetter

CSV_HEADER = ("timestamp_ms", "source", "channel", "value", "unit", "interpolated")

NUMERIC_CHANNELS = frozenset(
    {
        "speed_kmh",
        "rpm",
        "throttle_pct",
        "bpm",
        "rr_ms",
        "breaths_per_min",
        "lat",
        "lon",
        "traffic_current_speed",
        "traffic_free_flow_speed",
        "weather_temp_c",
    }
)

CHANNELS = NUMERIC_CHANNELS | {"resp_state", "weather_condition", "alert"}

SCHEMA_VERSION = "1"


def fmt_scalar(value: float | int) -> str:
    """Deterministic numeric rendering: integers bare, floats to 6 decimals."""
    f = value
    if type(f) is not float:
        if isinstance(value, bool):
            raise TypeError("booleans are not trace scalars")
        if isinstance(value, int):
            return str(value)
        f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.6f}".rstrip("0").rstrip(".")


def encode_value(scalar, device_ts_ms: int | None = None) -> str:
    base = fmt_scalar(scalar) if isinstance(scalar, (int, float)) else str(scalar)
    if device_ts_ms is None:
        return base
    return f"{base}@{int(device_ts_ms)}"


def scalar_of(value: str) -> float | None:
    """Numeric part of a value string, or None when it is not a number."""
    head = value.split("@", 1)[0]
    try:
        return float(head)
    except ValueError:
        return None


def state_of(value: str) -> str:
    return value.split("@", 1)[0]


def device_ts_of(value: str) -> int | None:
    if "@" not in value:
        return None
    try:
        return int(value.split("@", 1)[1])
    except ValueError:
        return None


@dataclass(frozen=True, slots=True, init=False)
class TraceRow:
    timestamp_ms: int
    source: str
    channel: str
    value: str
    unit: str
    interpolated: int = 0

    # Written out because a session builds one per sample: the generated
    # frozen __init__ goes through object.__setattr__ once per field, while
    # the slot setters below store each field directly.
    def __init__(
        self, timestamp_ms: int, source: str, channel: str, value: str, unit: str, interpolated: int = 0
    ):
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        if interpolated not in (0, 1):
            raise ValueError("interpolated flag must be 0 or 1")
        _set_timestamp_ms(self, timestamp_ms)
        _set_source(self, source)
        _set_channel(self, channel)
        _set_value(self, value)
        _set_unit(self, unit)
        _set_interpolated(self, interpolated)


_set_timestamp_ms, _set_source, _set_channel, _set_value, _set_unit, _set_interpolated = (
    vars(TraceRow)[field.name].__set__ for field in fields(TraceRow)
)


def sort_rows(rows: list[TraceRow]) -> list[TraceRow]:
    return sorted(rows, key=attrgetter("timestamp_ms", "source", "channel"))


def rows_to_csv(rows: list[TraceRow]) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(map(attrgetter(*CSV_HEADER), rows))
    return out.getvalue().encode("utf-8")


def csv_to_rows(data: bytes) -> list[TraceRow]:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    try:
        header = next(reader)
    except StopIteration as exc:
        raise ValueError("empty trace file") from exc
    if tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    rows = []
    for fields in reader:
        if len(fields) != 6:
            raise ValueError(f"trace row must have 6 fields, got {fields!r}")
        rows.append(TraceRow(int(fields[0]), fields[1], fields[2], fields[3], fields[4], int(fields[5])))
    return rows


def validate_rows(rows: list[TraceRow]) -> list[str]:
    """Invariant check used by the verification path; returns problems found."""
    problems = []
    last_ts = None
    for i, row in enumerate(rows):
        if last_ts is not None and row.timestamp_ms < last_ts:
            problems.append(f"row {i}: timestamp {row.timestamp_ms} decreases (prev {last_ts})")
        last_ts = row.timestamp_ms
        # TraceRow itself refuses unknown channels and flags other than 0 and 1.
        if row.channel in NUMERIC_CHANNELS and scalar_of(row.value) is None:
            problems.append(f"row {i}: channel {row.channel} value {row.value!r} is not numeric")
    return problems


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Pairing:
    device_id: str
    kind: str
    locked_to: str
    paired_at: int

    def to_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "kind": self.kind,
            "locked_to": self.locked_to,
            "paired_at": self.paired_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Pairing":
        return cls(
            device_id=data["device_id"],
            kind=data["kind"],
            locked_to=data["locked_to"],
            paired_at=int(data["paired_at"]),
        )


@dataclass(frozen=True)
class SessionManifest:
    """Per-trip metadata; its canonical JSON doubles as the envelope AD."""

    session_id: str
    driver_id: str
    vehicle_id: str
    started_at: int
    ended_at: int
    devices: tuple[Pairing, ...]
    row_count: int
    csv_sha256: str
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "driver_id": self.driver_id,
            "vehicle_id": self.vehicle_id,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "devices": [d.to_dict() for d in self.devices],
            "row_count": self.row_count,
            "csv_sha256": self.csv_sha256,
            "schema_version": self.schema_version,
        }

    def to_json(self) -> bytes:
        # Compact separators and fixed field order: serialization must be
        # byte-stable because these bytes authenticate the envelope.
        return json.dumps(self.to_dict(), separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_dict(cls, data: dict) -> "SessionManifest":
        return cls(
            session_id=data["session_id"],
            driver_id=data["driver_id"],
            vehicle_id=data["vehicle_id"],
            started_at=int(data["started_at"]),
            ended_at=int(data["ended_at"]),
            devices=tuple(Pairing.from_dict(d) for d in data["devices"]),
            row_count=int(data["row_count"]),
            csv_sha256=data["csv_sha256"],
            schema_version=str(data.get("schema_version", SCHEMA_VERSION)),
        )

    @classmethod
    def from_json(cls, data: bytes) -> "SessionManifest":
        return cls.from_dict(json.loads(data.decode("utf-8")))


def new_session_id() -> str:
    return str(uuid.uuid4())
