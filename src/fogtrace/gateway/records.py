"""Trace rows, the per-trip CSV format, pairings and session manifests.

A trace is a long-format CSV: one row per (timestamp, source, channel,
value) so heterogeneous cadences stay lossless. Header and quoting are
fixed (UTF-8, LF line endings, RFC 4180 quoting):

    timestamp_ms,source,channel,value,unit,interpolated

The whole table renders with one ``%``; a field holding ``,``, ``"``, CR
or LF is quoted, its quotes doubled, so a trace whose text needs no
quoting (every trace the simulator makes) is that one render. Parsing
splits on LF and ``,`` when the text has nothing to unquote. The split
lines become rows in one tight loop that checks each row inline (six
fields, a known channel, a flag of exactly ``0`` or ``1``). Any other
trace, one with a line that loop refuses included, goes through
``csv.reader`` and the checked row loop, which builds the same rows or
words the fault one way. ``validate_rows`` likewise checks the whole trace
in bulk, the timestamps in one pass and each distinct numeric value once,
and words its problems row by row only when the bulk check fails.

Timestamps are the gateway's arrival clock in Unix epoch milliseconds;
device clocks are untrusted, but for physiological samples the device's
own timestamp is preserved inside the value as ``<scalar>@<device_ms>``.
Rows sort by (timestamp_ms, source, channel), stable, so any interleaving
of the same source streams renders to identical bytes.

A pairing and a manifest serialize from their own fields, in the order the
dataclass declares them; ``from_dict`` reads them back from outside input,
converting each field.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import uuid
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter, le
from typing import NamedTuple

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


class _TraceRowFields(NamedTuple):
    timestamp_ms: int
    source: str
    channel: str
    value: str
    unit: str
    interpolated: int = 0


class TraceRow(_TraceRowFields):
    """One trace cell; its fields are the CSV columns in ``CSV_HEADER`` order."""

    __slots__ = ()

    def __new__(
        cls, timestamp_ms: int, source: str, channel: str, value: str, unit: str, interpolated: int = 0
    ):
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        if interpolated not in (0, 1):
            raise ValueError("interpolated flag must be 0 or 1")
        return tuple.__new__(cls, (timestamp_ms, source, channel, value, unit, interpolated))

    # ``_replace`` builds through ``_make``, so both go through the checks.
    @classmethod
    def _make(cls, iterable) -> "TraceRow":
        return cls(*iterable)


def sort_rows(rows: list[TraceRow]) -> list[TraceRow]:
    return sorted(rows, key=itemgetter(0, 1, 2))  # (timestamp_ms, source, channel)


_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
_ROW_FORMAT = "%d,%s,%s,%s,%s,%d\n"


def rows_to_csv(rows: list[TraceRow]) -> bytes:
    body = (_ROW_FORMAT * len(rows)) % tuple(chain.from_iterable(rows))
    # One check of the whole render instead of one per field: with no quote
    # or CR in it and exactly 5 commas and one LF per row, no field holds a
    # character that needs quoting, so the plain render is the quoted one too.
    if '"' in body or "\r" in body or body.count(",") != 5 * len(rows) or body.count("\n") != len(rows):
        body = "".join(
            [_ROW_FORMAT % (r[0], _quote(r[1]), _quote(r[2]), _quote(r[3]), _quote(r[4]), r[5]) for r in rows]
        )
    return (_HEADER_LINE + body).encode("utf-8")


def _quote(field: str) -> str:
    text = str(field)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_to_rows(data: bytes) -> list[TraceRow]:
    text = data.decode("utf-8")
    # A trace with nothing to unquote splits on LF and ",". A quote, a CR
    # or a NUL (which csv.reader refuses before Python 3.11) sends it to
    # csv.reader, as does a line long enough to break its field limit or
    # one the split loop refuses.
    if text.startswith(_HEADER_LINE) and '"' not in text and "\r" not in text and "\0" not in text:
        lines = text[len(_HEADER_LINE) :].split("\n")
        if lines[-1] == "":
            lines.pop()
        limit = csv.field_size_limit()
        if len(text) <= limit or max(map(len, lines)) <= limit:
            rows = _split_rows(lines)
            if rows is not None:
                return rows
    reader = csv.reader(io.StringIO(text))
    try:
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
    except csv.Error as exc:
        raise ValueError(f"trace is not valid CSV: {exc}") from exc


# The inline checks of ``_split_rows``: a lookup that fails refuses the
# trace. The channel lookup also hands back the one shared string.
_FLAGS = {"0": 0, "1": 1}
_CHANNEL_NAMES = {channel: channel for channel in CHANNELS}


def _split_rows(lines: list[str]) -> list[TraceRow] | None:
    """The rows of a trace's unquoted lines, or None when a line is off the fast loop.

    Each line of six fields with a known channel and a flag of ``0`` or ``1``
    becomes its row without ``TraceRow``'s own checks, which it has passed.
    """
    new, flags, channels = tuple.__new__, _FLAGS, _CHANNEL_NAMES
    try:
        return [
            new(TraceRow, (int(ts), source, channels[channel], value, unit, flags[flag]))
            for ts, source, channel, value, unit, flag in map(str.split, lines, repeat(","))
        ]
    except (ValueError, KeyError):
        return None


def validate_rows(rows: list[TraceRow]) -> list[str]:
    """Invariant check used by the verification path; returns problems found.

    A trace whose timestamps never decrease and whose distinct numeric-channel
    values all parse has none; only a trace that fails that bulk check is
    walked row by row, to word each problem.
    """
    stamps = [row[0] for row in rows]
    numeric = NUMERIC_CHANNELS
    values = {row[3] for row in rows if row[2] in numeric}
    if all(map(le, stamps, stamps[1:])) and None not in map(scalar_of, values):
        return []
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
        """The fields in declared order, as new dicts the caller may change."""
        return {**vars(self), "devices": [{**vars(d)} for d in self.devices]}

    def to_json(self) -> bytes:
        # Compact separators and the declared field order: serialization must
        # be byte-stable because these bytes authenticate the envelope.
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


def new_session_id() -> str:
    return str(uuid.uuid4())
