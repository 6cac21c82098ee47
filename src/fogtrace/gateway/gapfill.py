"""Linear gap filling for numeric trace channels.

A gap between consecutive samples of one (source, channel) stream counts
as fillable when it exceeds 1.5x the channel's nominal period but is at
most 3x; inside that band, values are linearly interpolated at the nominal
period and flagged ``interpolated = 1``. Longer voids are left open so the
trace never invents more than a couple of samples, and non-numeric
channels are never touched.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from .records import NUMERIC_CHANNELS, TraceRow, fmt_scalar, scalar_of, sort_rows

MIN_GAP_FACTOR = 1.5
MAX_GAP_FACTOR = 3.0
GUARD_FACTOR = 0.5  # no inserted point closer than this to the next real sample


def fill_gaps(rows: list[TraceRow], channel: str, nominal_period_ms: float) -> list[TraceRow]:
    """Fill gaps for ``channel`` within ``rows`` (one source's stream).

    Returns a new, sorted list containing the originals plus any inserted
    rows. Rows of other channels pass through untouched.
    """
    stream = [r for r in rows if r.channel == channel and r.interpolated == 0]
    return sort_rows(list(rows) + _stream_gap_rows(stream, channel, nominal_period_ms))


def _stream_gap_rows(stream: list[TraceRow], channel: str, period: float | None) -> list[TraceRow]:
    """The interpolated rows between consecutive real samples of one stream, in order."""
    if channel not in NUMERIC_CHANNELS or not period or period <= 0:
        return []
    shortest, longest, guard = MIN_GAP_FACTOR * period, MAX_GAP_FACTOR * period, GUARD_FACTOR * period
    inserted: list[TraceRow] = []
    for prev, nxt in zip(stream, stream[1:]):
        t0, t1 = prev.timestamp_ms, nxt.timestamp_ms
        dt = t1 - t0
        if dt <= shortest or dt > longest:
            continue
        v0 = scalar_of(prev.value)
        v1 = scalar_of(nxt.value)
        if v0 is None or v1 is None:
            continue
        k = 1
        t = t0 + k * period
        while t <= t1 - guard:
            value = v0 + (v1 - v0) * ((t - t0) / dt)
            inserted.append(TraceRow(int(round(t)), prev.source, channel, fmt_scalar(value), prev.unit, 1))
            k += 1
            t = t0 + k * period
    return inserted


def fill_session_gaps(
    rows: list[TraceRow],
    period_for: Callable[[str, str], float | None],
) -> list[TraceRow]:
    """Apply gap filling per (source, channel) using the supplied period map.

    Returns ``rows`` followed by the inserted rows, unsorted: the caller
    sorts the whole trace once.
    """
    streams: defaultdict[tuple[str, str], list[TraceRow]] = defaultdict(list)
    for row in rows:
        if not row[5]:  # interpolated
            streams[row[1], row[2]].append(row)  # (source, channel)
    inserted: list[TraceRow] = []
    for (source, channel), stream in streams.items():
        inserted.extend(_stream_gap_rows(stream, channel, period_for(source, channel)))
    return rows + inserted
