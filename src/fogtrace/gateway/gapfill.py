"""Linear gap filling for numeric trace channels.

A gap between consecutive samples of one (source, channel) stream counts
as fillable when it exceeds 1.5x the channel's nominal period but is at
most 3x; inside that band, values are linearly interpolated at the nominal
period and flagged ``interpolated = 1``. Longer voids are left open so the
trace never invents more than a couple of samples, and non-numeric
channels are never touched.
"""

from __future__ import annotations

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
    return sort_rows(list(rows) + _stream_gap_rows(rows, channel, nominal_period_ms))


def _stream_gap_rows(rows: list[TraceRow], channel: str, period: float | None) -> list[TraceRow]:
    """The interpolated rows for the real ``channel`` samples in ``rows``, in order."""
    if channel not in NUMERIC_CHANNELS or not period or period <= 0:
        return []
    stream = [r for r in rows if r.channel == channel and r.interpolated == 0]
    inserted: list[TraceRow] = []
    for prev, nxt in zip(stream, stream[1:]):
        inserted.extend(_fill_one_gap(prev, nxt, channel, period))
    return inserted


def _fill_one_gap(prev: TraceRow, nxt: TraceRow, channel: str, period: float) -> list[TraceRow]:
    dt = nxt.timestamp_ms - prev.timestamp_ms
    if dt <= MIN_GAP_FACTOR * period or dt > MAX_GAP_FACTOR * period:
        return []
    v0 = scalar_of(prev.value)
    v1 = scalar_of(nxt.value)
    if v0 is None or v1 is None:
        return []
    out = []
    k = 1
    t = prev.timestamp_ms + k * period
    while t <= nxt.timestamp_ms - GUARD_FACTOR * period:
        frac = (t - prev.timestamp_ms) / dt
        value = v0 + (v1 - v0) * frac
        out.append(
            TraceRow(
                timestamp_ms=int(round(t)),
                source=prev.source,
                channel=channel,
                value=fmt_scalar(value),
                unit=prev.unit,
                interpolated=1,
            )
        )
        k += 1
        t = prev.timestamp_ms + k * period
    return out


def fill_session_gaps(
    rows: list[TraceRow],
    period_for: Callable[[str, str], float | None],
) -> list[TraceRow]:
    """Apply gap filling per (source, channel) using the supplied period map.

    Returns ``rows`` followed by the inserted rows, unsorted: the caller
    sorts the whole trace once.
    """
    by_source: dict[str, list[TraceRow]] = {}
    for row in rows:
        by_source.setdefault(row.source, []).append(row)
    inserted: list[TraceRow] = []
    for source, source_rows in by_source.items():
        for channel in {r.channel for r in source_rows}:
            inserted.extend(_stream_gap_rows(source_rows, channel, period_for(source, channel)))
    return rows + inserted
