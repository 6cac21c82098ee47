"""The trace render and parse against reference copies of their ``csv`` versions.

``_ref_rows_to_csv`` and ``_ref_csv_to_rows`` below are
``fogtrace.gateway.records.rows_to_csv`` and ``csv_to_rows`` as they were
when every row went through ``csv.writer`` and ``csv.reader``, kept as they
were except that a ``csv.Error`` is raised as the ``ValueError`` the
verify path reports. The join render must give the writer's bytes, quoting
included, for every row whose text the writer quotes correctly (no CR,
which Python 3.10 and 3.11 leave bare); the split parse must give the
reader's rows, or raise a ``ValueError`` worded as the reader's where it
raises, on any text, a blank line included.

NUL is left out of the rows: Python 3.10's ``csv.writer`` refuses it and
its ``csv.reader`` refuses it on the way back, where 3.11's accept it. The
parse property still feeds NUL to both parsers.

The bulk checks have row-at-a-time references too: ``_ref_validate_rows``
and ``_ref_fill_session_gaps`` are ``validate_rows`` and
``fill_session_gaps`` as they were when each row went through the loop.
The lines the split parse's fast loop does not take must give the rows, or
the ``ValueError`` message, of the checked row loop. ``LatencyModel.sample``
works out ``random.triangular`` itself and must give its delays exactly.
"""

from __future__ import annotations

import csv
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogtrace.gateway.gapfill import fill_session_gaps
from fogtrace.gateway.records import (
    CHANNELS,
    CSV_HEADER,
    NUMERIC_CHANNELS,
    TraceRow,
    csv_to_rows,
    fmt_scalar,
    rows_to_csv,
    scalar_of,
    sort_rows,
    validate_rows,
)
from fogtrace.vehicle import LatencyModel

# -- reference ------------------------------------------------------------------


def _ref_rows_to_csv(rows: list[TraceRow]) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def _ref_csv_to_rows(data: bytes) -> list[TraceRow]:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    try:
        header = next(reader)
    except StopIteration as exc:
        raise ValueError("empty trace file") from exc
    except csv.Error as exc:
        raise ValueError(f"trace is not valid CSV: {exc}") from exc
    if tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    rows = []
    try:
        for fields in reader:
            if len(fields) != 6:
                raise ValueError(f"trace row must have 6 fields, got {fields!r}")
            rows.append(TraceRow(int(fields[0]), fields[1], fields[2], fields[3], fields[4], int(fields[5])))
    except csv.Error as exc:
        raise ValueError(f"trace is not valid CSV: {exc}") from exc
    return rows


def _ref_validate_rows(rows: list[TraceRow]) -> list[str]:
    problems = []
    last_ts = None
    for i, row in enumerate(rows):
        if last_ts is not None and row.timestamp_ms < last_ts:
            problems.append(f"row {i}: timestamp {row.timestamp_ms} decreases (prev {last_ts})")
        last_ts = row.timestamp_ms
        if row.channel in NUMERIC_CHANNELS and scalar_of(row.value) is None:
            problems.append(f"row {i}: channel {row.channel} value {row.value!r} is not numeric")
    return problems


def _ref_stream_gap_rows(rows: list[TraceRow], channel: str, period: float | None) -> list[TraceRow]:
    if channel not in NUMERIC_CHANNELS or not period or period <= 0:
        return []
    stream = [r for r in rows if r.channel == channel and r.interpolated == 0]
    inserted: list[TraceRow] = []
    for prev, nxt in zip(stream, stream[1:]):
        dt = nxt.timestamp_ms - prev.timestamp_ms
        if dt <= 1.5 * period or dt > 3.0 * period:
            continue
        v0, v1 = scalar_of(prev.value), scalar_of(nxt.value)
        if v0 is None or v1 is None:
            continue
        k = 1
        t = prev.timestamp_ms + k * period
        while t <= nxt.timestamp_ms - 0.5 * period:
            frac = (t - prev.timestamp_ms) / dt
            value = v0 + (v1 - v0) * frac
            inserted.append(TraceRow(int(round(t)), prev.source, channel, fmt_scalar(value), prev.unit, 1))
            k += 1
            t = prev.timestamp_ms + k * period
    return inserted


def _ref_fill_session_gaps(rows: list[TraceRow], period_for) -> list[TraceRow]:
    by_source: dict[str, list[TraceRow]] = {}
    for row in rows:
        by_source.setdefault(row.source, []).append(row)
    inserted: list[TraceRow] = []
    for source, source_rows in by_source.items():
        for channel in {r.channel for r in source_rows}:
            inserted.extend(_ref_stream_gap_rows(source_rows, channel, period_for(source, channel)))
    return rows + inserted


def _outcome(parse, data: bytes):
    try:
        return parse(data)
    except ValueError:
        return ValueError


def _worded_outcome(parse, data: bytes):
    """The rows, or the ``ValueError``'s message."""
    try:
        return parse(data)
    except ValueError as exc:
        return ("ValueError", str(exc))


# -- strategies -------------------------------------------------------------------

_HEADER = ",".join(CSV_HEADER) + "\n"
# The characters the render and the parse treat specially, the line breaks
# that str.splitlines knows and csv does not, and some plain ones.
_SPECIAL = ',"\n\r\0\x0b\x0c\x1c\x85\u2028 @-.é€'


def _texts(cr: bool) -> st.SearchStrategy[str]:
    special = _SPECIAL.replace("\r", "") if not cr else _SPECIAL
    plain = st.characters(max_codepoint=0x7F, blacklist_characters="\r\0")
    return st.text(st.one_of(st.sampled_from(special.replace("\0", "")), plain), max_size=8)


def _rows(cr: bool) -> st.SearchStrategy[list[TraceRow]]:
    row = st.builds(
        TraceRow,
        st.integers(min_value=-(2**63), max_value=2**63),
        _texts(cr),
        st.sampled_from(sorted(CHANNELS)),
        _texts(cr),
        _texts(cr),
        st.sampled_from((0, 1)),
    )
    return st.lists(row, max_size=5)


_FIELD = st.one_of(
    st.integers(min_value=-5, max_value=2**40).map(str),
    st.sampled_from(sorted(CHANNELS)),
    st.sampled_from(("0", "1", "", " 1", "1 ", "+1", "1_0", "x")),
    st.text(st.sampled_from(_SPECIAL + "ab01"), max_size=6),
)


_ROW_LINE = st.tuples(
    st.integers(min_value=-5, max_value=2**40).map(str),
    _FIELD,
    st.sampled_from(sorted(CHANNELS)),
    _FIELD,
    _FIELD,
    st.sampled_from(("0", "1")),
).map(",".join)


@st.composite
def trace_texts(draw) -> bytes:
    """Trace-like text: mostly a header and comma-joined lines, sometimes anything."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text()).encode("utf-8")
    line = st.one_of(_ROW_LINE, st.just(""), st.lists(_FIELD, max_size=8).map(",".join))
    lines = draw(st.lists(line, max_size=6))
    body = "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n", "\r\n")))
    head = draw(st.sampled_from((_HEADER, _HEADER[:-1] + "\r\n", '"timestamp_ms"' + _HEADER[12:], "", "nope\n")))
    return (head + body).encode("utf-8")


# -- properties ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_rows(cr=False))
@example([TraceRow(1, 'sr,c"x', "alert", 'va,l"ue', "")])
@example([TraceRow(1, "a\nb", "alert", "", "u,")])
def test_render_is_the_writer_bytes(rows):
    assert rows_to_csv(rows) == _ref_rows_to_csv(rows)


@settings(max_examples=200, deadline=None)
@given(_rows(cr=True))
@example([TraceRow(1, "weather", "weather_condition", "light\rrain", "")])
@example([TraceRow(1, "\r", "alert", "\r\n", '"\r"')])
def test_round_trip_is_identity(rows):
    assert csv_to_rows(rows_to_csv(rows)) == rows


@settings(max_examples=400, deadline=None)
@given(trace_texts())
@example(_HEADER.encode())
@example((_HEADER + "1,gps-1,lat,52.5,deg,0").encode())
@example((_HEADER + "1,gps-1,lat,52.5,deg,0\n\n").encode())
@example((_HEADER + "1,gps-1,lat,52.5,deg,0\n\n2,gps-1,lat,52.5,deg,0\n").encode())
@example((_HEADER + "1,gps-1,lat,52.5,deg,0,\n").encode())
@example((_HEADER + "1,weather,weather_condition,light\rrain,,0\n").encode())
@example((_HEADER + "1,x,alert,a\0b,,0\n").encode())
@example(b"\xff")
def test_split_parse_is_the_reader_parse(data):
    assert _worded_outcome(csv_to_rows, data) == _worded_outcome(_ref_csv_to_rows, data)


def test_a_line_beyond_the_field_limit_is_refused_as_the_reader_refuses_it():
    long_value = "x" * (csv.field_size_limit() + 1)
    data = (_HEADER + f"1,x,alert,{long_value},,0\n").encode()
    assert _outcome(csv_to_rows, data) is ValueError is _outcome(_ref_csv_to_rows, data)
    # A long line whose fields fit is parsed either way.
    data = (_HEADER + f"1,{long_value[:1000]},alert,{long_value[:-1001]},,0\n").encode()
    assert csv_to_rows(data) == _ref_csv_to_rows(data)


# -- the bulk paths against their row loops ------------------------------------------

_VALUES = st.one_of(
    st.integers(-300, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(("x", "", "1@2", "72.5@17", "tension@5", "@", " 3 ", "1e5", "nan", "-inf", "0x10", "1_0")),
)
_ANY_ROW = st.builds(
    TraceRow,
    st.integers(0, 20),  # a small range, so timestamps often decrease
    st.sampled_from(("polar-1", "gps-1", "obd-1")),
    st.sampled_from(sorted(CHANNELS)),
    _VALUES,
    st.sampled_from(("", "bpm")),
    st.sampled_from((0, 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_ROW, max_size=12))
@example([TraceRow(5, "s", "bpm", "70", "bpm"), TraceRow(3, "s", "bpm", "x", "bpm")])
@example([TraceRow(1, "s", "resp_state", "calm", ""), TraceRow(1, "s", "bpm", "x@1", "bpm")])
def test_validate_gives_the_row_loop_problems(rows):
    assert validate_rows(rows) == _ref_validate_rows(rows)


_PERIODS = {
    ("polar-1", "bpm"): 2000.0,
    ("polar-1", "rr_ms"): None,
    ("gps-1", "lat"): 1000.0,
    ("gps-1", "lon"): 1000.0,
    ("gps-1", "weather_condition"): 1000.0,  # not numeric: never filled
    ("obd-1", "speed_kmh"): 0.0,
}
_STREAM_ROW = st.builds(
    TraceRow,
    st.integers(0, 12).map(lambda k: k * 700),
    st.sampled_from(("polar-1", "gps-1", "obd-1")),
    st.sampled_from(("bpm", "rr_ms", "lat", "lon", "weather_condition", "speed_kmh")),
    st.one_of(st.integers(-50, 200).map(str), st.just("x"), st.just("71@9")),
    st.just("u"),
    st.sampled_from((0, 0, 0, 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_STREAM_ROW, max_size=20).map(sort_rows))
@example([TraceRow(0, "polar-1", "bpm", "70", "bpm"), TraceRow(4000, "polar-1", "bpm", "74", "bpm")])
def test_session_gap_fill_gives_the_row_loop_rows(rows):
    def period_for(source, channel):
        return _PERIODS.get((source, channel))

    assert sort_rows(fill_session_gaps(rows, period_for)) == sort_rows(_ref_fill_session_gaps(rows, period_for))


@pytest.mark.parametrize(
    "line",
    [
        "1,obd-1,rpm,800,rpm, 1",  # int() reads " 1" as 1
        "1,obd-1,rpm,800,rpm,+1",
        "1,obd-1,rpm,800,rpm,2",
        "1,obd-1,rpm,800,rpm,x",
        "1,obd-1,nope,800,rpm,0",
        "1,obd-1,rpm,800,0",
        "1,obd-1,rpm,800,rpm,0,",
        "x,obd-1,rpm,800,rpm,0",
        " 7,obd-1,rpm,800,rpm,0",
    ],
)
def test_a_line_off_the_fast_loop_gives_the_row_loop_outcome(line):
    good = "2,gps-1,lat,52.5,deg,0"
    for body in (f"{line}\n", f"{good}\n{line}\n{good}\n", f"{line}\nx,y\n"):
        data = (_HEADER + body).encode()
        assert _worded_outcome(csv_to_rows, data) == _worded_outcome(_ref_csv_to_rows, data)


@pytest.mark.parametrize("bounds", [(50, 80, 200), (5, 5, 5), (0, 0, 30), (50.0, 200.0, 200.0)])
def test_latency_samples_are_the_triangular_draws(bounds):
    low, mode, high = bounds
    model = LatencyModel(min_ms=low, mode_ms=mode, max_ms=high, seed=7)
    reference = random.Random(7)
    for _ in range(10_000):
        assert model.sample() == reference.triangular(low, high, mode)
    # One draw per sample, a constant delay's included: the generators stay in step.
    assert model._random() == reference.random()
