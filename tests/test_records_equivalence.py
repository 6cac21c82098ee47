"""The trace render and parse against reference copies of their ``csv`` versions.

``_ref_rows_to_csv`` and ``_ref_csv_to_rows`` below are
``fogtrace.gateway.records.rows_to_csv`` and ``csv_to_rows`` as they were
when every row went through ``csv.writer`` and ``csv.reader``, kept as they
were except that a ``csv.Error`` is raised as the ``ValueError`` the
verify path reports. The join render must give the writer's bytes, quoting
included, for every row whose text the writer quotes correctly (no CR,
which Python 3.10 and 3.11 leave bare); the split parse must give the
reader's rows, or raise ``ValueError`` where it raises, on any text.

NUL is left out of the rows: Python 3.10's ``csv.writer`` refuses it and
its ``csv.reader`` refuses it on the way back, where 3.11's accept it. The
parse property still feeds NUL to both parsers.
"""

from __future__ import annotations

import csv
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogtrace.gateway.records import CHANNELS, CSV_HEADER, TraceRow, csv_to_rows, rows_to_csv

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
        raise ValueError(str(exc)) from exc
    if tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    rows = []
    try:
        for fields in reader:
            if len(fields) != 6:
                raise ValueError(f"trace row must have 6 fields, got {fields!r}")
            rows.append(TraceRow(int(fields[0]), fields[1], fields[2], fields[3], fields[4], int(fields[5])))
    except csv.Error as exc:
        raise ValueError(str(exc)) from exc
    return rows


def _outcome(parse, data: bytes):
    try:
        return parse(data)
    except ValueError:
        return ValueError


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
    line = st.one_of(_ROW_LINE, st.lists(_FIELD, max_size=8).map(",".join))
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
@example((_HEADER + "1,gps-1,lat,52.5,deg,0,\n").encode())
@example((_HEADER + "1,weather,weather_condition,light\rrain,,0\n").encode())
@example((_HEADER + "1,x,alert,a\0b,,0\n").encode())
@example(b"\xff")
def test_split_parse_is_the_reader_parse(data):
    assert _outcome(csv_to_rows, data) == _outcome(_ref_csv_to_rows, data)


def test_a_line_beyond_the_field_limit_is_refused_as_the_reader_refuses_it():
    long_value = "x" * (csv.field_size_limit() + 1)
    data = (_HEADER + f"1,x,alert,{long_value},,0\n").encode()
    assert _outcome(csv_to_rows, data) is ValueError is _outcome(_ref_csv_to_rows, data)
    # A long line whose fields fit is parsed either way.
    data = (_HEADER + f"1,{long_value[:1000]},alert,{long_value[:-1001]},,0\n").encode()
    assert csv_to_rows(data) == _ref_csv_to_rows(data)
