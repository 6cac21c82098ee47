from __future__ import annotations

import json

import pytest

from fogtrace.gateway.records import (
    CSV_HEADER,
    Pairing,
    SessionManifest,
    TraceRow,
    csv_to_rows,
    device_ts_of,
    encode_value,
    fmt_scalar,
    rows_to_csv,
    scalar_of,
    sha256_hex,
    sort_rows,
    state_of,
    validate_rows,
)


class TestScalars:
    @pytest.mark.parametrize(
        "value,expected",
        [(60, "60"), (60.0, "60"), (72.5, "72.5"), (3.1415926535, "3.141593"), (0.0, "0"), (-1.25, "-1.25")],
    )
    def test_fmt_scalar(self, value, expected):
        assert fmt_scalar(value) == expected

    def test_fmt_rejects_bool(self):
        with pytest.raises(TypeError):
            fmt_scalar(True)

    def test_value_with_device_timestamp(self):
        value = encode_value(72.0, 1_700_000_000_123)
        assert value == "72@1700000000123"
        assert scalar_of(value) == 72.0
        assert device_ts_of(value) == 1_700_000_000_123

    def test_plain_value(self):
        assert scalar_of("55.5") == 55.5
        assert device_ts_of("55.5") is None

    def test_state_of(self):
        assert state_of("tension@123") == "tension"
        assert scalar_of("tension@123") is None


class TestTraceRow:
    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            TraceRow(0, "x", "nope", "1", "")

    def test_bad_interpolated_flag(self):
        with pytest.raises(ValueError):
            TraceRow(0, "x", "bpm", "1", "", interpolated=2)

    def test_replace_is_checked_too(self):
        row = TraceRow(0, "x", "bpm", "1", "")
        assert row._replace(value="2") == TraceRow(0, "x", "bpm", "2", "")
        with pytest.raises(ValueError):
            row._replace(channel="nope")
        with pytest.raises(ValueError):
            row._replace(interpolated=2)


class TestCsv:
    def _rows(self):
        return [
            TraceRow(3, "obd-1", "rpm", "1724", "rpm"),
            TraceRow(1, "polar-1", "bpm", "72@1", "bpm"),
            TraceRow(2, "gps-1", "lat", "52.52", "deg"),
            TraceRow(2, "gps-1", "lon", "13.405", "deg"),
        ]

    def test_row_fields_are_the_csv_columns(self):
        # rows_to_csv writes each row as it is, so its fields are the columns.
        assert TraceRow._fields == CSV_HEADER

    def test_header_bit_exact(self):
        data = rows_to_csv([])
        assert data == b"timestamp_ms,source,channel,value,unit,interpolated\n"
        assert tuple("timestamp_ms,source,channel,value,unit,interpolated".split(",")) == CSV_HEADER

    def test_round_trip_identity(self):
        rows = sort_rows(self._rows())
        assert csv_to_rows(rows_to_csv(rows)) == rows

    def test_quoting_survives_round_trip(self):
        rows = [TraceRow(1, 'sr,c"x', "alert", 'va,l"ue', "")]
        assert csv_to_rows(rows_to_csv(rows)) == rows

    def test_cr_in_a_field_is_quoted(self):
        # csv.writer leaves a CR bare under an LF line terminator (3.10, 3.11).
        rows = [TraceRow(1, "weather", "weather_condition", "light\rrain", "")]
        assert rows_to_csv(rows).endswith(b'1,weather,weather_condition,"light\rrain",,0\n')
        assert csv_to_rows(rows_to_csv(rows)) == rows

    def test_bare_cr_is_a_value_error(self):
        data = b"timestamp_ms,source,channel,value,unit,interpolated\n1,weather,weather_condition,light\rrain,,0\n"
        with pytest.raises(ValueError, match="not valid CSV"):
            csv_to_rows(data)

    def test_lf_line_endings(self):
        data = rows_to_csv(sort_rows(self._rows()))
        assert b"\r" not in data

    def test_sort_key_is_timestamp_source_channel(self):
        rows = sort_rows(self._rows())
        assert [(r.timestamp_ms, r.source, r.channel) for r in rows] == [
            (1, "polar-1", "bpm"),
            (2, "gps-1", "lat"),
            (2, "gps-1", "lon"),
            (3, "obd-1", "rpm"),
        ]

    def test_sort_is_stable_for_equal_keys(self):
        a = TraceRow(5, "polar-1", "rr_ms", "800@1", "ms")
        b = TraceRow(5, "polar-1", "rr_ms", "820@1", "ms")
        assert sort_rows([a, b]) == [a, b]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            csv_to_rows(b"nope\n1,2,3,4,5,6\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            csv_to_rows(b"")


class TestValidateRows:
    def test_clean_rows_pass(self):
        rows = sort_rows(
            [
                TraceRow(1, "a", "bpm", "70@1", "bpm"),
                TraceRow(2, "a", "bpm", "71@2", "bpm"),
            ]
        )
        assert validate_rows(rows) == []

    def test_decreasing_timestamp_flagged(self):
        rows = [TraceRow(2, "a", "bpm", "70", "bpm"), TraceRow(1, "a", "bpm", "71", "bpm")]
        assert any("decreases" in p for p in validate_rows(rows))

    def test_non_numeric_numeric_channel_flagged(self):
        rows = [TraceRow(1, "a", "bpm", "high", "bpm")]
        assert any("not numeric" in p for p in validate_rows(rows))


class TestManifest:
    def _manifest(self):
        return SessionManifest(
            session_id="sid",
            driver_id="drv",
            vehicle_id="veh",
            started_at=100,
            ended_at=200,
            devices=(Pairing("polar-1", "polar-h7", "gw-1", 99),),
            row_count=12,
            csv_sha256="ab" * 32,
        )

    def test_json_round_trip_byte_identical(self):
        manifest = self._manifest()
        encoded = manifest.to_json()
        again = SessionManifest.from_dict(json.loads(encoded))
        assert again == manifest
        assert again.to_json() == encoded

    def test_field_names_exact(self):
        data = json.loads(self._manifest().to_json())
        assert set(data) == {
            "session_id",
            "driver_id",
            "vehicle_id",
            "started_at",
            "ended_at",
            "devices",
            "row_count",
            "csv_sha256",
            "schema_version",
        }
        assert data["schema_version"] == "1"

    def test_json_bytes_are_pinned(self):
        # The envelope authenticates these bytes, so they must never drift:
        # field order, compact separators and ASCII escapes included.
        manifest = SessionManifest(
            session_id="5f0c6a2e-0000-4000-8000-000000000001",
            driver_id="Zoë 運転手",
            vehicle_id="veh-1",
            started_at=1_700_000_000_000,
            ended_at=1_700_000_060_000,
            devices=(
                Pairing("polar-1", "polar-h7", "gw-1", 1_699_999_999_000),
                Pairing("obd-1", "obd", "gw-1", 1_699_999_999_500),
            ),
            row_count=1634,
            csv_sha256="0c" * 32,
        )
        assert manifest.to_json() == (
            b'{"session_id":"5f0c6a2e-0000-4000-8000-000000000001",'
            b'"driver_id":"Zo\\u00eb \\u904b\\u8ee2\\u624b","vehicle_id":"veh-1",'
            b'"started_at":1700000000000,"ended_at":1700000060000,"devices":['
            b'{"device_id":"polar-1","kind":"polar-h7","locked_to":"gw-1","paired_at":1699999999000},'
            b'{"device_id":"obd-1","kind":"obd","locked_to":"gw-1","paired_at":1699999999500}],'
            b'"row_count":1634,"csv_sha256":"' + b"0c" * 32 + b'","schema_version":"1"}'
        )

    def test_to_dict_is_a_copy(self):
        manifest = self._manifest()
        encoded = manifest.to_json()
        data = manifest.to_dict()
        data["devices"][0]["device_id"] = "changed"
        data["devices"].append({})
        data["row_count"] = 0
        assert manifest.to_json() == encoded
        assert manifest.devices[0].device_id == "polar-1"

    def test_sha256_helper(self):
        assert sha256_hex(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
