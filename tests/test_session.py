from __future__ import annotations

import pytest

from fogtrace.clock import SimulatedClock
from fogtrace.config import Config
from fogtrace.external import FlowSegment, WeatherObservation
from fogtrace.gateway import Gateway
from fogtrace.gateway.records import csv_to_rows, sha256_hex, sort_rows
from fogtrace.gateway.session import (
    KIND_GPS,
    KIND_OBD,
    OBD_CELL_CACHE_SIZE,
    GpsFix,
    LocalSource,
    NoActiveSessionError,
    NoDevicesError,
    SessionActiveError,
    SessionAlreadyActiveError,
    UnknownSourceError,
    _obd_cell,
)
from fogtrace.obd import PID_RPM, PID_SPEED, ObdResponse, PidId
from fogtrace.wearables import DeviceLockedError, HeartSample, MiBand, Polar, RespirationSample


@pytest.fixture
def gateway(sim_clock, key):
    return Gateway(clock=sim_clock, key=key, config=Config({"gateway.id": "gw-1"}))


def heart(device="polar-1", bpm=72.0, rr=(820.0, 830.0), at=1000):
    return HeartSample(device=device, bpm=bpm, rr_intervals_ms=tuple(rr), measured_at=at)


def reading(pid=PID_SPEED, value=42.0):
    return ObdResponse(PidId(pid), b"", value, "")


class _TaggedHeart(HeartSample):
    """A subclass of a record type: ingest dispatches on the exact type."""


class TestPairing:
    def test_pair_fresh_device(self, gateway):
        pairing = gateway.pair_device(Polar("polar-1"))
        assert pairing.locked_to == "gw-1"
        assert pairing.kind == "polar-h7"

    def test_foreign_gateway_rejected(self, gateway, sim_clock, key):
        device = Polar("polar-1")
        gateway.pair_device(device)
        other = Gateway(clock=sim_clock, key=key, config=Config({"gateway.id": "gw-2"}))
        with pytest.raises(DeviceLockedError):
            other.pair_device(device)

    def test_owner_repair_idempotent(self, gateway):
        device = Polar("polar-1")
        first = gateway.pair_device(device)
        second = gateway.pair_device(device)
        assert first == second


class TestSessionLifecycle:
    def test_start_requires_devices(self, gateway):
        with pytest.raises(NoDevicesError):
            gateway.start_session("d", "v")

    def test_second_start_rejected(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        gateway.start_session("d", "v")
        with pytest.raises(SessionAlreadyActiveError):
            gateway.start_session("d", "v")

    def test_end_without_active_rejected(self, gateway):
        with pytest.raises(NoActiveSessionError):
            gateway.end_session()

    def test_empty_session_header_only(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        gateway.start_session("d", "v")
        csv_bytes, manifest = gateway.end_session()
        assert csv_bytes == b"timestamp_ms,source,channel,value,unit,interpolated\n"
        assert manifest.row_count == 0
        assert manifest.csv_sha256 == sha256_hex(csv_bytes)
        assert manifest.schema_version == "1"

    def test_manifest_describes_session(self, gateway, sim_clock):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("driver-9", "vehicle-3")
        session.ingest(heart())
        sim_clock.sleep_ms(5000)
        csv_bytes, manifest = gateway.end_session()
        assert manifest.driver_id == "driver-9"
        assert manifest.vehicle_id == "vehicle-3"
        assert manifest.ended_at - manifest.started_at == 5000
        assert manifest.row_count == len(csv_to_rows(csv_bytes))
        assert [d.device_id for d in manifest.devices] == ["polar-1"]


class TestIngest:
    def test_heart_sample_fan_out(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        rows = session.ingest(heart(bpm=72.0, rr=(820.0, 830.0), at=977))
        assert [r.channel for r in rows] == ["bpm", "rr_ms", "rr_ms"]
        assert rows[0].value == "72@977"
        assert rows[1].value == "820@977"
        assert all(r.source == "polar-1" for r in rows)

    def test_gps_fix_two_rows_same_timestamp(self, gateway):
        gateway.pair_device(LocalSource("gps-1", KIND_GPS))
        session = gateway.start_session("d", "v")
        rows = session.ingest(GpsFix(52.5, 13.4, at=0), source="gps-1")
        assert [r.channel for r in rows] == ["lat", "lon"]
        assert rows[0].timestamp_ms == rows[1].timestamp_ms

    def test_respiration_fan_out(self, gateway):
        gateway.pair_device(Polar("spire-9"))
        session = gateway.start_session("d", "v")
        rows = session.ingest(RespirationSample("spire-9", 15.0, "focus", 123))
        assert [r.channel for r in rows] == ["breaths_per_min", "resp_state"]
        assert rows[1].value == "focus@123"

    def test_context_records(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        flow = FlowSegment(40.0, 60.0, 45.0, 30.0, 0.9, 500.0, (52.5, 13.4))
        weather = WeatherObservation(18.5, "clouds", 0.0, 3.0, 0)
        assert [r.channel for r in session.ingest(flow)] == [
            "traffic_current_speed",
            "traffic_free_flow_speed",
        ]
        assert [r.channel for r in session.ingest(weather)] == [
            "weather_temp_c",
            "weather_condition",
        ]

    def test_weather_condition_with_a_cr_round_trips(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        # A provider's reply names any condition; from_dict takes it as it is.
        reply = {"temp_c": 9.5, "condition": "light\rrain", "precipitation_mm_h": 0.4, "wind_ms": 3.0, "observed_at": 0}
        rows = session.ingest(WeatherObservation.from_dict(reply))
        csv_bytes, _ = gateway.end_session()
        assert csv_to_rows(csv_bytes) == sort_rows(rows)
        assert rows[1].value == "light\rrain"

    def test_unknown_source_rejected(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        with pytest.raises(UnknownSourceError):
            session.ingest(heart(device="intruder-1"))

    @pytest.mark.parametrize("record", [object(), _TaggedHeart("polar-1", 72.0, (), 0)], ids=["object", "subclass"])
    def test_record_without_rule_raises_type_error(self, gateway, record):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        with pytest.raises(TypeError, match=f"cannot ingest {type(record).__name__}$"):
            session.ingest(record, source="polar-1")
        assert gateway.end_session()[1].row_count == 0

    def test_arrival_timestamp_not_device_clock(self, gateway, sim_clock):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        sim_clock.sleep_ms(9000)
        rows = session.ingest(heart(at=42))
        assert rows[0].timestamp_ms == int(sim_clock.now_ms())
        assert rows[0].value.endswith("@42")

    def test_row_count_accounting_exact(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        expected = 0
        for i in range(50):
            expected += len(session.ingest(heart(at=i)))
        csv_bytes, manifest = gateway.end_session()
        assert manifest.row_count == expected
        assert len(csv_to_rows(csv_bytes)) == expected


class TestAdmittedSources:
    """Each source is checked on its first sample; a refused one on every sample."""

    def test_unknown_source_refused_on_every_call(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        session.ingest(GpsFix(52.5, 13.4, at=0), source="polar-1")
        for _ in range(3):
            with pytest.raises(UnknownSourceError):
                session.ingest(GpsFix(52.5, 13.4, at=0), source="gps-9")
            with pytest.raises(UnknownSourceError):
                session.ingest(reading(), source=None)
        assert gateway.end_session()[1].row_count == 2

    def test_device_paired_mid_session_is_accepted_after_its_pairing(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        session = gateway.start_session("d", "v")
        with pytest.raises(UnknownSourceError):
            session.ingest(reading(), source="obd-1")
        gateway.pair_device(LocalSource("obd-1", KIND_OBD))
        assert [r.source for r in session.ingest(reading(), source="obd-1")] == ["obd-1"]
        assert [r.source for r in session.ingest(reading(), source="obd-1")] == ["obd-1"]

    def test_heart_samples_resolve_to_their_own_devices(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        gateway.pair_device(Polar("polar-2"))
        session = gateway.start_session("d", "v")
        for _ in range(2):
            assert {r.source for r in session.ingest(heart(device="polar-1"), source="polar-2")} == {"polar-1"}
            assert {r.source for r in session.ingest(heart(device="polar-2"), source="polar-1")} == {"polar-2"}
            with pytest.raises(UnknownSourceError):
                session.ingest(heart(device="polar-3"), source="polar-1")


class TestObdCells:
    def test_rows_match_the_pid_table(self, gateway):
        gateway.pair_device(LocalSource("obd-1", KIND_OBD))
        session = gateway.start_session("d", "v")
        for _ in range(2):
            [rpm] = session.ingest(reading(PID_RPM, 1724.25), source="obd-1")
            [speed] = session.ingest(reading(PID_SPEED, 88), source="obd-1")
            assert rpm[2:] == ("rpm", "1724.25", "rpm", 0)
            assert speed[2:] == ("speed_kmh", "88", "km/h", 0)

    def test_memo_stays_within_its_bound(self):
        _obd_cell.cache_clear()
        for i in range(OBD_CELL_CACHE_SIZE + 100):
            assert _obd_cell(PID_SPEED, float(i)) == ("speed_kmh", str(i), "km/h")
        assert _obd_cell.cache_info().currsize == OBD_CELL_CACHE_SIZE

    def test_unknown_pid_raises_on_every_call(self, gateway):
        gateway.pair_device(LocalSource("obd-1", KIND_OBD))
        session = gateway.start_session("d", "v")
        for _ in range(3):
            with pytest.raises(ValueError, match="no trace channel for PID 0x42"):
                session.ingest(reading(0x42, 1.0), source="obd-1")
        assert gateway.end_session()[1].row_count == 0

    def test_bool_value_refused_after_its_equal_int(self, gateway):
        gateway.pair_device(LocalSource("obd-1", KIND_OBD))
        session = gateway.start_session("d", "v")
        assert session.ingest(reading(PID_SPEED, 1), source="obd-1")[0].value == "1"
        for _ in range(2):
            with pytest.raises(TypeError):
                session.ingest(reading(PID_SPEED, True), source="obd-1")


class TestOrderInsensitivity:
    def _run(self, gateway_factory, interleave):
        gateway = gateway_factory()
        gateway.pair_device(Polar("polar-1"))
        gateway.pair_device(MiBand("miband-1"))
        session = gateway.start_session("d", "v")
        polar = [heart(device="polar-1", bpm=70 + i, rr=(800.0 + i,), at=i * 10) for i in range(20)]
        miband = [heart(device="miband-1", bpm=65 + i, rr=(), at=i * 10) for i in range(20)]
        for sample in interleave(polar, miband):
            session.ingest(sample)
        csv_bytes, _ = gateway.end_session()
        return csv_bytes

    def test_interleavings_render_identically(self, sim_clock, key):
        def factory():
            return Gateway(clock=SimulatedClock(), key=key, config=Config({"gateway.id": "gw-1"}))

        def order_a(polar, miband):
            return [s for pair in zip(polar, miband) for s in pair]

        def order_b(polar, miband):
            return miband + polar

        assert self._run(factory, order_a) == self._run(factory, order_b)


class TestErase:
    def test_erase_local_clears_directories(self, sim_clock, key, tmp_path):
        outbox = tmp_path / "outbox"
        traces = tmp_path / "traces"
        outbox.mkdir()
        traces.mkdir()
        (outbox / "pending.env").write_bytes(b"x")
        (traces / "t.csv").write_bytes(b"y")
        gateway = Gateway(clock=sim_clock, key=key, outbox_dir=outbox, trace_dir=traces)
        erased = gateway.erase_data("local")
        assert erased["local_files"] == 2
        assert list(outbox.iterdir()) == []
        assert list(traces.iterdir()) == []

    def test_erase_device_clears_buffers(self, gateway):
        device = Polar("polar-1")
        gateway.pair_device(device)
        stream = device.subscribe(0.0)
        for _ in range(3):
            stream.take()
        erased = gateway.erase_data("device")
        assert erased["device_samples"] == 3
        assert len(device.buffer) == 0

    def test_erase_during_session_rejected(self, gateway):
        gateway.pair_device(Polar("polar-1"))
        gateway.start_session("d", "v")
        with pytest.raises(SessionActiveError):
            gateway.erase_data("both")

    def test_unknown_scope_rejected(self, gateway):
        with pytest.raises(ValueError):
            gateway.erase_data("everything")
