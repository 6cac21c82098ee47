"""Full-session orchestration on the simulated clock."""

from __future__ import annotations

import contextlib
from collections import Counter
from pathlib import Path

import pytest

from fogtrace.clock import SimulatedClock
from fogtrace.cloudstore import CloudUnreachableError
from fogtrace.config import Config
from fogtrace.external import (
    FlowSegment,
    HttpProvider,
    LocalWeatherProvider,
    RateLimiter,
    ServiceUnavailableError,
    WeatherClient,
    WeatherObservation,
    WeatherService,
)
from fogtrace.gateway import Gateway, SessionRunner, UploadError, UploadRejectedError
from fogtrace.gateway.records import csv_to_rows, device_ts_of, sha256_hex, validate_rows
from fogtrace.gateway.runner import _ProducerState
from fogtrace.gateway.session import KIND_GPS, LocalSource
from fogtrace.vehicle import InProcessObdLink, LatencyModel, VehicleSimulator
from fogtrace.wearables import AlreadySubscribedError, MiBand, PhysioModel, Polar, Spire


def counts_by(rows, source: str) -> Counter:
    return Counter(r.channel for r in rows if r.source == source and not r.interpolated)


@pytest.fixture(scope="module")
def result():
    # One 300 s run feeds several assertions.
    clock = SimulatedClock()
    sim = VehicleSimulator(latency=LatencyModel(seed=7), seed=7, start_ms=clock.now_ms())
    physio = PhysioModel()
    gateway = Gateway(clock=clock, key=bytes(32))
    runner = SessionRunner(
        gateway,
        clock,
        simulator=sim,
        obd_link_factory=lambda: InProcessObdLink(sim, clock),
        wearables=(
            MiBand("miband-1", physio, 7),
            Polar("polar-1", physio, 7),
            Spire("spire-1", physio, 7),
        ),
        physio=physio,
    )
    return runner.run("driver-1", "vehicle-1", 300.0, upload=False)


class TestFullSession:
    def test_row_count_matches_manifest_and_csv(self, result):
        rows = csv_to_rows(result.csv_bytes)
        assert len(rows) == result.manifest.row_count
        assert result.manifest.csv_sha256 == sha256_hex(result.csv_bytes)

    def test_per_source_counts_within_tolerance(self, result):
        rows = csv_to_rows(result.csv_bytes)
        polar = counts_by(rows, "polar-1")
        spire = counts_by(rows, "spire-1")
        # 300 s at one push per 2 s / per 5 s.
        assert abs(polar["bpm"] - 150) <= 150 * 0.05
        assert abs(spire["breaths_per_min"] - 60) <= 60 * 0.05
        assert spire["resp_state"] == spire["breaths_per_min"]
        gps = counts_by(rows, "gps-1")
        assert abs(gps["lat"] - 300) <= 300 * 0.05
        assert gps["lat"] == gps["lon"]
        obd = counts_by(rows, "obd-1")
        obd_total = obd["rpm"] + obd["speed_kmh"] + obd["throttle_pct"]
        assert abs(obd_total - 2727) <= 2727 * 0.05
        assert result.obd.rows == obd_total

    def test_miband_respects_refresh_window(self, result):
        rows = csv_to_rows(result.csv_bytes)
        stamps = [
            device_ts_of(r.value)
            for r in rows
            if r.source == "miband-1" and r.channel == "bpm" and not r.interpolated
        ]
        assert len(set(stamps)) == len(stamps)  # runner dedupes cached polls
        assert len(stamps) <= 31
        ordered = sorted(stamps)
        assert all(b - a >= 10_000 for a, b in zip(ordered, ordered[1:]))

    def test_rows_sorted_and_valid(self, result):
        rows = csv_to_rows(result.csv_bytes)
        assert validate_rows(rows) == []

    def test_session_spans_requested_duration(self, result):
        assert result.manifest.ended_at - result.manifest.started_at >= 300_000


class TestDeterminism:
    def _run(self):
        clock = SimulatedClock()
        sim = VehicleSimulator(latency=LatencyModel(seed=11), seed=11, start_ms=clock.now_ms())
        physio = PhysioModel()
        gateway = Gateway(clock=clock, key=bytes(32))
        runner = SessionRunner(
            gateway,
            clock,
            simulator=sim,
            obd_link_factory=lambda: InProcessObdLink(sim, clock),
            wearables=(Polar("polar-1", physio, 11), Spire("spire-1", physio, 11)),
            physio=physio,
        )
        return runner.run("d", "v", 120.0, upload=False)

    def test_same_seed_identical_csv(self):
        assert self._run().csv_bytes == self._run().csv_bytes


class TestDegenerateAndDegraded:
    def test_zero_duration_empty_trace(self, pipeline_factory):
        result = pipeline_factory().run("d", "v", 0.0, upload=False)
        assert result.manifest.row_count == 0
        assert result.csv_bytes == b"timestamp_ms,source,channel,value,unit,interpolated\n"

    def test_context_service_down_session_still_valid(self, sim_clock, key):
        class DownProvider:
            def fetch(self, lat, lon):
                raise ServiceUnavailableError("synthetic outage")

        clock = sim_clock
        sim = VehicleSimulator(latency=LatencyModel(seed=5), seed=5, start_ms=clock.now_ms())
        gateway = Gateway(clock=clock, key=key)
        runner = SessionRunner(
            gateway,
            clock,
            simulator=sim,
            obd_link_factory=lambda: InProcessObdLink(sim, clock),
            weather=WeatherClient(DownProvider(), RateLimiter(clock=clock), clock),
        )
        result = runner.run("d", "v", 90.0, upload=False)
        rows = csv_to_rows(result.csv_bytes)
        assert result.context_failures > 0
        assert not [r for r in rows if r.channel.startswith("weather")]
        assert result.manifest.row_count == len(rows) > 0

    def test_a_weather_service_answering_html_fails_each_poll_not_the_trip(self, pipeline_factory, canned_server):
        runner = pipeline_factory()
        provider = HttpProvider(canned_server(b"<html>maintenance</html>").base_url, WeatherObservation)
        runner.weather = WeatherClient(provider, RateLimiter(clock=runner.clock), runner.clock)
        with contextlib.closing(provider.session):
            result = runner.run("d", "v", 120.0, upload=False)
        channels = Counter(row.channel for row in csv_to_rows(result.csv_bytes))
        assert result.context_failures == result.context_rounds == channels["traffic_current_speed"] == 4
        assert not [channel for channel in channels if channel.startswith("weather_")]

    def test_wearables_only_session(self, sim_clock, key):
        physio = PhysioModel()
        gateway = Gateway(clock=sim_clock, key=key)
        runner = SessionRunner(
            gateway,
            sim_clock,
            wearables=(Polar("polar-1", physio, 3),),
            physio=physio,
        )
        result = runner.run("d", "v", 60.0, upload=False)
        rows = csv_to_rows(result.csv_bytes)
        assert abs(counts_by(rows, "polar-1")["bpm"] - 30) <= 2

    def test_producer_error_propagates_and_frees_the_gateway(self, sim_clock, key):
        class BrokenOnce:
            calls = 0

            def get_flow_segment(self, lat, lon):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("synthetic producer bug")
                return FlowSegment(40.0, 60.0, 45.0, 30.0, 0.9, 500.0, (lat, lon))

        sim = VehicleSimulator(latency=LatencyModel.fixed(100.0), start_ms=sim_clock.now_ms())
        gateway = Gateway(clock=sim_clock, key=key)
        runner = SessionRunner(
            gateway,
            sim_clock,
            simulator=sim,
            obd_link_factory=lambda: InProcessObdLink(sim, sim_clock),
            traffic=BrokenOnce(),
        )
        with pytest.raises(RuntimeError, match="synthetic producer bug"):
            runner.run("d", "v", 60.0, upload=False)
        assert gateway.active is None
        result = runner.run("d", "v", 60.0, upload=False)
        assert result.context_rounds > 0 and result.context_failures == 0
        assert b"traffic_current_speed" in result.csv_bytes
        assert gateway.active is None

    def test_failed_producer_setup_frees_the_gateway(self, sim_clock, key, tmp_path):
        physio = PhysioModel()
        polar, spire = Polar("polar-1", physio, 3), Spire("spire-1", physio, 3)
        # The Spire's one subscription is already taken elsewhere.
        spire.pair("gateway-1")
        spire.subscribe(sim_clock.now_ms())
        gateway = Gateway(clock=sim_clock, key=key, outbox_dir=tmp_path)
        runner = SessionRunner(gateway, sim_clock, wearables=(polar, spire), physio=physio)
        with pytest.raises(AlreadySubscribedError):
            runner.run("d", "v", 60.0, upload=False)
        assert gateway.active is None
        assert gateway.erase_data("local") == {"device_samples": 0, "local_files": 0}
        # The Polar stream, opened before the Spire's failed, was closed.
        polar.subscribe(sim_clock.now_ms()).close()

    def test_interrupted_trip_keeps_its_csv(self, sim_clock, key, tmp_path):
        class InterruptedLink(InProcessObdLink):
            exchanges = 0

            def transact(self, raw_request):
                InterruptedLink.exchanges += 1
                if InterruptedLink.exchanges == 2_000:
                    raise KeyboardInterrupt
                return super().transact(raw_request)

        sim = VehicleSimulator.from_config(Config({"seed": 7, "vehicle.profile": "aggressive"}), sim_clock.now_ms())
        physio = PhysioModel()
        gateway = Gateway(clock=sim_clock, key=key, trace_dir=tmp_path / "traces")
        runner = SessionRunner(
            gateway,
            sim_clock,
            simulator=sim,
            obd_link_factory=lambda: InterruptedLink(sim, sim_clock),
            wearables=(MiBand("miband-1", physio, 7), Polar("polar-1", physio, 7), Spire("spire-1", physio, 7)),
            physio=physio,
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run("d", "v", 600.0, upload=False)
        assert gateway.active is None
        [trace] = (tmp_path / "traces").glob("*.csv")
        rows = csv_to_rows(trace.read_bytes())
        assert validate_rows(rows) == []
        # Every exchange before the interrupted one left its reading.
        assert sum(counts_by(rows, "obd-1").values()) == 1_999
        assert counts_by(rows, "polar-1")["bpm"] > 0


class TestProducerSchedule:
    """Producers are serviced only when one is due; a link-less loop sleeps to that time."""

    # Recorded with a runner that visited every producer on every call, so
    # skipping them until one is due must not move a row.
    LINKLESS_SHA256 = "a0ddbbc96b4a9e561108c70f91ea95888c161212503b03bffd88cd09d6e91121"

    def test_linkless_trip_records_the_same_rows(self, pipeline_factory):
        result = pipeline_factory(profile="aggressive", obd=False).run("d", "v", 300.0, upload=False)
        rows = csv_to_rows(result.csv_bytes)
        assert {r.source for r in rows} == {"miband-1", "polar-1", "spire-1", "gps-1", "traffic", "weather"}
        assert sha256_hex(result.csv_bytes) == self.LINKLESS_SHA256

    def test_linkless_trip_samples_each_producer_when_it_is_due(self, sim_clock, key):
        physio = PhysioModel()
        sim = VehicleSimulator(latency=LatencyModel(seed=3), seed=3, start_ms=sim_clock.now_ms())
        gateway = Gateway(clock=sim_clock, key=key)
        polar = Polar("polar-1", physio, 3)
        runner = SessionRunner(gateway, sim_clock, simulator=sim, wearables=(polar,), physio=physio)
        result = runner.run("d", "v", 60.0, upload=False)
        rows = csv_to_rows(result.csv_bytes)
        start = result.manifest.started_at
        assert [r.timestamp_ms - start for r in rows if r.channel == "lat"] == list(range(1000, 60_000, 1000))
        beats = [r for r in rows if r.channel == "bpm"]
        assert len(beats) >= 28
        assert all(r.timestamp_ms == device_ts_of(r.value) for r in beats)

    def test_service_between_due_times_ingests_nothing(self, pipeline_factory, sim_clock):
        runner = pipeline_factory(obd=False)
        for device in runner.wearables:
            runner.gateway.pair_device(device)
        gps = runner.gateway.pair_device(LocalSource("gps-1", KIND_GPS)).device_id
        session = runner.gateway.start_session("d", "v")
        ingested = []
        ingest = session.ingest
        session.ingest = lambda sample, source=None: ingested.extend(ingest(sample, source))
        start = sim_clock.now_ms()
        producers = _ProducerState(runner, session, gps, start)
        producers.subscribe(start)
        try:
            producers.service(start)  # the MiBand is due at once
            assert {r.source for r in ingested} == {"miband-1"}
            for _ in range(20):
                now, due, before = sim_clock.now_ms(), producers.next_due, len(ingested)
                assert due > now
                for fraction in (0.01, 0.5, 0.99):
                    at = now + fraction * (due - now)
                    producers.service(at)
                    # The simulator still advances on every call.
                    assert runner.simulator.snapshot().sim_time_ms > at - runner.simulator.tick_ms
                assert len(ingested) == before
                assert producers.wait_until_due(start + 60_000.0)
                assert sim_clock.now_ms() == due
                producers.service(due)
                assert producers.next_due > due
            assert {r.source for r in ingested} == {"miband-1", "polar-1", "spire-1", "gps-1"}
        finally:
            producers.close()
            runner.gateway.end_session()


class TestContextPolling:
    def test_default_period_rounds_over_session(self, pipeline_factory):
        result = pipeline_factory().run("d", "v", 300.0, upload=False)
        assert abs(result.context_rounds - 10) <= 1
        counts = Counter(row.channel for row in csv_to_rows(result.csv_bytes))
        assert counts["traffic_current_speed"] == result.context_rounds
        assert counts["weather_temp_c"] == result.context_rounds
        assert result.context_failures == 0


class TestConfiguredCadences:
    @pytest.mark.parametrize(
        "key,period_ms,duration_s,sources",
        [
            ("gateway.gps_period_ms", 2000, 120.0, ("gps-1",)),
            ("external.period_ms", 60_000, 600.0, ("traffic", "weather")),
        ],
    )
    def test_gap_fill_uses_the_scheduled_period(self, pipeline_factory, key, period_ms, duration_s, sources):
        runner = pipeline_factory(config=Config({key: str(period_ms)}))
        rows = csv_to_rows(runner.run("d", "v", duration_s, upload=False).csv_bytes)
        for source in sources:
            real = Counter(r.channel for r in rows if r.source == source and not r.interpolated)
            assert set(real.values()) <= {duration_s * 1000 // period_ms, duration_s * 1000 // period_ms - 1}
        assert [r for r in rows if r.source in sources and r.interpolated] == []


class _UnreachableClient:
    def upload_trace(self, manifest_json, blob):
        raise CloudUnreachableError("synthetic outage")


class _LyingClient:
    def upload_trace(self, manifest_json, blob):
        return {"trace_ref": "ff" * 32, "size_bytes": len(blob), "sha256": "ff" * 32}


class TestRetainPlaintext:
    """``gateway.retain_plaintext = false`` drops the plaintext CSV once its upload is verified."""

    NO_PLAINTEXT = Config({"gateway.retain_plaintext": "false"})

    def test_deleted_after_verified_upload(self, pipeline_factory, tmp_path, cloud_client):
        runner = pipeline_factory(
            cloud_client=cloud_client,
            outbox_dir=tmp_path / "outbox",
            trace_dir=tmp_path / "traces",
            config=self.NO_PLAINTEXT,
        )
        result = runner.run("d", "v", 30.0)
        assert result.receipt is not None
        assert not result.trace_path.exists()
        blob, _ = cloud_client.get_trace(result.receipt.trace_ref)
        assert sha256_hex(blob) == result.receipt.trace_ref

    @pytest.mark.parametrize(
        "client,error", [(_UnreachableClient(), CloudUnreachableError), (_LyingClient(), UploadRejectedError)]
    )
    def test_kept_when_upload_raises(self, pipeline_factory, tmp_path, client, error):
        traces = tmp_path / "traces"
        runner = pipeline_factory(
            cloud_client=client, outbox_dir=tmp_path / "outbox", trace_dir=traces, config=self.NO_PLAINTEXT
        )
        with pytest.raises(error):
            runner.run("d", "v", 30.0)
        [trace] = traces.glob("*.csv")
        assert validate_rows(csv_to_rows(trace.read_bytes())) == []


class TestOneOutbox:
    """A sealed trace has one home, ``gateway.outbox_dir``, which ``erase_data`` clears."""

    def test_upload_without_an_outbox_raises_before_sealing(self, pipeline_factory, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = pipeline_factory(cloud_client=_UnreachableClient(), trace_dir=tmp_path / "traces")
        result = runner.run("d", "v", 30.0, upload=False)
        with pytest.raises(UploadError):
            runner.upload(result.csv_bytes, result.manifest, result.trace_path)
        # Only the plaintext CSV of the trip: nothing was sealed anywhere.
        assert sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*")) == [
            Path("traces"),
            Path("traces", f"{result.manifest.session_id}.csv"),
        ]

    def test_a_failed_upload_is_left_in_the_outbox_until_erased(self, pipeline_factory, tmp_path):
        outbox = tmp_path / "outbox"
        runner = pipeline_factory(cloud_client=_UnreachableClient(), outbox_dir=outbox, trace_dir=tmp_path / "traces")
        with pytest.raises(CloudUnreachableError):
            runner.run("d", "v", 30.0)
        [entry] = outbox.iterdir()
        assert entry.suffix == ".entry"
        assert runner.gateway.erase_data("local") == {"device_samples": 0, "local_files": 2}
        assert list(outbox.iterdir()) == []
        assert list((tmp_path / "traces").iterdir()) == []


class TestQuotaComposition:
    def test_fast_context_polling_never_violates_quota(self, sim_clock, key):
        clock = sim_clock
        permits: list[float] = []

        class RecordingProvider:
            def __init__(self, inner):
                self.inner = inner

            def fetch(self, lat, lon):
                permits.append(clock.now_ms())
                return self.inner.fetch(lat, lon)

        sim = VehicleSimulator(latency=LatencyModel(seed=5), seed=5, start_ms=clock.now_ms())
        gateway = Gateway(clock=clock, key=key)
        from fogtrace.config import Config

        gateway.config = Config({"external.period_ms": "500"})
        runner = SessionRunner(
            gateway,
            clock,
            simulator=sim,
            obd_link_factory=lambda: InProcessObdLink(sim, clock),
            weather=WeatherClient(
                RecordingProvider(LocalWeatherProvider(WeatherService(5), clock)),
                RateLimiter(clock=clock),
                clock,
            ),
        )
        result = runner.run("d", "v", 180.0, upload=False)
        assert result.context_rounds > 300  # polled far beyond the quota
        assert permits
        for i, start in enumerate(permits):
            assert sum(1 for t in permits[i:] if t < start + 60_000.0) <= 60
