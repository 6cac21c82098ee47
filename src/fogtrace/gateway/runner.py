"""End-to-end trip orchestration on one clock.

The runner wires a session together and drives every producer from one
loop: the OBD link (one exchange per step), wearable streams, the MiBand
poll schedule, GPS fixes read off the vehicle position, and the context
poller for traffic and weather. A live OBD link is always due, so it paces
the loop by its reply latency and the other producers are serviced after
each reply; a session without a link sleeps until its next producer is
due. Everything shares the same clock object, so a five-minute trip
replays in well under a second of compute time on a simulated clock and in
real time on the system clock, through identical code paths.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from ..external import ExternalError, TrafficClient, WeatherClient
from ..files import write_atomic
from ..wearables import MiBand, PhysioModel, WearableDevice
from .alerts import AlertEvent
from .obd_poller import ObdPoller, PollStats
from .records import SessionManifest
from .session import KIND_GPS, KIND_OBD, Gateway, GpsFix, LocalSource
from .uploader import Outbox, UploadError, UploadReceipt, finalize_and_upload, seal_into

log = logging.getLogger(__name__)

# Poll well inside the device's 10 s refresh window; the device throttles
# and the runner drops cached repeats, so one fresh value lands per window.
MIBAND_POLL_MS = 1000.0


@dataclass
class RunResult:
    csv_bytes: bytes
    manifest: SessionManifest
    receipt: UploadReceipt | None
    alerts: list[AlertEvent]
    obd: PollStats
    context_rounds: int
    context_failures: int
    trace_path: Path | None


class SessionRunner:
    def __init__(
        self,
        gateway: Gateway,
        clock,
        simulator=None,
        obd_link_factory=None,
        wearables: tuple[WearableDevice, ...] = (),
        physio: PhysioModel | None = None,
        traffic: TrafficClient | None = None,
        weather: WeatherClient | None = None,
        cloud_client=None,
    ):
        self.gateway = gateway
        self.clock = clock
        self.simulator = simulator
        self.obd_link_factory = obd_link_factory
        self.wearables = tuple(wearables)
        self.physio = physio
        self.traffic = traffic
        self.weather = weather
        self.cloud_client = cloud_client
        # The outbox ref of the last trip, if it was cut short and sealed.
        self.cut_ref: str | None = None

    def run(self, driver_id: str, vehicle_id: str, duration_s: float, upload: bool = True) -> RunResult:
        for device in self.wearables:
            self.gateway.pair_device(device)
        obd_source = gps_source = None
        if self.obd_link_factory is not None:
            obd_source = self.gateway.pair_device(LocalSource("obd-1", KIND_OBD)).device_id
        if self.simulator is not None:
            gps_source = self.gateway.pair_device(LocalSource("gps-1", KIND_GPS)).device_id

        session = self.gateway.start_session(driver_id, vehicle_id)
        # The loop owns the session: it makes every ingest and ends it, also
        # when setting up or running a producer raises, so the gateway is
        # free for the next trip, every stream opened is closed and the rows
        # ingested so far are written to the trace directory. A trip that
        # the loop cuts short is also sealed into the outbox, unsent, for the
        # next flush to send, when this runner uploads and the gateway has a
        # key and an outbox: a trip kept off the store stays off it.
        obd = producers = None
        self.cut_ref = None
        cut = False
        try:
            start = self.clock.now_ms()
            t_end = start + duration_s * 1000.0
            obd = ObdPoller(self.obd_link_factory, session, self.clock, obd_source, t_end) if obd_source else None
            producers = _ProducerState(self, session, gps_source, start)
            producers.subscribe(start)
            # One producer paces the loop: a live OBD link is always due, so
            # its exchanges set the pace; without one, the loop sleeps until
            # the next producer is due. The others are serviced after each step.
            pace = obd.step if obd is not None else lambda: producers.wait_until_due(t_end)
            try:
                while self.clock.now_ms() < t_end:
                    if pace():
                        producers.service(self.clock.now_ms())
            except BaseException:
                cut = True
                raise
        finally:
            if producers is not None:
                producers.close()
            if obd is not None:
                obd.close()
            csv_bytes, manifest = self.gateway.end_session()
            trace_path = self._persist_trace(csv_bytes, manifest)
            gateway = self.gateway
            if cut and self.cloud_client is not None and gateway.key is not None and gateway.outbox_dir is not None:
                self.cut_ref = seal_into(Outbox(gateway.outbox_dir), csv_bytes, manifest, gateway.key)[0]
        receipt = None
        if upload and self.cloud_client is not None:
            receipt = self.upload(csv_bytes, manifest, trace_path)
        return RunResult(
            csv_bytes=csv_bytes,
            manifest=manifest,
            receipt=receipt,
            alerts=list(session.alerts),
            obd=obd.stats if obd is not None else PollStats(),
            context_rounds=producers.context_rounds,
            context_failures=producers.context_failures,
            trace_path=trace_path,
        )

    def _persist_trace(self, csv_bytes: bytes, manifest: SessionManifest) -> Path | None:
        if self.gateway.trace_dir is None:
            return None
        self.gateway.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.gateway.trace_dir / f"{manifest.session_id}.csv"
        write_atomic(path, csv_bytes, path.with_name(f"{path.name}.tmp"))
        return path

    def upload(self, csv_bytes: bytes, manifest: SessionManifest, trace_path: Path | None = None) -> UploadReceipt:
        """Seal the trace into the gateway's outbox and send it; without an outbox, raise ``UploadError``."""
        if self.gateway.outbox_dir is None:
            raise UploadError("the gateway has no outbox_dir to keep the sealed trace in")
        receipt = finalize_and_upload(
            csv_bytes,
            manifest,
            self.gateway.key,
            self.cloud_client,
            Outbox(self.gateway.outbox_dir),
            self.clock,
        )
        if not self.gateway.config["gateway.retain_plaintext"] and trace_path is not None:
            trace_path.unlink(missing_ok=True)
        return receipt


class _ProducerState:
    """Due-time bookkeeping for every producer but the OBD link."""

    def __init__(self, runner: SessionRunner, session, gps_source: str | None, start_ms: float):
        self.runner = runner
        self.session = session
        self.gps_source = gps_source
        self.streams = []
        # One [device, due, last measured_at] per MiBand; a repeat of the last is not ingested.
        self.mibands = [[device, start_ms, None] for device in runner.wearables if isinstance(device, MiBand)]
        config = runner.gateway.config
        self.gps_period, self.context_period = config["gateway.gps_period_ms"], config["external.period_ms"]
        # An absent producer is never due.
        self.gps_due = start_ms + self.gps_period if gps_source is not None else math.inf
        has_context = runner.traffic is not None or runner.weather is not None
        self.context_due = start_ms + self.context_period if has_context else math.inf
        self.context_rounds = 0
        self.context_failures = 0
        self._phys_t = start_ms
        self._phys_speed = runner.simulator.snapshot().speed_kmh if runner.simulator is not None else 0.0
        # The earliest due time of any producer: ``service`` skips them all
        # before it, and a loop without a link sleeps until it.
        self.next_due = self._earliest_due()

    def subscribe(self, start_ms: float) -> None:
        """Open the push streams one by one, so ``close`` ends those opened if one fails."""
        for device in self.runner.wearables:
            if not isinstance(device, MiBand):
                self.streams.append(device.subscribe(start_ms))
        self.next_due = self._earliest_due()

    def service(self, now: float) -> None:
        sim, physio = self.runner.simulator, self.runner.physio
        speed = sim.advance_to(now)[0] if sim is not None else 0.0
        dt = now - self._phys_t
        if physio is not None and dt > 0:
            # The driver's stress follows the acceleration since the last service.
            physio.update((speed - self._phys_speed) / 3.6 / (dt / 1000.0), dt)
            self._phys_t = now
            self._phys_speed = speed
        if now < self.next_due:
            return
        for stream in self.streams:
            while stream.next_due_ms <= now:
                self.session.ingest(stream.take())
        for band in self.mibands:
            if now >= band[1]:
                sample = band[0].poll(now)
                if sample.measured_at != band[2]:
                    band[2] = sample.measured_at
                    self.session.ingest(sample)
                band[1] += MIBAND_POLL_MS
        while self.gps_due <= now:
            self.session.ingest(GpsFix(*sim.position(), now), source=self.gps_source)
            self.gps_due += self.gps_period
        if now >= self.context_due:
            self._poll_context(now)
            self.context_due += self.context_period
        self.next_due = self._earliest_due()

    def _earliest_due(self) -> float:
        """When the first producer is next due; the due times move only in ``service``."""
        return min(
            self.gps_due,
            self.context_due,
            *(band[1] for band in self.mibands),
            *(stream.next_due_ms for stream in self.streams),
        )

    def _poll_context(self, now: float) -> None:
        self.context_rounds += 1
        sim = self.runner.simulator
        lat, lon = sim.position() if sim is not None else (0.0, 0.0)
        for client, fetch in (
            (self.runner.traffic, "get_flow_segment"),
            (self.runner.weather, "get_current_weather"),
        ):
            if client is None:
                continue
            try:
                self.session.ingest(getattr(client, fetch)(lat, lon))
            except ExternalError as exc:
                self.context_failures += 1
                log.debug("context fetch failed: %s", exc)

    def wait_until_due(self, t_end: float) -> bool:
        """Sleep until the next producer is due; False once ``t_end`` is reached."""
        clock = self.runner.clock
        clock.sleep_ms(min(self.next_due, t_end) - clock.now_ms())
        return clock.now_ms() < t_end

    def close(self) -> None:
        for stream in self.streams:
            stream.close()
