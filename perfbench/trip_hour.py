"""trip-hour: one seeded 3,600 s aggressive trip through the whole pipeline.

Every source feeds the session: the in-process OBD link (triangular 50,
80, 200 ms replies) behind a link factory that drops the link 4-6 times
and refuses 1-3 reconnects after each drop, MiBand, Polar and Spire, GPS,
and the traffic and weather stubs behind their rate limiters. The trace is
sealed, put in the outbox, uploaded to a loopback store in this process
and then downloaded, opened, parsed and validated as ``fogtrace verify``
does. One operation is that whole round; the same trip repeats.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from time import perf_counter

from fogtrace.clock import SimulatedClock
from fogtrace.cloudstore import ClientAccount, CloudClient, CloudStoreHTTPServer, CloudStoreService
from fogtrace.external import (
    FlowService,
    LocalFlowProvider,
    LocalWeatherProvider,
    RateLimiter,
    TrafficClient,
    WeatherClient,
    WeatherService,
)
from fogtrace.gateway import Gateway, SessionRunner, envelope, records
from fogtrace.vehicle import PROFILES, InProcessObdLink, LatencyModel, VehicleSimulator
from fogtrace.wearables import MiBand, PhysioModel, Polar, Spire

import checks
import inputs
import layers
from common import Outcome, Speed, calibrated_clock, golden_problems, median, median_setup
from tracer import Tracer, diff

DURATION_S = 3600.0
QUICK_DURATION_S = 300.0
WARMUP_S = 300.0
CLIENT_ID, CLIENT_SECRET = "gateway", "perfbench-secret"


class OutageLinks:
    """OBD link factory that drops the link on schedule and refuses reconnects.

    ``schedule`` lists (exchange index, reconnects to refuse). Exchanges
    are counted across every link the factory hands out; each drop is
    recorded with the simulated time at which it happened.
    """

    def __init__(self, simulator, clock, schedule):
        self.simulator = simulator
        self.clock = clock
        self.schedule = dict(schedule)
        self.exchanges = 0
        self.refusals_left = 0
        self.drops: list[tuple[float, int]] = []

    def __call__(self):
        if self.refusals_left:
            self.refusals_left -= 1
            raise ConnectionRefusedError("perfbench: injected reconnect refusal")
        return _DroppingLink(self)


class _DroppingLink(InProcessObdLink):
    def __init__(self, links: OutageLinks):
        super().__init__(links.simulator, links.clock)
        self.links = links

    def transact(self, raw_request: bytes) -> bytes:
        links = self.links
        refuse = links.schedule.get(links.exchanges)
        links.exchanges += 1
        if refuse:
            links.refusals_left = refuse
            links.drops.append((self.clock.now_ms(), refuse))
            self.closed = True
            raise ConnectionResetError("perfbench: injected link drop")
        return super().transact(raw_request)


class LoopbackStore:
    """A store served over loopback HTTP from a thread of this process."""

    def __init__(self, root):
        self.root = root
        account = ClientAccount(CLIENT_ID, CLIENT_SECRET, frozenset({"upload", "read"}))
        service = CloudStoreService(root / "store", clients={CLIENT_ID: account})
        self.server = CloudStoreHTTPServer(service).start()
        self.client = CloudClient(self.server.base_url, CLIENT_ID, CLIENT_SECRET)

    def close(self) -> None:
        self.server.stop()
        self.client.session.close()
        shutil.rmtree(self.root, ignore_errors=True)


def build_runner(
    seed: int, duration_s: float, key: bytes, outbox_dir, cloud_client=None, outages=True, profile="aggressive", clock=None
):
    """A SessionRunner wired like ``fogtrace run``, with the outage link factory."""
    clock = clock or SimulatedClock()
    simulator = VehicleSimulator(
        profile=PROFILES[profile],
        latency=LatencyModel(min_ms=50.0, mode_ms=80.0, max_ms=200.0, seed=seed),
        seed=seed,
        start_ms=clock.now_ms(),
    )
    links = OutageLinks(simulator, clock, inputs.outage_schedule(seed, duration_s) if outages else [])
    physio = PhysioModel()
    runner = SessionRunner(
        Gateway(clock=clock, key=key, outbox_dir=outbox_dir),
        clock,
        simulator=simulator,
        obd_link_factory=links,
        wearables=(MiBand("miband-1", physio, seed), Polar("polar-1", physio, seed), Spire("spire-1", physio, seed)),
        physio=physio,
        traffic=TrafficClient(LocalFlowProvider(FlowService(seed), clock), RateLimiter(clock=clock), clock),
        weather=WeatherClient(LocalWeatherProvider(WeatherService(seed), clock), RateLimiter(clock=clock), clock),
        cloud_client=cloud_client,
    )
    return runner, links


def content_sha(seed: int, quick: bool, work) -> str:
    """sha256 of the trip's CSV, for recording the golden values."""
    duration = QUICK_DURATION_S if quick else DURATION_S
    runner, _ = build_runner(seed, duration, inputs.key_for(seed), work / "outbox")
    return runner.run("driver-1", "vehicle-1", duration, upload=False).manifest.csv_sha256


class Trip:
    """One operation: drive, seal and upload, then verify the upload.

    Times are (measured, reference-speed) seconds from ``speed``, which the
    trip's simulated clock ticks.
    """

    def __init__(self, seed: int, duration_s: float, store: LoopbackStore, work, speed: Speed):
        self.seed = seed
        self.duration_s = duration_s
        self.store = store
        self.work = work
        self.speed = speed
        self.key = inputs.key_for(seed)

    def __call__(self, outages: bool = True) -> dict:
        clock = calibrated_clock(self.speed)
        runner, links = build_runner(
            self.seed, self.duration_s, self.key, self.work / "outbox", self.store.client, outages, clock=clock
        )
        lap = self.speed.lap
        t0 = lap()
        result = runner.run("driver-1", "vehicle-1", self.duration_s, upload=False)
        t1 = lap()
        receipt = runner.upload(result.csv_bytes, result.manifest)
        t2 = lap()
        blob, metadata = self.store.client.get_trace(receipt.trace_ref)
        manifest = records.SessionManifest.from_dict(metadata["manifest"])
        plain = envelope.open_envelope(blob, manifest.to_json(), self.key)
        verify_problems = records.validate_rows(records.csv_to_rows(plain))
        t3 = lap()

        def between(a, b):
            return (b[0] - a[0], b[1] - a[1])

        return {
            "session": between(t0, t1),
            "trip": between(t0, t2),
            "verify": between(t2, t3),
            "op": between(t0, t3),
            "result": result,
            "receipt": receipt,
            "blob": blob,
            "metadata": metadata,
            "links": links,
            "verify_problems": verify_problems,
        }


def check_op(out: dict, rows, duration_s: float, key: bytes) -> list[str]:
    result, links = out["result"], out["links"]
    manifest = out["metadata"]["manifest"]
    manifest_json = json.dumps(manifest, separators=(",", ":")).encode()
    problems = [f"fogtrace verify: {p}" for p in out["verify_problems"][:3]]
    problems += checks.check_envelope(
        out["blob"], out["receipt"].trace_ref, manifest, manifest_json, key, result.csv_bytes
    )
    problems += checks.check_trip(rows, duration_s, links.drops, result.obd.dropped_ms)
    obd_rows = sum(1 for r in rows if r[1] == "obd-1" and not r[5])
    if obd_rows + len(links.drops) != links.exchanges:
        problems.append(f"{obd_rows} OBD rows + {len(links.drops)} drops != {links.exchanges} exchanges")
    if len(links.drops) != len(links.schedule):
        problems.append(f"{len(links.drops)} drops happened, {len(links.schedule)} were scheduled")
    return problems


def reconcile(out: dict, rows, per_op: dict) -> list[str]:
    """Traced counts of one operation against its trace."""
    result = out["result"]
    channels = Counter(r[1] for r in rows if not r[5])
    calls, counts = per_op["calls"], per_op["counts"]
    problems = []
    if counts["session.rows"] + counts["gapfill.inserted"] != result.manifest.row_count:
        problems.append("session.rows + gapfill.inserted != manifest row_count")
    if calls["vehicle.link_request"] != channels["obd-1"] + len(out["links"].drops):
        problems.append("obd.exchanges != OBD rows + injected drops")
    if result.obd.reconnects != len(out["links"].schedule):
        problems.append("obd_poller.reconnects != injected outages")
    if calls["external.fetch"] * 2 != channels["traffic"] + channels["weather"]:
        problems.append("external.calls != context rows / 2")
    return problems


def run(seed: int, seconds: float, trace: bool, quick: bool, work) -> Outcome:
    """Untraced: ``seconds`` of trips. Traced: half untraced, half traced."""
    duration = QUICK_DURATION_S if quick else DURATION_S
    outcome = Outcome()
    speed = Speed()
    speed.start()

    def setup():
        t0 = speed.lap()[1]
        root = work / f"store-{perf_counter():.6f}"
        store = LoopbackStore(root)
        Trip(seed, WARMUP_S, store, root, speed)(outages=False)
        return store, speed.lap()[1] - t0

    setup_s, store = median_setup(setup, LoopbackStore.close)
    trip = Trip(seed, duration, store, store.root, speed)
    tracer = Tracer()
    ops: dict[bool, list[dict]] = {False: [], True: []}
    per_op = []
    polled = []  # (reconnects, dropped ms) the poller reported, per traced trip
    shas = set()
    try:
        for tracing in (False, True) if trace else (False,):
            if tracing:
                layers.install_gateway(tracer)
                layers.install_store(tracer)
                # The clock's calibration bursts become spans of their own, so
                # their time is not counted as self time of the call they interrupt.
                tracer.patch(speed, "tick", "calibration")
            spent = 0.0
            while spent < (seconds / 2 if trace else seconds) or (not ops[tracing] and outcome.failed < 3):
                before = tracer.totals()
                outcome.attempted += 1
                t0 = perf_counter()
                try:
                    out = trip()
                except Exception as exc:  # noqa: BLE001 - count it and go on
                    outcome.fail("trip", exc)
                    spent += perf_counter() - t0
                    continue
                spent += out["op"][0]
                rows = checks.parse_trace(out["result"].csv_bytes)
                if tracing:
                    per_op.append(diff(tracer.totals(), before))
                    polled.append((out["result"].obd.reconnects, out["result"].obd.dropped_ms))
                    outcome.check(reconcile(out, rows, per_op[-1]))
                outcome.check(check_op(out, rows, duration, trip.key))
                shas.add(out["result"].manifest.csv_sha256)
                ops[tracing].append({k: out[k] for k in ("op", "trip", "session", "verify")})
                ops[tracing][-1]["rows"] = out["result"].manifest.row_count
                del out, rows  # the next trip's peak memory must be its own
    finally:
        tracer.unpatch()
        store.close()

    if len(shas) > 1:
        outcome.problems.append("the same seed produced different traces within one run")
    for sha in shas:
        outcome.check(golden_problems("trip-hour", seed, quick, sha))

    def p50(kind: str, traced: bool = False, measured: bool = False) -> float:
        return median([o[kind][0 if measured else 1] for o in ops[traced]])

    plain = ops[False]
    if trace:
        total = per_op[0]
        for delta in per_op[1:]:
            total = {k: total[k] + delta[k] for k in total}
        extra = {
            "obd_poller.reconnects": sum(r for r, _ in polled) / len(polled),
            "obd_poller.dropped_ms": sum(d for _, d in polled) / len(polled),
            "trace.overhead_pct": (p50("op", True) / p50("op") - 1.0) * 100.0,
        }
        outcome.metrics = layers.metrics(total, len(per_op), extra)
        outcome.tracer = tracer
        return outcome
    rows_per_s = sum(o["rows"] for o in plain) / sum(o["session"][1] for o in plain)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50("op") * 1000.0, "ms"),
        "throughput_per_s": (rows_per_s, "1/s"),
    }
    outcome.detail = {
        "trip_s": (p50("trip"), "s"),
        "rows_per_s": (rows_per_s, "1/s"),
        "verify_s": (p50("verify"), "s"),
        "trips": (len(plain), "count"),
        "measured_op_p50_ms": (p50("op", measured=True) * 1000.0, "ms"),
        "calibration_bursts": (speed.bursts, "count"),
    }
    return outcome
