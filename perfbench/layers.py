"""Which fogtrace calls are traced, and the per-layer metrics made from them.

Span names follow the modules: ``vehicle.*`` for the simulator and its
in-process link, ``obd.codec`` for the five codec functions the link
calls, ``session.*``/``gapfill``/``records.*``/``envelope.*``/
``uploader.*``/``runner.run`` for the gateway, ``client.*`` for the
store's HTTP client, ``httpd.*``/``service.*`` for the store itself,
``external.*`` for the context clients and ``bench.run`` for the OBD
benchmark. Times are self times unless noted in ``METRICS``.
"""

from __future__ import annotations

from fogtrace import bench, external, vehicle, wearables
from fogtrace.cloudstore import httpd
from fogtrace.cloudstore.client import CloudClient
from fogtrace.cloudstore.service import CloudStoreService
from fogtrace.gateway import envelope, records, runner, session, uploader

# name -> (unit, meaning); the order is the order of BENCHMARK.json.
METRICS = {
    "vehicle.tick_us": ("us", "self time per simulator tick (vehicle.step)"),
    "vehicle.ticks": ("count", "simulator ticks per operation"),
    "vehicle.link_request_us": ("us", "InProcessObdLink.request self time per exchange"),
    "obd.codec_us": ("us", "encode, parse request, encode/render reply, parse reply, per exchange"),
    "obd.exchanges": ("count", "link requests per operation, dropped ones included"),
    "wearables.take_us": ("us", "self time per SampleStream.take / MiBand.poll"),
    "wearables.samples": ("count", "SampleStream.take and MiBand.poll calls per operation"),
    "obd_poller.reconnects": ("count", "reconnects the poller reports per operation"),
    "obd_poller.dropped_ms": ("ms", "simulated outage time the poller reports per operation"),
    "session.ingest_us": ("us", "self time per Session.ingest"),
    "session.ingest_calls": ("count", "Session.ingest calls per operation"),
    "session.rows": ("count", "rows Session.ingest appended per operation"),
    "session.finish_ms": ("ms", "Session.finish per call, gap fill, sort, CSV and hash included"),
    "runner.self_ms": ("ms", "SessionRunner.run minus every traced call inside it, per run"),
    "alerts.rows": ("count", "alert rows ingested per operation"),
    "gapfill.ms": ("ms", "fill_session_gaps per call"),
    "gapfill.inserted": ("count", "interpolated rows per operation"),
    "records.sort_ms": ("ms", "sort_rows in Session.finish, per call"),
    "records.csv_ms": ("ms", "rows_to_csv in Session.finish, per call"),
    "records.sha256_ms": ("ms", "sha256_hex in Session.finish, per call"),
    "records.parse_ms": ("ms", "csv_to_rows when verifying, per call"),
    "records.validate_ms": ("ms", "validate_rows when verifying, per call"),
    "envelope.seal_ms": ("ms", "seal per call"),
    "envelope.open_ms": ("ms", "open_envelope per call"),
    "uploader.outbox_put_ms": ("ms", "Outbox.put per call"),
    "uploader.upload_ms": ("ms", "finalize_and_upload per call, seal, outbox and upload included"),
    "uploader.attempts": ("count", "upload attempts inside finalize_and_upload per operation"),
    "client.token_ms": ("ms", "CloudClient.issue_token round trip"),
    "client.upload_ms": ("ms", "CloudClient.upload_trace round trip"),
    "client.get_ms": ("ms", "CloudClient.get_trace round trip"),
    "client.list_ms": ("ms", "CloudClient.list_traces round trip"),
    "httpd.multipart_small_ms": ("ms", "parse_multipart of bodies under 100 kB"),
    "httpd.multipart_large_ms": ("ms", "parse_multipart of bodies over 1 MB"),
    "httpd.overhead_ms": ("ms", "client round trip minus service call and multipart parse, per request"),
    "service.upload_ms": ("ms", "CloudStoreService.upload_trace per call"),
    "service.get_ms": ("ms", "CloudStoreService.get_trace per call"),
    "service.list_ms": ("ms", "CloudStoreService.list_traces per call"),
    "service.bytes_written": ("bytes", "object bytes written per operation"),
    "external.calls": ("count", "context fetches served per operation"),
    "external.denied": ("count", "context calls refused per operation"),
    "external.fetch_us": ("us", "context provider fetch per call"),
    "bench.update_us": ("us", "run_obd_bench minus link time, per reply"),
    "cli.import_s": ("s", "import of fogtrace.cli in a fresh interpreter"),
    "cli.store_stop_s": ("s", "CloudStoreHTTPServer.stop per call"),
    "trace.overhead_pct": ("%", "traced operation median over untraced median, minus 100"),
}

CLIENT_SPANS = ("client.token", "client.upload", "client.get", "client.list")
SERVICE_SPANS = ("service.token", "service.upload", "service.get", "service.list")


def _count_ingested(tracer, _args, rows) -> None:
    tracer.count("session.rows", len(rows))
    alerts = sum(1 for row in rows if row.channel == "alert")
    if alerts:
        tracer.count("alerts.rows", alerts)


def _count_inserted(tracer, args, rows) -> None:
    tracer.count("gapfill.inserted", len(rows) - len(args[0]))


def _count_written(tracer, args, _result) -> None:
    tracer.count("service.bytes_written", len(args[2]))


def _multipart_span(args) -> str:
    size = len(args[1])
    return "httpd.multipart_large" if size > 1_000_000 else (
        "httpd.multipart_small" if size < 100_000 else "httpd.multipart_medium"
    )


def install_gateway(tracer) -> None:
    """Trace the vehicle, codec, wearables, gateway, client and context layers."""
    patch = tracer.patch
    patch(vehicle, "step", "vehicle.tick")
    patch(vehicle.InProcessObdLink, "request", "vehicle.link_request")
    for name in ("encode_request", "parse_request", "encode_measurement", "render_response", "parse_response"):
        patch(vehicle, name, "obd.codec")
    patch(wearables.SampleStream, "take", "wearables.take")
    patch(wearables.MiBand, "poll", "wearables.take")
    patch(session.Session, "ingest", "session.ingest", _count_ingested)
    patch(session.Session, "finish", "session.finish")
    patch(session, "fill_session_gaps", "gapfill", _count_inserted)
    patch(session, "sort_rows", "records.sort")
    patch(session, "rows_to_csv", "records.csv")
    patch(session, "sha256_hex", "records.sha256")
    patch(records, "csv_to_rows", "records.parse")
    patch(records, "validate_rows", "records.validate")
    patch(uploader, "seal", "envelope.seal")
    patch(envelope, "open_envelope", "envelope.open")
    patch(uploader.Outbox, "put", "uploader.outbox_put")
    patch(uploader, "finalize_and_upload", "uploader.upload")
    patch(runner, "finalize_and_upload", "uploader.upload")
    patch(runner.SessionRunner, "run", "runner.run")
    patch(CloudClient, "issue_token", "client.token")
    patch(CloudClient, "upload_trace", "client.upload")
    patch(CloudClient, "get_trace", "client.get")
    patch(CloudClient, "list_traces", "client.list")
    patch(external.LocalFlowProvider, "fetch", "external.fetch")
    patch(external.LocalWeatherProvider, "fetch", "external.fetch")
    patch(external.TrafficClient, "get_flow_segment", "external.client")
    patch(external.WeatherClient, "get_current_weather", "external.client")
    patch(bench, "run_obd_bench", "bench.run")


def install_store(tracer) -> None:
    """Trace the store's HTTP front end and service."""
    patch = tracer.patch
    patch(httpd, "parse_multipart", _multipart_span)
    patch(CloudStoreService, "issue_token", "service.token")
    patch(CloudStoreService, "upload_trace", "service.upload")
    patch(CloudStoreService, "get_trace", "service.get")
    patch(CloudStoreService, "list_traces", "service.list")
    patch(CloudStoreService, "_write_atomic", "service.write", _count_written)


def metrics(t: dict, ops: int, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from tracer totals over ``ops`` operations.

    ``extra`` supplies the values that do not come from spans (poller
    statistics, CLI child timings, tracing overhead).
    """
    self_ns, total_ns, calls = t["self_ns"], t["total_ns"], t["calls"]
    counts, under = t["counts"], t["under"]

    def per_call(span: str, scale: float, inclusive: bool = False) -> float:
        ns = (total_ns if inclusive else self_ns)[span]
        return ns / calls[span] / scale if calls[span] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    exchanges = calls["vehicle.link_request"]
    client_ns = sum(total_ns[s] for s in CLIENT_SPANS)
    server_ns = sum(total_ns[s] for s in SERVICE_SPANS) + sum(
        total_ns[f"httpd.multipart_{size}"] for size in ("small", "medium", "large")
    )
    values = {
        "vehicle.tick_us": per_call("vehicle.tick", 1e3),
        "vehicle.ticks": calls["vehicle.tick"] / ops,
        "vehicle.link_request_us": per_call("vehicle.link_request", 1e3),
        "obd.codec_us": ratio(self_ns["obd.codec"], exchanges) / 1e3,
        "obd.exchanges": exchanges / ops,
        "wearables.take_us": per_call("wearables.take", 1e3),
        "wearables.samples": calls["wearables.take"] / ops,
        "session.ingest_us": per_call("session.ingest", 1e3),
        "session.ingest_calls": calls["session.ingest"] / ops,
        "session.rows": counts["session.rows"] / ops,
        "session.finish_ms": per_call("session.finish", 1e6, inclusive=True),
        "runner.self_ms": per_call("runner.run", 1e6),
        "alerts.rows": counts["alerts.rows"] / ops,
        "gapfill.ms": per_call("gapfill", 1e6),
        "gapfill.inserted": counts["gapfill.inserted"] / ops,
        "records.sort_ms": per_call("records.sort", 1e6),
        "records.csv_ms": per_call("records.csv", 1e6),
        "records.sha256_ms": per_call("records.sha256", 1e6),
        "records.parse_ms": per_call("records.parse", 1e6),
        "records.validate_ms": per_call("records.validate", 1e6),
        "envelope.seal_ms": per_call("envelope.seal", 1e6),
        "envelope.open_ms": per_call("envelope.open", 1e6),
        "uploader.outbox_put_ms": per_call("uploader.outbox_put", 1e6),
        "uploader.upload_ms": per_call("uploader.upload", 1e6, inclusive=True),
        "uploader.attempts": under["uploader.upload", "client.upload"] / ops,
        "client.token_ms": per_call("client.token", 1e6, inclusive=True),
        "client.upload_ms": per_call("client.upload", 1e6, inclusive=True),
        "client.get_ms": per_call("client.get", 1e6, inclusive=True),
        "client.list_ms": per_call("client.list", 1e6, inclusive=True),
        "httpd.multipart_small_ms": per_call("httpd.multipart_small", 1e6),
        "httpd.multipart_large_ms": per_call("httpd.multipart_large", 1e6),
        "httpd.overhead_ms": ratio(client_ns - server_ns, sum(calls[s] for s in CLIENT_SPANS)) / 1e6
        if server_ns
        else 0.0,
        "service.upload_ms": per_call("service.upload", 1e6, inclusive=True),
        "service.get_ms": per_call("service.get", 1e6, inclusive=True),
        "service.list_ms": per_call("service.list", 1e6, inclusive=True),
        "service.bytes_written": counts["service.bytes_written"] / ops,
        "external.calls": calls["external.fetch"] / ops,
        "external.denied": t["errors"]["external.client"] / ops,
        "external.fetch_us": per_call("external.fetch", 1e3),
        "bench.update_us": ratio(self_ns["bench.run"], under["bench.run", "vehicle.link_request"]) / 1e3,
    }
    values.update(extra)
    missing = set(METRICS) - set(values)
    for name in missing:
        values[name] = 0.0
    return {name: (float(values[name]), METRICS[name][0]) for name in METRICS}
