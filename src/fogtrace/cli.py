"""Command-line entry point.

Subcommands:

* ``run``       end-to-end session: drive, aggregate, encrypt, upload
* ``bench-obd`` polling throughput and latency benchmark
* ``verify``    download, decrypt and re-validate an uploaded trace
* ``replay``    summarize a trace from the store or a local CSV
* ``erase``     clear device buffers and/or local gateway storage

``--clock`` alone decides how the vehicle and the context services are
reached. The default simulated clock keeps both in-process and replays
multi-minute sessions in well under a second; ``--clock real`` runs the
identical pipeline in wall time against a loopback TCP vehicle server and
HTTP context stubs. ``--self-contained`` decides only the cloud store: it
serves one from ``--store-dir`` when no ``--cloud-url`` is configured.

Exit codes: 0 success, 1 stage failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys
from collections import Counter
from pathlib import Path

from .bench import run_obd_bench
from .clock import SimulatedClock, SystemClock
from .cloudstore import ClientAccount, CloudClient, CloudStoreHTTPServer, CloudStoreService
from .config import Config
from .external import (
    FlowService,
    HttpFlowProvider,
    HttpWeatherProvider,
    LocalFlowProvider,
    LocalWeatherProvider,
    RateLimiter,
    TrafficClient,
    WeatherClient,
    WeatherService,
)
from .external_httpd import ContextStubServer
from .gateway import Gateway, Outbox, SessionRunner, flush_outbox
from .gateway.envelope import open_envelope
from .gateway.records import SessionManifest, csv_to_rows, sha256_hex, validate_rows
from .vehicle import PROFILES, InProcessObdLink, TcpObdLink, VehicleSimulator, VehicleTcpServer
from .wearables import MiBand, PhysioModel, Polar, Spire

DEFAULT_CLIENT_ID = "gateway"
DEFAULT_CLIENT_SECRET = "local-dev-secret"


class StageError(Exception):
    def __init__(self, stage_name: str, cause: Exception):
        super().__init__(f"stage '{stage_name}' failed: {cause}")
        self.stage_name = stage_name
        self.cause = cause


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _seconds(text: str) -> float:
    """An argparse type: a finite number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds above 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fogtrace", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="master seed for all generators")
    parser.add_argument(
        "--self-contained",
        action="store_true",
        help="serve the cloud store in-process when no --cloud-url is configured",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--verbose", action="store_true")

    # Options several commands share, each declared once.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="fogtrace-out", help="artifact directory")
    store = argparse.ArgumentParser(add_help=False, parents=[out])
    store.add_argument("--store-dir", default=None, help="cloud store root (self-contained)")
    store.add_argument("--cloud-url", default=None)
    store.add_argument("--key-hex", default=None)
    store.add_argument("--key-file", default=None)
    clock = argparse.ArgumentParser(add_help=False)
    clock.add_argument("--clock", choices=("sim", "real"), default="sim")

    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[clock, store], help="execute a full trip through the pipeline")
    run.add_argument("--driver", default="driver-1")
    run.add_argument("--vehicle", default="vehicle-1")
    run.add_argument("--duration", type=_seconds, default=300.0, help="trip length in seconds")
    run.add_argument("--profile", choices=sorted(PROFILES), help="drive profile (default: calm)")
    run.add_argument("--outbox-dir", default=None)
    run.add_argument("--no-upload", action="store_true", help="skip the cloud store entirely")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench-obd", parents=[clock], help="OBD throughput/latency benchmark")
    bench.add_argument("--duration", type=_seconds, default=300.0, help="benchmark length in seconds")
    bench.add_argument("--latency", help="min,mode,max reply delay in ms (default: 50,80,200)")
    bench.add_argument("--fixed-ms", type=float, default=None, help="constant reply delay (ms)")
    bench.add_argument("--window-s", type=_seconds, default=60.0)
    bench.add_argument("--out-csv", default=None, help="write the per-update series here")
    bench.set_defaults(func=cmd_bench_obd)

    verify = sub.add_parser("verify", parents=[store], help="re-validate an uploaded trace")
    verify.add_argument("--trace-ref", required=True)
    verify.set_defaults(func=cmd_verify)

    replay = sub.add_parser("replay", parents=[store], help="summarize a stored trace")
    replay.add_argument("--trace-ref", default=None)
    replay.add_argument("--csv-file", default=None, help="local plaintext trace instead")
    replay.set_defaults(func=cmd_replay)

    erase = sub.add_parser("erase", parents=[out], help="erase device and/or local gateway data")
    erase.add_argument("--scope", choices=("device", "local", "both"), required=True)
    erase.add_argument("--outbox-dir", default=None)
    erase.add_argument("--trace-dir", default=None)
    erase.set_defaults(func=cmd_erase)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary; a StageError names its stage
        print(f"fogtrace: {args.command}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console script
    sys.exit(main())


# -- shared builders ---------------------------------------------------------


def _load_config(args) -> Config:
    """The ``--config`` file, if any, under the flags that override its keys."""
    cfg = Config.load(args.config) if args.config else Config()
    return cfg.merged(_flag_overrides(args))


def _flag_overrides(args) -> dict[str, object]:
    """``--seed``, ``--profile``, ``--latency`` and ``--fixed-ms`` as config keys."""
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "profile", None) is not None:
        overrides["vehicle.profile"] = args.profile
    latency = getattr(args, "latency", None)
    if getattr(args, "fixed_ms", None) is not None:
        latency = ",".join([str(args.fixed_ms)] * 3)
    if latency is not None:
        bounds = latency.split(",")
        if len(bounds) != 3:
            raise ValueError(f"--latency expects min,mode,max, got {latency!r}")
        for name, value in zip(("min_ms", "mode_ms", "max_ms"), bounds):
            overrides[f"vehicle.latency.{name}"] = value
    return overrides


def _make_clock(kind: str):
    return SimulatedClock() if kind == "sim" else SystemClock()


def _resolve_key(args, cfg: Config) -> bytes | None:
    """``--key-hex``, ``--key-file``, their config keys, then ``key.hex`` in ``--out``."""
    key_hex = args.key_hex or cfg.get("gateway.key_hex")
    key_file = args.key_file or cfg.get("gateway.key_file")
    if key_hex:
        return bytes.fromhex(key_hex)
    if key_file:
        return bytes.fromhex(Path(key_file).read_text().strip())
    existing = Path(args.out) / "key.hex"
    if existing.exists():
        return bytes.fromhex(existing.read_text().strip())
    return None


def _client_accounts(cfg: Config) -> dict[str, ClientAccount]:
    accounts: dict[str, ClientAccount] = {}
    for key, value in cfg.as_dict().items():
        parts = key.split(".")
        if len(parts) == 4 and parts[:2] == ["cloud", "client"] and parts[3] == "secret":
            client_id = parts[2]
            scopes = cfg.get(f"cloud.client.{client_id}.scopes", "upload,read")
            accounts[client_id] = ClientAccount(
                client_id=client_id,
                client_secret=value,
                scopes=frozenset(s.strip() for s in scopes.split(",") if s.strip()),
            )
    if not accounts:
        accounts[DEFAULT_CLIENT_ID] = ClientAccount(
            client_id=DEFAULT_CLIENT_ID,
            client_secret=DEFAULT_CLIENT_SECRET,
            scopes=frozenset({"upload", "read"}),
        )
    return accounts


def _cloud_client(args, cfg: Config, stack: contextlib.ExitStack) -> CloudClient:
    """Client of the configured store; ``--self-contained`` serves one from ``--store-dir``."""
    cloud_url = args.cloud_url or cfg.get("cloud.base_url")
    if not cloud_url:
        if not args.self_contained:
            raise ValueError("no cloud store configured; pass --cloud-url, --self-contained or (run) --no-upload")
        service = CloudStoreService(
            Path(args.store_dir or Path(args.out) / "store"),
            clients=_client_accounts(cfg),
            token_ttl_s=cfg.get_int("cloud.token_ttl_s", 3600),
        )
        cloud_url = stack.enter_context(CloudStoreHTTPServer(service)).base_url
    client = CloudClient(
        cloud_url,
        cfg.get("cloud.client_id", DEFAULT_CLIENT_ID),
        cfg.get("cloud.client_secret", DEFAULT_CLIENT_SECRET),
    )
    stack.callback(client.session.close)
    return client


def _wire(clock_kind: str, clock, simulator, stack: contextlib.ExitStack, context_seed: int | None = None):
    """The vehicle link factory and, given a seed, the traffic and weather clients.

    On the real clock the vehicle is served over loopback TCP and the context
    over HTTP; on the simulated clock both stay in-process.
    """
    served = clock_kind == "real"
    if served:
        host, port = stack.enter_context(VehicleTcpServer(simulator, clock=clock)).address
        link_factory = lambda: TcpObdLink(host, port, clock)  # noqa: E731
    else:
        link_factory = lambda: InProcessObdLink(simulator, clock)  # noqa: E731
    if context_seed is None:
        return link_factory, None, None
    if served:
        base_url = stack.enter_context(ContextStubServer(seed=context_seed, clock=clock)).base_url
        flow, weather = HttpFlowProvider(base_url), HttpWeatherProvider(base_url)
        stack.callback(flow.session.close)
        stack.callback(weather.session.close)
    else:
        flow = LocalFlowProvider(FlowService(context_seed), clock)
        weather = LocalWeatherProvider(WeatherService(context_seed), clock)
    return (
        link_factory,
        TrafficClient(flow, RateLimiter(clock=clock), clock),
        WeatherClient(weather, RateLimiter(clock=clock), clock),
    )


# -- run -----------------------------------------------------------------------


def cmd_run(args) -> int:
    with contextlib.ExitStack() as stack:
        with _stage("setup"):
            cfg = _load_config(args)
            seed = cfg.seed
            clock = _make_clock(args.clock)
            out_dir = Path(args.out)
            simulator = VehicleSimulator.from_config(cfg, start_ms=clock.now_ms())

            key = _resolve_key(args, cfg)
            new_key = key is None and not args.no_upload
            if new_key:
                # Kept in memory until setup has succeeded, so a failed setup
                # leaves nothing behind.
                key = os.urandom(32)
            gateway = Gateway(
                gateway_id=cfg.get("gateway.id", "gateway-1"),
                clock=clock,
                key=key,
                outbox_dir=args.outbox_dir or out_dir / "outbox",
                trace_dir=out_dir / "traces",
                config=cfg,
            )

            physio = PhysioModel()
            wearables = (
                MiBand("miband-1", physio, seed),
                Polar("polar-1", physio, seed),
                Spire("spire-1", physio, seed),
            )
            link_factory, traffic, weather = _wire(
                args.clock, clock, simulator, stack, context_seed=cfg.get_int("external.seed", seed)
            )

            cloud = None if args.no_upload else _cloud_client(args, cfg, stack)
            if new_key:
                # Written before the session: its envelope, uploaded or left in
                # the outbox, opens only with this key.
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "key.hex").write_text(key.hex() + "\n")

        if cloud is not None:
            # Anything stranded by an earlier run goes out first.
            with _stage("outbox-flush"):
                receipts, _still_pending = flush_outbox(Outbox(gateway.outbox_dir), cloud, clock)
            for receipt in receipts:
                print(f"flushed pending upload {receipt.trace_ref[:12]}...", file=sys.stderr)

        runner = SessionRunner(
            gateway,
            clock,
            simulator=simulator,
            obd_link_factory=link_factory,
            wearables=wearables,
            physio=physio,
            traffic=traffic,
            weather=weather,
            cloud_client=cloud,
        )
        with _stage("session"):
            result = runner.run(args.driver, args.vehicle, args.duration, upload=False)
        if cloud is not None:
            with _stage("upload"):
                result.receipt = runner.upload(result.csv_bytes, result.manifest, result.trace_path)

    with _stage("write-artifacts"):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_bytes(result.manifest.to_json())
        if result.receipt is not None:
            (out_dir / "receipt.json").write_text(json.dumps(dataclasses.asdict(result.receipt), indent=2))

    summary = {
        "session_id": result.manifest.session_id,
        "row_count": result.manifest.row_count,
        "csv_sha256": result.manifest.csv_sha256,
        "alerts": len(result.alerts),
        "dropped": result.dropped,
        "obd_rows": result.obd.rows,
        "trace_ref": result.receipt.trace_ref if result.receipt else None,
        "out_dir": str(out_dir),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"session {summary['session_id']}: {summary['row_count']} rows, {summary['alerts']} alerts")
        if result.receipt:
            print(f"uploaded as {result.receipt.trace_ref}")
        print(f"artifacts in {out_dir}")
    return 0


# -- bench ---------------------------------------------------------------------


def cmd_bench_obd(args) -> int:
    with contextlib.ExitStack() as stack:
        with _stage("setup"):
            clock = _make_clock(args.clock)
            simulator = VehicleSimulator.from_config(_load_config(args), start_ms=clock.now_ms())
            link = _wire(args.clock, clock, simulator, stack)[0]()
            stack.callback(link.close)
        with _stage("bench"):
            report = run_obd_bench(link, clock, args.duration * 1000.0, window_ms=args.window_s * 1000.0)

    if args.out_csv:
        Path(args.out_csv).write_bytes(report.series_csv())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 1 if report.interrupted else 0


# -- verify / replay -------------------------------------------------------------


def _open_trace(args, cfg: Config, stack: contextlib.ExitStack, on_download=None):
    """Download ``--trace-ref`` and open its envelope: (csv, manifest).

    Each step is a stage named as verify's check for it: download, metadata,
    decrypt (the key) and decrypt-auth. ``on_download`` sees the stored bytes.
    """
    with _stage("download"):
        blob, metadata = _cloud_client(args, cfg, stack).get_trace(args.trace_ref)
    if on_download is not None:
        on_download(blob)
    with _stage("metadata"):
        manifest = SessionManifest.from_dict(metadata["manifest"])
    with _stage("decrypt"):
        key = _resolve_key(args, cfg)
        if key is None:
            raise ValueError("no key available; pass --key-hex or --key-file")
    with _stage("decrypt-auth"):
        return open_envelope(blob, manifest.to_json(), key), manifest


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    def downloaded(blob: bytes) -> None:
        check("download", True, f"{len(blob)} bytes")
        check("content-address", sha256_hex(blob) == args.trace_ref, "stored bytes hash to the requested reference")

    csv_bytes = manifest = None
    with contextlib.ExitStack() as stack:
        try:
            csv_bytes, manifest = _open_trace(args, cfg, stack, on_download=downloaded)
            check("decrypt-auth", True)
        except StageError as exc:
            check(exc.stage_name, False, str(exc.cause))

        if csv_bytes is not None:
            check("csv-sha256", sha256_hex(csv_bytes) == manifest.csv_sha256, "plaintext hash matches manifest")
            try:
                rows = csv_to_rows(csv_bytes)
                check("row-count", len(rows) == manifest.row_count, f"{len(rows)} rows")
                problems = validate_rows(rows)
                check("row-invariants", not problems, "; ".join(problems[:5]))
            except ValueError as exc:
                check("csv-parse", False, str(exc))

    all_ok = all(ok for _, ok, _ in checks)
    if args.json:
        listed = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
        print(json.dumps({"trace_ref": args.trace_ref, "passed": all_ok, "checks": listed}, indent=2))
    else:
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name}" + (f" ({detail})" if detail else ""))
    return 0 if all_ok else 1


def cmd_replay(args) -> int:
    cfg = _load_config(args)
    if not args.csv_file and not args.trace_ref:
        print("fogtrace: replay: need --trace-ref or --csv-file", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        with _stage("load"):
            if args.csv_file:
                csv_bytes = Path(args.csv_file).read_bytes()
            else:
                csv_bytes, _ = _open_trace(args, cfg, stack)
        with _stage("parse"):
            rows = csv_to_rows(csv_bytes)

    channels = Counter(row.channel for row in rows)
    sources = Counter(row.source for row in rows)
    alerts = [row.value for row in rows if row.channel == "alert"]
    span_ms = rows[-1].timestamp_ms - rows[0].timestamp_ms if rows else 0
    if args.json:
        print(
            json.dumps(
                {
                    "rows": len(rows),
                    "span_s": span_ms / 1000.0,
                    "channels": dict(channels),
                    "sources": dict(sources),
                    "alerts": alerts,
                },
                indent=2,
            )
        )
    else:
        print(f"{len(rows)} rows spanning {span_ms / 1000.0:.1f}s")
        for channel, count in sorted(channels.items()):
            print(f"  {channel}: {count}")
        if alerts:
            print("alerts: " + ", ".join(alerts))
    return 0


def cmd_erase(args) -> int:
    with _stage("erase"):
        out_dir = Path(args.out)
        gateway = Gateway(
            outbox_dir=args.outbox_dir or out_dir / "outbox",
            trace_dir=args.trace_dir or out_dir / "traces",
        )
        erased = gateway.erase_data(args.scope)
    if args.json:
        print(json.dumps(erased))
    else:
        print(f"erased scope={args.scope}: {erased}")
    return 0


if __name__ == "__main__":
    entrypoint()
