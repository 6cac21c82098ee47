"""Command-line entry point.

Subcommands:

* ``run``       end-to-end session: drive, aggregate, encrypt, upload
* ``bench-obd`` polling throughput and latency benchmark
* ``verify``    download, decrypt and re-validate an uploaded trace
* ``replay``    summarize a trace from the store or a local CSV
* ``erase``     clear the local outbox and traces (the CLI pairs no device)

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

# Only what every command uses is imported here; each command imports the
# rest of what it runs, so `verify` loads no vehicle, wearable or runner code.
from .clock import SimulatedClock, SystemClock
from .cloudstore import ClientAccount, CloudClient, CloudStoreHTTPServer, CloudStoreService
from .config import Config
from .files import write_atomic


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


class Terminated(Exception):
    """SIGTERM, raised where the main thread is, so it unwinds like an error."""


def _raise_terminated(signum, frame):
    raise Terminated("terminated by SIGTERM")


@contextlib.contextmanager
def _sigterm_unwinds():
    """Within the block, SIGTERM raises :class:`Terminated`; the previous handler is restored after it."""
    import signal

    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _seconds(text: str) -> float:
    """An argparse type: a finite number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds above 0, got {text!r}")
    return value


def _profile(name: str) -> str:
    """An argparse type: the name of a drive profile."""
    from .vehicle import PROFILES

    if name not in PROFILES:
        raise argparse.ArgumentTypeError(f"unknown profile {name!r}; choose from {', '.join(sorted(PROFILES))}")
    return name


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
    run.add_argument("--profile", type=_profile, help="drive profile (default: calm)")
    run.add_argument("--outbox-dir", default=None)
    run.add_argument("--no-upload", action="store_true", help="skip the cloud store entirely")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench-obd", parents=[clock], help="OBD throughput/latency benchmark")
    bench.add_argument("--duration", type=_seconds, default=300.0, help="benchmark length in seconds")
    bench.add_argument("--latency", help="min,mode,max reply delay in ms (default: 50,80,200)")
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

    erase = sub.add_parser("erase", parents=[out], help="erase the local outbox and traces (the CLI pairs no device)")
    erase.add_argument(
        "--scope",
        choices=("device", "local", "both"),
        required=True,
        help="with no paired device, device erases nothing (device_samples 0) and both does exactly what local does",
    )
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
    """``--seed``, ``--profile`` and ``--latency`` as config keys."""
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "profile", None) is not None:
        overrides["vehicle.profile"] = args.profile
    latency = getattr(args, "latency", None)
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
    """The key of the first source set: ``--key-hex``, ``--key-file``,
    ``gateway.key_hex``, ``gateway.key_file``, then ``key.hex`` in ``--out``.

    A key that is not 64 hex digits raises ``ValueError`` naming its
    source, so a bad key fails setup instead of the upload after the trip.
    """
    from .gateway.envelope import KEY_LEN

    existing = Path(args.out) / "key.hex"
    sources = (
        ("--key-hex", args.key_hex, False),
        ("--key-file", args.key_file, True),
        ("gateway.key_hex", cfg["gateway.key_hex"], False),
        ("gateway.key_file", cfg["gateway.key_file"], True),
        (str(existing), existing if existing.exists() else None, True),
    )
    for source, value, is_path in sources:
        if value:
            break
    else:
        return None
    text = value
    if is_path:
        try:
            text = Path(value).read_text()
        except OSError as exc:
            raise ValueError(f"{source}: cannot read {value}: {exc.strerror}") from exc
    try:
        key = bytes.fromhex(text.strip())
    except ValueError:
        key = None
    if key is None or len(key) != KEY_LEN:
        raise ValueError(f"{source}: the key must be {2 * KEY_LEN} hex digits ({KEY_LEN} bytes)")
    return key


def _client_accounts(cfg: Config) -> dict[str, ClientAccount]:
    """The ``cloud.client.<id>.*`` registry; with none set, the gateway's own client alone.

    The gateway's client is ``cloud.client_id`` with ``cloud.client_secret``,
    so a self-contained store accepts the credentials the gateway sends.
    """
    secret_of = {
        client_id: cfg[f"cloud.client.{client_id}.secret"] for client_id in cfg.ids("cloud.client.<id>.secret")
    }
    if not secret_of:
        secret_of = {cfg["cloud.client_id"]: cfg["cloud.client_secret"]}
    return {
        client_id: ClientAccount(client_id, secret, cfg[f"cloud.client.{client_id}.scopes"])
        for client_id, secret in secret_of.items()
    }


def _cloud_client(args, cfg: Config, stack: contextlib.ExitStack) -> CloudClient:
    """Client of the configured store; ``--self-contained`` serves one from ``--store-dir``."""
    cloud_url = args.cloud_url or cfg["cloud.base_url"]
    if not cloud_url:
        if not args.self_contained:
            raise ValueError("no cloud store configured; pass --cloud-url, --self-contained or (run) --no-upload")
        service = CloudStoreService(
            Path(args.store_dir or Path(args.out) / "store"),
            clients=_client_accounts(cfg),
            token_ttl_s=cfg["cloud.token_ttl_s"],
        )
        # Registered first, so it runs after the server has stopped serving.
        stack.callback(service.close)
        cloud_url = stack.enter_context(CloudStoreHTTPServer(service)).base_url
    client = CloudClient(cloud_url, cfg["cloud.client_id"], cfg["cloud.client_secret"])
    stack.callback(client.session.close)
    return client


def _wire(served: bool, clock, simulator, stack: contextlib.ExitStack, context_seed: int | None = None):
    """The vehicle link factory and, given a seed, the traffic and weather clients.

    ``served`` serves the vehicle over loopback TCP and the context over HTTP,
    each on ``clock``; otherwise both stay in-process.
    """
    from .vehicle import InProcessObdLink, TcpObdLink, VehicleTcpServer

    if served:
        host, port = stack.enter_context(VehicleTcpServer(simulator, clock=clock)).address
        link_factory = lambda: TcpObdLink(host, port)  # noqa: E731
    else:
        link_factory = lambda: InProcessObdLink(simulator, clock)  # noqa: E731
    if context_seed is None:
        return link_factory, None, None
    from .external import (
        FlowSegment,
        FlowService,
        HttpProvider,
        LocalFlowProvider,
        LocalWeatherProvider,
        RateLimiter,
        TrafficClient,
        WeatherClient,
        WeatherObservation,
        WeatherService,
    )
    from .external_httpd import ContextStubServer

    if served:
        base_url = stack.enter_context(ContextStubServer(seed=context_seed, clock=clock)).base_url
        flow, weather = HttpProvider(base_url, FlowSegment), HttpProvider(base_url, WeatherObservation)
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
    from .gateway.envelope import KEY_LEN
    from .gateway.runner import SessionRunner
    from .gateway.session import Gateway
    from .gateway.uploader import Outbox, flush_outbox
    from .vehicle import VehicleSimulator
    from .wearables import MiBand, PhysioModel, Polar, Spire

    with contextlib.ExitStack() as stack:
        with _stage("setup"):
            cfg = _load_config(args)
            seed = cfg["seed"]
            clock = _make_clock(args.clock)
            out_dir = Path(args.out)
            simulator = VehicleSimulator.from_config(cfg, start_ms=clock.now_ms())

            key = _resolve_key(args, cfg)
            new_key = key is None and not args.no_upload
            if new_key:
                # Kept in memory until setup has succeeded, so a failed setup
                # leaves nothing behind.
                key = os.urandom(KEY_LEN)
            gateway = Gateway(
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
            link_factory, traffic, weather = _wire(args.clock == "real", clock, simulator, stack, context_seed=seed)

            cloud = None if args.no_upload else _cloud_client(args, cfg, stack)
            if new_key:
                # Written before the session: its envelope, uploaded or left in
                # the outbox, opens only with this key.
                out_dir.mkdir(parents=True, exist_ok=True)
                write_atomic(out_dir / "key.hex", f"{key.hex()}\n".encode(), out_dir / "key.hex.tmp")

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
        # A SIGTERM cuts the trip the way an error does: the loop ends its
        # session and writes the CSV, and the stage fails.
        with _stage("session"), _sigterm_unwinds():
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
    from .bench import run_obd_bench
    from .vehicle import VehicleSimulator

    with contextlib.ExitStack() as stack:
        with _stage("setup"):
            clock = _make_clock(args.clock)
            simulator = VehicleSimulator.from_config(_load_config(args), start_ms=clock.now_ms())
            link = _wire(args.clock == "real", clock, simulator, stack)[0]()
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
    from .gateway.envelope import open_envelope
    from .gateway.records import SessionManifest

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
    from .gateway.records import csv_to_rows, sha256_hex, validate_rows

    with _stage("setup"):
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
    from .gateway.records import csv_to_rows

    with _stage("setup"):
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
    from .gateway.session import Gateway

    with _stage("erase"):
        out_dir = Path(args.out)
        gateway = Gateway(
            SystemClock(),
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
