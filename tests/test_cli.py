from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import fogtrace
from fogtrace.cli import build_parser, main
from fogtrace.gateway import Outbox, Session, csv_to_rows, validate_rows
from fogtrace.gateway.envelope import open_envelope
from test_cloudstore import _FailingInsert

SRC = str(Path(fogtrace.__file__).resolve().parent.parent)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_self_contained_run_and_verify(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "--json",
            "run",
            "--duration",
            "45",
            "--profile",
            "calm",
            "--out",
            str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["row_count"] > 0
        assert summary["trace_ref"]
        assert (out / "manifest.json").exists()
        assert (out / "receipt.json").exists()
        assert (out / "key.hex").exists()
        assert list((out / "traces").glob("*.csv"))
        stored = [p for p in (out / "store" / "objects").rglob("*") if p.is_file()]
        assert len(stored) == 1  # exactly one trace landed in the store

        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "verify",
            "--trace-ref",
            summary["trace_ref"],
            "--store-dir",
            str(out / "store"),
            "--out",
            str(out),
        )
        assert code == 0
        assert "FAIL" not in stdout
        assert "PASS decrypt-auth" in stdout

    def test_self_contained_store_is_closed_when_the_command_ends(self, tmp_path, capsys):
        # Its one connection closed after the server stopped, so the WAL was
        # checkpointed into the database and deleted.
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "--self-contained", "--json", "run", "--duration", "30", "--out", str(out))
        assert code == 0
        store = out / "store"
        assert (store / "metadata.sqlite3").exists()
        assert not (store / "metadata.sqlite3-wal").exists()
        assert not (store / "metadata.sqlite3-shm").exists()
        trace_ref = json.loads(stdout)["trace_ref"]
        code, stdout, _ = run_cli(
            capsys, "--self-contained", "--json", "verify", "--trace-ref", trace_ref, "--store-dir", str(store), "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout)["passed"]

    def test_unreachable_cloud_names_upload_stage(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            capsys,
            "run",
            "--duration",
            "1",
            "--cloud-url",
            "http://127.0.0.1:9",
            "--out",
            str(out),
        )
        assert code == 1
        assert "upload" in stderr
        outbox = Outbox(out / "outbox")
        [ref] = outbox.pending()
        envelope, manifest_json = outbox.load(ref)
        key = bytes.fromhex((out / "key.hex").read_text())
        assert open_envelope(envelope, manifest_json, key)

    def test_next_run_flushes_outbox(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--duration",
            "1",
            "--cloud-url",
            "http://127.0.0.1:9",
            "--out",
            str(out),
        )
        assert code == 1
        pending = list((out / "outbox").glob("*.entry"))
        assert len(pending) == 1

        code, _, stderr = run_cli(
            capsys,
            "--self-contained",
            "run",
            "--duration",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        assert "flushed pending upload" in stderr
        assert not list((out / "outbox").glob("*.entry"))

    @pytest.mark.parametrize(
        "status,body",
        [(200, b"<html>captive portal</html>"), (502, b"<html>502 Bad Gateway</html>")],
        ids=["captive-portal", "proxy-error-page"],
    )
    def test_a_captive_portal_at_the_store_url_fails_the_upload_after_the_trip(
        self, tmp_path, capsys, canned_server, status, body
    ):
        # An entry left by an earlier run, so the flush before the trip asks the portal too.
        out = tmp_path / "out"
        earlier = Outbox(out / "outbox").put(b"sealed earlier", b"{}")
        portal = canned_server(body, status)
        code, _, stderr = run_cli(capsys, "run", "--duration", "5", "--cloud-url", portal.base_url, "--out", str(out))
        assert code == 1
        assert "stage 'upload' failed" in stderr
        assert f"a {status} reply that is not the store's: {body!r}" in stderr
        pending = Outbox(out / "outbox").pending()
        assert len(pending) == 2 and earlier in pending
        assert len(list((out / "traces").glob("*.csv"))) == 1

    def test_a_store_fault_leaves_the_entries_pending_and_the_trip_runs(
        self, tmp_path, capsys, store_service, store_server, monkeypatch
    ):
        conf = tmp_path / "fogtrace.conf"
        conf.write_text("cloud.client_id = gw\ncloud.client_secret = gw-secret\n")
        out = tmp_path / "out"
        # A manifest the store takes, so the flush before the trip reaches the failing insert.
        earlier = Outbox(out / "outbox").put(b"sealed earlier", b'{"session_id": "s0", "driver_id": "drv"}')
        locked = sqlite3.OperationalError("database is locked")
        monkeypatch.setattr(store_service, "_db", _FailingInsert(store_service._db, locked))
        code, _, stderr = run_cli(
            capsys, "--config", str(conf), "run", "--duration", "5", "--cloud-url", store_server.base_url, "--out", str(out)
        )
        assert code == 1
        assert "stage 'upload' failed" in stderr
        assert "database is locked" in stderr
        pending = Outbox(out / "outbox").pending()
        assert len(pending) == 2 and earlier in pending
        assert len(list((out / "traces").glob("*.csv"))) == 1

    def test_self_contained_store_registers_the_configured_client(self, tmp_path, capsys):
        conf = tmp_path / "fogtrace.conf"
        conf.write_text("cloud.client_id = foo\ncloud.client_secret = bar\n")
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys, "--config", str(conf), "--self-contained", "--json", "run", "--duration", "5", "--out", str(out)
        )
        assert code == 0, stderr
        trace_ref = json.loads(stdout)["trace_ref"]
        code, stdout, stderr = run_cli(
            capsys, "--config", str(conf), "--self-contained", "--json", "verify", "--trace-ref", trace_ref, "--out", str(out)
        )
        assert code == 0, stderr
        assert json.loads(stdout)["passed"]

    def test_no_upload_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "--json", "run", "--duration", "2", "--no-upload", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout)["trace_ref"] is None

    def test_simulated_run_never_reads_the_wall_clock(self, tmp_path, capsys, no_wall_clock):
        before = signal.getsignal(signal.SIGTERM)
        code, stdout, stderr = run_cli(capsys, "--json", "run", "--duration", "60", "--no-upload", "--out", str(tmp_path))
        assert code == 0, stderr
        assert json.loads(stdout)["obd_rows"] > 0
        # The session's SIGTERM handler is gone with the command.
        assert signal.getsignal(signal.SIGTERM) is before

    def test_missing_cloud_configuration_fails_setup(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "run", "--duration", "1", "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert "setup" in stderr


class TestKeyCheckedAtSetup:
    """A key that is not 64 hex digits fails setup, names its source and runs no trip."""

    @pytest.mark.parametrize("bad", ["abcd", "zz" * 32, "ab" * 33])
    @pytest.mark.parametrize("source", ["--key-hex", "--key-file", "gateway.key_hex", "gateway.key_file", "key.hex"])
    def test_bad_key_fails_setup_naming_its_source(self, tmp_path, capsys, source, bad):
        out = tmp_path / "out"
        key_file = tmp_path / "bad.key"
        key_file.write_text(f"{bad}\n")
        argv = ["--self-contained", "run", "--duration", "5", "--out", str(out)]
        named = source
        if source == "--key-hex":
            argv += ["--key-hex", bad]
        elif source == "--key-file":
            argv += ["--key-file", str(key_file)]
        elif source == "key.hex":
            out.mkdir()
            (out / "key.hex").write_text(f"{bad}\n")
            named = str(out / "key.hex")
        else:
            conf = tmp_path / "fogtrace.conf"
            conf.write_text(f"{source} = {bad if source == 'gateway.key_hex' else key_file}\n")
            argv = ["--config", str(conf), *argv]
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 1
        assert f"stage 'setup' failed: {named}: the key must be 64 hex digits (32 bytes)" in stderr
        assert not (out / "traces").exists()
        assert not (out / "outbox").exists()

    def test_only_the_key_used_is_checked(self, tmp_path, capsys):
        conf = tmp_path / "fogtrace.conf"
        conf.write_text(f"gateway.key_hex = abcd\ngateway.key_file = {tmp_path / 'missing.key'}\n")
        argv = ["--config", str(conf), "run", "--no-upload", "--duration", "5", "--out", str(tmp_path / "out")]
        code, _, stderr = run_cli(capsys, *argv, "--key-hex", "ab" * 32)
        assert code == 0, stderr

    def test_a_key_flag_beats_the_config_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        key_file = tmp_path / "k1.key"
        key_file.write_text("ab" * 32 + "\n")
        conf = tmp_path / "fogtrace.conf"
        conf.write_text(f"gateway.key_hex = {'cd' * 32}\n")
        code, stdout, stderr = run_cli(
            capsys, "--config", str(conf), "--self-contained", "--json", "run", "--duration", "5",
            "--key-file", str(key_file), "--out", str(out),
        )
        assert code == 0, stderr
        trace_ref = json.loads(stdout)["trace_ref"]
        code, stdout, _ = run_cli(
            capsys, "--self-contained", "--json", "verify", "--trace-ref", trace_ref, "--store-dir", str(out / "store"),
            "--key-file", str(key_file), "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["passed"]

    def test_unreadable_key_file_fails_setup_naming_its_source(self, tmp_path, capsys):
        missing = tmp_path / "missing.key"
        code, _, stderr = run_cli(capsys, "run", "--no-upload", "--key-file", str(missing), "--out", str(tmp_path / "out"))
        assert code == 1
        assert f"stage 'setup' failed: --key-file: cannot read {missing}" in stderr


class TestRealClock:
    """``--clock real``: a served vehicle and context in wall time, trips of one second."""

    def test_self_contained_run_and_verify(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "--self-contained", "--json", "run", "--clock", "real", "--duration", "1", "--out", str(out)
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["obd_rows"] > 0
        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "--json",
            "verify",
            "--trace-ref",
            summary["trace_ref"],
            "--store-dir",
            str(out / "store"),
            "--out",
            str(out),
        )
        assert code == 0
        assert json.loads(stdout)["passed"]

    def test_self_contained_bench(self, capsys):
        code, stdout, _ = run_cli(capsys, "--self-contained", "--json", "bench-obd", "--clock", "real", "--duration", "1")
        assert code == 0
        assert json.loads(stdout)["replies"] > 0

    def test_run_without_upload(self, tmp_path, capsys, monkeypatch):
        # The vehicle and the context services answer from server threads, but
        # every sample reaches the session from the trip loop's own thread.
        ingest_threads = []
        ingest = Session.ingest

        def recording_ingest(self, *args, **kwargs):
            ingest_threads.append(threading.get_ident())
            return ingest(self, *args, **kwargs)

        monkeypatch.setattr(Session, "ingest", recording_ingest)
        code, stdout, _ = run_cli(
            capsys, "--json", "run", "--clock", "real", "--no-upload", "--duration", "1", "--out", str(tmp_path / "o")
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["trace_ref"] is None
        assert summary["obd_rows"] > 0
        assert len(ingest_threads) >= summary["obd_rows"]
        assert set(ingest_threads) == {threading.get_ident()}


# Runs the CLI, and says on stderr when its session has started.
_ANNOUNCING_CLI = """
import sys
from fogtrace import cli
from fogtrace.gateway import session

start_session = session.Gateway.start_session

def announcing(self, *args):
    started = start_session(self, *args)
    print("session started", file=sys.stderr, flush=True)
    return started

session.Gateway.start_session = announcing
sys.exit(cli.main(sys.argv[1:]))
"""


class TestSigterm:
    """SIGTERM cuts a trip the way an error does: its CSV is written and the session stage fails."""

    def test_sigterm_keeps_the_cut_trips_csv(self, tmp_path):
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        argv = ["run", "--clock", "real", "--no-upload", "--duration", "30", "--out", str(out)]
        child = subprocess.Popen(
            [sys.executable, "-c", _ANNOUNCING_CLI, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stderr.readline() == "session started\n"
            time.sleep(1.0)
            child.send_signal(signal.SIGTERM)
            _, stderr = child.communicate(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 1, stderr
        assert "stage 'session' failed: terminated by SIGTERM" in stderr
        [trace] = (out / "traces").glob("*.csv")
        rows = csv_to_rows(trace.read_bytes())
        assert validate_rows(rows) == []
        assert any(row.source == "obd-1" for row in rows)


class TestVerifyCommand:
    def test_wrong_key_reports_decrypt_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "--json",
            "run",
            "--duration",
            "5",
            "--out",
            str(out),
        )
        assert code == 0
        ref = json.loads(stdout)["trace_ref"]
        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "verify",
            "--trace-ref",
            ref,
            "--store-dir",
            str(out / "store"),
            "--key-hex",
            "11" * 32,
            "--out",
            str(out),
        )
        assert code == 1
        assert "FAIL decrypt-auth" in stdout

    @staticmethod
    def _stored(tmp_path, csv_bytes: bytes, row_count: int) -> list[str]:
        """Seal and store ``csv_bytes`` under a manifest claiming ``row_count``; verify's flags for it."""
        from fogtrace.cloudstore import ClientAccount, CloudClient, CloudStoreHTTPServer, CloudStoreService
        from fogtrace.gateway.envelope import seal
        from fogtrace.gateway.records import SessionManifest, sha256_hex

        key = bytes(range(32))
        manifest = SessionManifest(
            session_id="sid",
            driver_id="d",
            vehicle_id="v",
            started_at=0,
            ended_at=3,
            devices=(),
            row_count=row_count,
            csv_sha256=sha256_hex(csv_bytes),
        )
        envelope = seal(csv_bytes, manifest.to_json(), key)
        store_dir = tmp_path / "store"
        account = ClientAccount("gateway", "local-dev-secret", frozenset({"upload", "read"}))
        service = CloudStoreService(store_dir, clients={"gateway": account})
        with CloudStoreHTTPServer(service) as server:
            client = CloudClient(server.base_url, "gateway", "local-dev-secret")
            with contextlib.closing(client.session):
                ref = client.upload_trace(manifest.to_json(), envelope)["trace_ref"]
        return ["--trace-ref", ref, "--store-dir", str(store_dir), "--key-hex", key.hex(), "--out", str(tmp_path / "out")]

    def test_manifest_count_mismatch_reported(self, tmp_path, capsys):
        """An envelope whose manifest lies about row_count fails verification."""
        from fogtrace.gateway.records import TraceRow, rows_to_csv

        rows = [TraceRow(1, "polar-1", "bpm", "70@1", "bpm"), TraceRow(2, "polar-1", "bpm", "71@2", "bpm")]
        flags = self._stored(tmp_path, rows_to_csv(rows), row_count=5)  # wrong on purpose
        code, stdout, _ = run_cli(capsys, "--self-contained", "verify", *flags)
        assert code == 1
        assert "PASS decrypt-auth" in stdout
        assert "FAIL row-count" in stdout

    def test_bare_cr_in_a_field_fails_csv_parse_with_a_report(self, tmp_path, capsys):
        """A trace written with a CR left unquoted is reported, not raised past the checks."""
        csv_bytes = b"timestamp_ms,source,channel,value,unit,interpolated\n1,weather,weather_condition,light\rrain,,0\n"
        flags = self._stored(tmp_path, csv_bytes, row_count=1)
        code, stdout, stderr = run_cli(capsys, "--self-contained", "--json", "verify", *flags)
        assert code == 1
        assert stderr == ""
        report = json.loads(stdout)
        assert report["passed"] is False
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["csv-sha256"]["ok"] is True
        assert checks["csv-parse"]["ok"] is False
        assert "new-line character" in checks["csv-parse"]["detail"]

    def test_unknown_ref_fails_download(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "--self-contained", "run", "--duration", "1", "--out", str(out))
        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "verify",
            "--trace-ref",
            "00" * 32,
            "--store-dir",
            str(out / "store"),
            "--out",
            str(out),
        )
        assert code == 1
        assert "FAIL download" in stdout


class TestReplayCommand:
    def test_replay_local_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(capsys, "--self-contained", "run", "--duration", "10", "--out", str(out))
        trace = next((out / "traces").glob("*.csv"))
        code, stdout, _ = run_cli(capsys, "--json", "replay", "--csv-file", str(trace))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["rows"] > 0
        assert "rpm" in summary["channels"]

    def test_replay_from_store(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "--self-contained", "--json", "run", "--duration", "5", "--out", str(out)
        )
        ref = json.loads(stdout)["trace_ref"]
        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "--json",
            "replay",
            "--trace-ref",
            ref,
            "--store-dir",
            str(out / "store"),
            "--out",
            str(out),
        )
        assert code == 0
        assert json.loads(stdout)["rows"] > 0

    def test_replay_requires_a_source(self, capsys):
        code, _, stderr = run_cli(capsys, "replay")
        assert code == 2
        assert "need --trace-ref or --csv-file" in stderr


class TestEraseCommand:
    def test_erase_local(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "outbox").mkdir(parents=True)
        (out / "traces").mkdir(parents=True)
        (out / "outbox" / "x.env").write_bytes(b"1")
        (out / "traces" / "t.csv").write_bytes(b"2")
        code, stdout, _ = run_cli(capsys, "--json", "erase", "--scope", "local", "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["local_files"] == 2
        assert not list((out / "outbox").iterdir())


class TestBenchCommand:
    def test_fixed_latency_json_report(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        code, stdout, _ = run_cli(
            capsys,
            "--json",
            "bench-obd",
            "--duration",
            "90",
            "--latency",
            "100,100,100",
            "--out-csv",
            str(series),
        )
        assert code == 0
        report = json.loads(stdout)
        assert list(report) == [
            "duration_ms",
            "window_ms",
            "replies",
            "negatives",
            "latency",
            "plateau",
            "ramp_updates",
            "interrupted",
        ]
        assert list(report["latency"]) == ["mean_ms", "min_ms", "max_ms", "p50_ms", "p95_ms"]
        assert report["plateau"] == pytest.approx(600.0, rel=0.01)
        assert report["negatives"] == 0
        assert series.read_text().startswith("update_index,commands_in_window")

    def test_triangular_defaults_text_summary(self, capsys):
        code, stdout, _ = run_cli(capsys, "bench-obd", "--duration", "120")
        assert code == 0
        assert "plateau" in stdout
        assert "negative replies: 0" in stdout

    def test_bad_latency_spec_fails_setup(self, capsys):
        code, _, stderr = run_cli(capsys, "bench-obd", "--latency", "50,80")
        assert code == 1
        assert "setup" in stderr

    def test_negative_latency_bound_fails_setup_and_names_it(self, capsys):
        code, _, stderr = run_cli(capsys, "bench-obd", "--latency=-1,50,80", "--duration", "1")
        assert code == 1
        assert "setup" in stderr
        assert "min_ms" in stderr


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_cli(capsys, "verify")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_profile_exit_2_names_the_profiles(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, "run", "--profile", "bogus", "--out", str(out))
        assert code == 2
        assert "--profile" in stderr and "'bogus'" in stderr
        assert "aggressive" in stderr and "calm" in stderr
        assert not stdout
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [["--self-contained", "run", "--duration"], ["bench-obd", "--duration"], ["bench-obd", "--window-s"]],
        ids=["run-duration", "bench-duration", "bench-window"],
    )
    def test_seconds_not_above_0_exit_2(self, tmp_path, capsys, argv, value):
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, *argv, value, *(["--out", str(out)] if "run" in argv else []))
        assert code == 2
        assert argv[-1] in stderr
        assert not stdout
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [["run", "--duration"], ["bench-obd", "--duration"], ["bench-obd", "--window-s"]],
        ids=["run-duration", "bench-duration", "bench-window"],
    )
    def test_seconds_not_finite_exit_2(self, capsys, argv, value):
        # Parsed only: on a parser that let inf through, the trip would never end.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, value])
        assert exc.value.code == 2
        assert argv[-1] in capsys.readouterr().err


class TestParserOptions:
    # Every option string each command offers; the parser may be reorganised
    # but no flag may appear or disappear.
    EXPECTED = {
        None: ["--config", "--help", "--json", "--seed", "--self-contained", "--verbose", "-h"],
        "run": [
            "--clock", "--cloud-url", "--driver", "--duration", "--help", "--key-file", "--key-hex",
            "--no-upload", "--out", "--outbox-dir", "--profile", "--store-dir", "--vehicle", "-h",
        ],
        "bench-obd": ["--clock", "--duration", "--help", "--latency", "--out-csv", "--window-s", "-h"],
        "verify": ["--cloud-url", "--help", "--key-file", "--key-hex", "--out", "--store-dir", "--trace-ref", "-h"],
        "replay": [
            "--cloud-url", "--csv-file", "--help", "--key-file", "--key-hex", "--out", "--store-dir", "--trace-ref", "-h",
        ],
        "erase": ["--help", "--out", "--outbox-dir", "--scope", "--trace-dir", "-h"],
    }

    @staticmethod
    def _options(parser: argparse.ArgumentParser) -> list[str]:
        return sorted(s for action in parser._actions for s in action.option_strings)

    def test_each_command_offers_the_same_options(self):
        parser = build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        offered = {name: self._options(sub) for name, sub in commands.choices.items()}
        offered[None] = self._options(parser)
        assert offered == self.EXPECTED

    def test_shared_option_defaults(self):
        parse = build_parser().parse_args
        for argv in (["run"], ["verify", "--trace-ref", "r"], ["replay"], ["erase", "--scope", "local"]):
            assert parse(argv).out == "fogtrace-out"
        for argv in (["run"], ["verify", "--trace-ref", "r"], ["replay"]):
            args = parse(argv)
            assert (args.store_dir, args.cloud_url, args.key_hex, args.key_file) == (None, None, None, None)
        for argv in (["run"], ["bench-obd"]):
            assert parse(argv).clock == "sim"
