from __future__ import annotations

import argparse
import contextlib
import json

import pytest

from fogtrace.cli import build_parser, main
from fogtrace.gateway import Outbox
from fogtrace.gateway.envelope import open_envelope


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
        pending = list((out / "outbox").glob("*.env"))
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
        assert not list((out / "outbox").glob("*.env"))

    def test_no_upload_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "--json", "run", "--duration", "2", "--no-upload", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout)["trace_ref"] is None

    def test_missing_cloud_configuration_fails_setup(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "run", "--duration", "1", "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert "setup" in stderr


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

    def test_run_without_upload(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "--json", "run", "--clock", "real", "--no-upload", "--duration", "1", "--out", str(tmp_path / "o")
        )
        assert code == 0
        assert json.loads(stdout)["trace_ref"] is None


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

    def test_manifest_count_mismatch_reported(self, tmp_path, capsys):
        """An envelope whose manifest lies about row_count fails verification."""
        from fogtrace.cloudstore import ClientAccount, CloudClient, CloudStoreHTTPServer, CloudStoreService
        from fogtrace.gateway.envelope import seal
        from fogtrace.gateway.records import SessionManifest, TraceRow, rows_to_csv, sha256_hex

        key = bytes(range(32))
        rows = [TraceRow(1, "polar-1", "bpm", "70@1", "bpm"), TraceRow(2, "polar-1", "bpm", "71@2", "bpm")]
        csv_bytes = rows_to_csv(rows)
        manifest = SessionManifest(
            session_id="sid",
            driver_id="d",
            vehicle_id="v",
            started_at=0,
            ended_at=3,
            devices=(),
            row_count=5,  # wrong on purpose
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

        code, stdout, _ = run_cli(
            capsys,
            "--self-contained",
            "verify",
            "--trace-ref",
            ref,
            "--store-dir",
            str(store_dir),
            "--key-hex",
            key.hex(),
            "--out",
            str(tmp_path / "out"),
        )
        assert code == 1
        assert "PASS decrypt-auth" in stdout
        assert "FAIL row-count" in stdout

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
            "--fixed-ms",
            "100",
            "--out-csv",
            str(series),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["plateau"] == pytest.approx(600.0, rel=0.01)
        assert series.read_text().startswith("update_index,commands_in_window")

    def test_triangular_defaults_text_summary(self, capsys):
        code, stdout, _ = run_cli(capsys, "bench-obd", "--duration", "120")
        assert code == 0
        assert "plateau" in stdout

    def test_bad_latency_spec_fails_setup(self, capsys):
        code, _, stderr = run_cli(capsys, "bench-obd", "--latency", "50,80")
        assert code == 1
        assert "setup" in stderr


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert run_cli(capsys, "verify")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

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
        "bench-obd": ["--clock", "--duration", "--fixed-ms", "--help", "--latency", "--out-csv", "--window-s", "-h"],
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
