from __future__ import annotations

import json

import pytest

from fogtrace.config import Config, ConfigError
from fogtrace.vehicle import VehicleSimulator


class TestParser:
    def test_load_key_values(self, tmp_path):
        path = tmp_path / "fogtrace.conf"
        path.write_text(
            "# comment\n"
            "\n"
            "seed = 9\n"
            "vehicle.profile = aggressive\n"
            "gateway.retain_plaintext = false\n"
            "vehicle.latency.mode_ms = 95.5\n"
        )
        cfg = Config.load(path)
        assert cfg.get_int("seed", 0) == 9
        assert cfg.get_str("vehicle.profile", "calm") == "aggressive"
        assert cfg.get_bool("gateway.retain_plaintext", True) is False
        assert cfg.get_float("vehicle.latency.mode_ms", 80.0) == 95.5

    def test_defaults_when_missing(self):
        cfg = Config()
        assert cfg.get_int("nope", 7) == 7
        assert cfg.get_bool("nope", True) is True
        assert cfg.get("nope") is None

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError):
            Config.load(path)

    def test_bad_types_rejected(self):
        cfg = Config({"x": "abc"})
        with pytest.raises(ConfigError):
            cfg.get_int("x", 0)
        with pytest.raises(ConfigError):
            cfg.get_float("x", 0.0)
        with pytest.raises(ConfigError):
            cfg.get_bool("x", False)

    def test_merged_overrides(self):
        cfg = Config({"a": "1", "b": "2"}).merged({"b": "3", "c": "4"})
        assert cfg.as_dict() == {"a": "1", "b": "3", "c": "4"}


class TestVehicleFromConfig:
    def test_simulator_reads_latency_and_profile(self):
        cfg = Config(
            {
                "vehicle.profile": "aggressive",
                "vehicle.latency.min_ms": "60",
                "vehicle.latency.mode_ms": "60",
                "vehicle.latency.max_ms": "60",
                "vehicle.tick_ms": "50",
                "seed": "3",
            }
        )
        sim = VehicleSimulator.from_config(cfg)
        assert sim.profile.name == "aggressive"
        assert sim.latency.sample() == 60.0
        assert sim.tick_ms == 50.0


class TestConfigDrivenCli:
    def test_threshold_from_config_file_generates_alerts(self, tmp_path, capsys):
        from fogtrace.cli import main

        conf = tmp_path / "fogtrace.conf"
        # The calm profile tops out around 55 km/h, so a 40 km/h limit trips.
        conf.write_text("gateway.overspeed_kmh = 40\n")
        out = tmp_path / "out"
        code = main(
            [
                "--config",
                str(conf),
                "--self-contained",
                "--json",
                "run",
                "--duration",
                "120",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["alerts"] >= 1


def _cli_json(capsys, tmp_path, config: str | None, *argv: str) -> tuple[int, dict | None, str]:
    from fogtrace.cli import main

    prefix = []
    if config is not None:
        conf = tmp_path / "fogtrace.conf"
        conf.write_text(config)
        prefix = ["--config", str(conf)]
    code = main([*prefix, "--json", *argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if code == 0 else None, captured.err


class TestFlagsOverrideConfig:
    """Flag beats config beats default, for ``run`` and ``bench-obd`` alike."""

    def _run_sha(self, capsys, tmp_path, config: str | None, *flags: str) -> str:
        code, summary, _ = _cli_json(
            capsys, tmp_path, config, "run", "--duration", "60", "--no-upload", "--out", str(tmp_path / "out"), *flags
        )
        assert code == 0
        return summary["csv_sha256"]

    def test_run_builds_the_vehicle_from_config(self, capsys, tmp_path):
        default = self._run_sha(capsys, tmp_path, None)
        aggressive = self._run_sha(capsys, tmp_path, None, "--profile", "aggressive")
        assert aggressive != default
        assert self._run_sha(capsys, tmp_path, "vehicle.profile = aggressive\n") == aggressive
        assert self._run_sha(capsys, tmp_path, "vehicle.profile = aggressive\n", "--profile", "calm") == default
        assert self._run_sha(capsys, tmp_path, "vehicle.tick_ms = 50\n") != default

    def test_bench_reads_latency_from_config(self, capsys, tmp_path):
        fixed = "vehicle.latency.min_ms = 100\nvehicle.latency.mode_ms = 100\nvehicle.latency.max_ms = 100\n"
        _, report, _ = _cli_json(capsys, tmp_path, fixed, "bench-obd", "--duration", "90")
        assert report["latency"]["min_ms"] == report["latency"]["max_ms"] == 100.0
        _, flagged, _ = _cli_json(capsys, tmp_path, fixed, "bench-obd", "--duration", "90", "--latency", "50,80,200")
        _, default, _ = _cli_json(capsys, tmp_path, None, "bench-obd", "--duration", "90")
        assert flagged == default

    def test_unknown_profile_in_config_fails_setup(self, capsys, tmp_path):
        code, _, stderr = _cli_json(capsys, tmp_path, "vehicle.profile = sporty\n", "run", "--no-upload", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "stage 'setup'" in stderr and "sporty" in stderr

    @pytest.mark.parametrize(
        "config,argv",
        [
            ("vehicle.profile = sporty\n", ("run", "--no-upload")),
            ("vehicle.profile = sporty\n", ("--self-contained", "run")),
            (None, ("run", "--duration", "1")),
        ],
        ids=["no-upload", "self-contained", "no-cloud"],
    )
    def test_failed_setup_leaves_no_artifact_directory(self, capsys, tmp_path, config, argv):
        out = tmp_path / "out"
        code, _, stderr = _cli_json(capsys, tmp_path, config, *argv, "--out", str(out))
        assert code == 1
        assert "stage 'setup'" in stderr
        assert not out.exists()


class TestStoreAccountsFromConfig:
    def test_unknown_scope_fails_setup(self, capsys, tmp_path):
        config = (
            "cloud.client_id = gw\ncloud.client_secret = s\n"
            "cloud.client.gw.secret = s\ncloud.client.gw.scopes = uplaod,read\n"
        )
        code, _, stderr = _cli_json(
            capsys, tmp_path, config, "--self-contained", "run", "--duration", "5", "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert "stage 'setup'" in stderr and "uplaod" in stderr
