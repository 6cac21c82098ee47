"""The configuration table: parsing, defaults, bounds, and that a bad value fails setup."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fogtrace import vehicle
from fogtrace.clock import SimulatedClock
from fogtrace.config import KEYS, Config, ConfigError
from fogtrace.external import (
    FlowService,
    LocalFlowProvider,
    LocalWeatherProvider,
    RateLimiter,
    TrafficClient,
    WeatherClient,
    WeatherService,
)
from fogtrace.gateway import Gateway, SessionRunner
from fogtrace.gateway.session import Session
from fogtrace.vehicle import InProcessObdLink, VehicleSimulator
from fogtrace.wearables import MiBand, PhysioModel, Polar, Spire

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert cfg["seed"] == 9
        assert cfg["vehicle.profile"] == "aggressive"
        assert cfg["gateway.retain_plaintext"] is False
        assert cfg["vehicle.latency.mode_ms"] == 95.5

    def test_defaults_when_missing(self):
        cfg = Config()
        assert cfg["cloud.token_ttl_s"] == 3600
        assert cfg["gateway.retain_plaintext"] is True
        assert cfg["gateway.key_hex"] is None
        assert cfg["cloud.client.gw.scopes"] == frozenset({"upload", "read"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError):
            Config.load(path)

    def test_bad_types_rejected(self):
        for key in ("cloud.token_ttl_s", "gateway.gps_period_ms", "gateway.retain_plaintext"):
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: not an? "):
                Config({key: "abc"})

    def test_merged_overrides(self):
        base = Config({"seed": "1", "gateway.id": "gw-a"})
        cfg = base.merged({"gateway.id": "gw-b", "vehicle.profile": "aggressive"})
        assert (cfg["seed"], cfg["gateway.id"], cfg["vehicle.profile"]) == (1, "gw-b", "aggressive")
        assert (base["gateway.id"], base["vehicle.profile"]) == ("gw-a", "calm")
        with pytest.raises(ConfigError, match="^vehicle.tick_ms: "):
            base.merged({"vehicle.tick_ms": "0"})


class TestSchema:
    def test_unknown_key_is_refused_and_named(self):
        with pytest.raises(ConfigError, match="^gateway.gps_perod_ms: unknown key$"):
            Config({"gateway.gps_perod_ms": "5"})
        with pytest.raises(KeyError):
            Config()["gateway.gps_perod_ms"]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("gateway.gps_period_ms", "0"),
            ("gateway.gps_period_ms", "-5"),
            ("gateway.gps_period_ms", "nan"),
            ("gateway.gps_period_ms", "inf"),
            # Below 1 ms a due time near the clock's epoch would stop moving.
            ("gateway.gps_period_ms", "1e-9"),
            ("external.period_ms", "0"),
            ("vehicle.tick_ms", "0"),
            ("vehicle.tick_ms", "-inf"),
            ("gateway.hr_limit_bpm", "0"),
            ("gateway.overspeed_kmh", "nan"),
            ("cloud.token_ttl_s", "0"),
            ("cloud.token_ttl_s", "1.5"),
            # Above a year; a 401-digit TTL once overflowed the store's float clock at upload.
            ("cloud.token_ttl_s", "31536001"),
            pytest.param("cloud.token_ttl_s", "1" + "0" * 400, id="cloud.token_ttl_s-1e400"),
        ],
    )
    def test_value_out_of_bounds_is_refused_and_named(self, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            Config({key: value})

    @pytest.mark.parametrize(
        "key,value,parsed",
        [
            ("gateway.gps_period_ms", "1", 1.0),
            ("vehicle.tick_ms", "1e308", 1e308),
            ("gateway.hr_limit_bpm", "0.5", 0.5),
            ("cloud.token_ttl_s", "1", 1),
            ("cloud.token_ttl_s", "31536000", 31_536_000),
            ("gateway.retain_plaintext", "Off", False),
        ],
    )
    def test_value_at_its_bound_is_accepted(self, key, value, parsed):
        assert Config({key: value})[key] == parsed

    def test_pattern_keys_are_read_per_id(self):
        cfg = Config({"cloud.client.gw.secret": "s1", "cloud.client.gw.scopes": "upload", "cloud.client.rd.secret": "s2"})
        assert cfg.ids("cloud.client.<id>.secret") == ["gw", "rd"]
        assert cfg["cloud.client.gw.scopes"] == frozenset({"upload"})
        assert cfg["cloud.client.rd.scopes"] == frozenset({"upload", "read"})
        with pytest.raises(ConfigError, match="^cloud.client.gw.secrets: unknown key"):
            Config({"cloud.client.gw.secrets": "s"})

    def test_readme_lists_every_key_with_its_default(self):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Configuration") :]
        section = section[: section.index("\n## ", 1)]
        blocks = re.findall(r"^```\n(.*?)^```", section, re.S | re.M)
        assert len(blocks) == 2
        listed = {}
        for line in "".join(blocks).splitlines():
            key, _, value = line.split("#")[0].partition("=")
            listed[key.strip()] = value.strip()
        assert list(listed) == list(KEYS)
        for key, value in listed.items():
            placeholder = value == "..." or value.startswith("<")
            assert (None if placeholder else KEYS[key].parse(value)) == KEYS[key].default, key


class _TripBudget(Exception):
    pass


class _Turns:
    """The loop turns left to a trip; a 5 s trip takes a few hundred."""

    def __init__(self, left: int):
        self.left = left

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _TripBudget("the trip took more loop turns than a 5 s trip can")


class _CountingLink(InProcessObdLink):
    """The in-process link, spending one turn of the trip's budget per exchange."""

    def __init__(self, simulator, clock, turns: _Turns):
        super().__init__(simulator, clock)
        self.turns = turns

    def transact(self, raw_request: bytes) -> bytes:
        self.turns.spend()
        return super().transact(raw_request)


def _five_second_trip(cfg: Config) -> None:
    """A seeded 5 s trip built from ``cfg``, every loop of it on one budget of turns.

    The OBD link paces the trip loop; the GPS and wearable loops turn once
    per row ingested, and the vehicle's tick loop once per step.
    """
    turns = _Turns(100_000)
    clock = SimulatedClock()
    simulator = VehicleSimulator.from_config(cfg, start_ms=clock.now_ms())
    seed = cfg["seed"]
    physio = PhysioModel()
    runner = SessionRunner(
        Gateway(clock=clock, key=bytes(32), config=cfg),
        clock,
        simulator=simulator,
        obd_link_factory=lambda: _CountingLink(simulator, clock, turns),
        wearables=(MiBand("miband-1", physio, seed), Polar("polar-1", physio, seed), Spire("spire-1", physio, seed)),
        physio=physio,
        traffic=TrafficClient(LocalFlowProvider(FlowService(seed), clock), RateLimiter(clock=clock), clock),
        weather=WeatherClient(LocalWeatherProvider(WeatherService(seed), clock), RateLimiter(clock=clock), clock),
    )
    ingest, step = Session.ingest, vehicle.step

    def counted_ingest(*args, **kwargs):
        turns.spend()
        return ingest(*args, **kwargs)

    def counted_step(*args):
        turns.spend()
        return step(*args)

    with mock.patch.object(Session, "ingest", counted_ingest), mock.patch.object(vehicle, "step", counted_step):
        result = runner.run("driver-1", "vehicle-1", 5.0, upload=False)
    assert result.manifest.row_count > 0


NUMERIC_KEYS = sorted(key for key, spec in KEYS.items() if type(spec.default) in (int, float))
# The edges a hand-written file might hold. Every numeric key is tried with
# each in a plain loop, so each run tries the same cases on any Python or
# Hypothesis version; the property test adds floats and integers of any size.
EDGES = ("0", "-0.0", "-5", "nan", "inf", "-inf", "1e308", "-1e308", "1e-9", "abc", "", "1,2", "0x10")


def _refused_by_name_or_runs_a_trip(key: str, value: str) -> str:
    """How ``key = value`` ended: refused with the key named, or a 5 s trip completed."""
    try:
        cfg = Config({"seed": "7", key: value})
        VehicleSimulator.from_config(cfg)
    except ConfigError as exc:
        assert str(exc).startswith(f"{key}: ")
        return "refused by the table"
    except ValueError as exc:
        # The latency bounds are LatencyModel's to check, and it names them.
        assert key.startswith("vehicle.latency.") and key.rsplit(".", 1)[1] in str(exc)
        return "refused by LatencyModel"
    _five_second_trip(cfg)
    return "ran a trip"


def test_each_edge_value_is_refused_by_name_or_runs_a_trip():
    outcomes = {(key, value): _refused_by_name_or_runs_a_trip(key, value) for key in NUMERIC_KEYS for value in EDGES}
    assert outcomes["gateway.gps_period_ms", "0"] == outcomes["vehicle.tick_ms", "nan"] == "refused by the table"
    assert outcomes["vehicle.latency.max_ms", "1e308"] == "refused by LatencyModel"
    assert outcomes["gateway.hr_limit_bpm", "1e308"] == outcomes["seed", "-5"] == "ran a trip"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(NUMERIC_KEYS),
    st.one_of(
        st.floats().map(repr),
        st.integers(-(10**20), 10**20).map(str),
        st.floats(min_value=0.5, max_value=100_000.0).map(repr),
        st.integers(1, 100_000).map(str),
    ),
)
def test_a_numeric_value_is_refused_by_name_or_runs_a_trip(key, value):
    """No value hangs a trip: it fails setup naming its key, or a 5 s trip completes."""
    event(_refused_by_name_or_runs_a_trip(key, value))


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


class TestBadConfigFailsSetup:
    """Each value that once hung ``run``, or failed it only after setup, now fails setup and names its key."""

    @pytest.mark.parametrize(
        "line",
        [
            "gateway.gps_period_ms = 0",
            "gateway.gps_period_ms = -5",
            "gateway.gps_period_ms = nan",
            "gateway.gps_period_ms = inf",
            "gateway.gps_perod_ms = 5",
            "vehicle.tick_ms = 0",
            "cloud.token_ttl_s = 0",
            pytest.param("cloud.token_ttl_s = 1" + "0" * 400, id="cloud.token_ttl_s = 1e400"),
        ],
    )
    def test_run_fails_setup_naming_the_key(self, capsys, tmp_path, line):
        out = tmp_path / "out"
        argv = ("run", "--no-upload", "--duration", "5", "--out", str(out))
        code, _, stderr = _cli_json(capsys, tmp_path, f"{line}\n", *argv)
        assert code == 1
        assert f"stage 'setup' failed: {line.partition(' ')[0]}: " in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [("bench-obd", "--duration", "5"), ("verify", "--trace-ref", "ab"), ("replay", "--csv-file", "x.csv")]
    )
    def test_every_command_that_reads_the_config_fails_setup(self, capsys, tmp_path, argv):
        code, _, stderr = _cli_json(capsys, tmp_path, "vehicle.tick_ms = 0\n", *argv)
        assert code == 1
        assert "stage 'setup' failed: vehicle.tick_ms: " in stderr


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
