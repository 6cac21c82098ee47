"""Tests of the benchmark itself: quick runs of every workload, and each
check shown to fail on corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import inputs  # noqa: E402

common.use_program()

import obd_bench  # noqa: E402
import trip_hour  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench_cmd(*args: str, cwd: Path = common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


# -- quick runs of the command -------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_and_passes_its_checks(workload, trace):
    done = bench_cmd("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {n: v["unit"] for n, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_program_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_cmd("--workload", "obd-bench", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- trip-hour checks on a real 300 s trip --------------------------------------------


@pytest.fixture(scope="module")
def trip(tmp_path_factory):
    from fogtrace.gateway.envelope import seal

    seed, duration = 7, trip_hour.QUICK_DURATION_S
    key = inputs.key_for(seed)
    runner, links = trip_hour.build_runner(seed, duration, key, tmp_path_factory.mktemp("outbox"))
    result = runner.run("driver-1", "vehicle-1", duration, upload=False)
    manifest = result.manifest.to_dict()
    manifest_json = result.manifest.to_json()
    blob = seal(result.csv_bytes, manifest_json, key)
    return {
        "duration": duration,
        "key": key,
        "csv": result.csv_bytes,
        "rows": checks.parse_trace(result.csv_bytes),
        "drops": links.drops,
        "dropped_ms": result.obd.dropped_ms,
        "manifest": manifest,
        "manifest_json": manifest_json,
        "blob": blob,
        "ref": checks.sha256_hex(blob),
    }


def envelope_problems(trip, **change):
    args = {k: trip[k] for k in ("blob", "ref", "manifest", "manifest_json", "key", "csv")}
    args.update(change)
    return checks.check_envelope(
        args["blob"], args["ref"], args["manifest"], args["manifest_json"], args["key"], args["csv"]
    )


def trip_problems(trip, rows=None, drops=None, dropped_ms=None):
    return checks.check_trip(
        trip["rows"] if rows is None else rows,
        trip["duration"],
        trip["drops"] if drops is None else drops,
        trip["dropped_ms"] if dropped_ms is None else dropped_ms,
    )


def replace_row(rows, match, value):
    i = next(i for i, r in enumerate(rows) if match(r))
    out = list(rows)
    out[i] = r = rows[i][:3] + (value,) + rows[i][4:]
    return out, r


def test_real_trip_passes_every_check(trip):
    assert envelope_problems(trip) == []
    assert trip_problems(trip) == []
    assert trip["drops"] and any(r[5] for r in trip["rows"]), "outages must make gap filling work"


def test_flipped_envelope_byte_fails(trip):
    blob = bytearray(trip["blob"])
    blob[40] ^= 0x01
    problems = envelope_problems(trip, blob=bytes(blob))
    assert any("hash" in p for p in problems) and any("decrypt" in p for p in problems)


def test_other_manifest_fails_authentication(trip):
    assert any("decrypt" in p for p in envelope_problems(trip, manifest_json=trip["manifest_json"] + b" "))


def test_dropped_csv_row_fails_envelope_and_trip_checks(trip):
    from fogtrace.gateway.envelope import seal

    lines = trip["csv"].split(b"\n")
    gps = next(i for i, line in enumerate(lines) if b",gps-1,lat," in line and i > 100)
    shorter = b"\n".join(lines[:gps] + lines[gps + 1 :])
    blob = seal(shorter, trip["manifest_json"], trip["key"])
    problems = envelope_problems(trip, blob=blob, ref=checks.sha256_hex(blob), csv=shorter)
    assert any("sha256" in p for p in problems) and any("rows" in p for p in problems)
    assert any("interpolated" in p for p in trip_problems(trip, rows=checks.parse_trace(shorter)))


def test_decreasing_timestamp_fails(trip):
    rows = list(trip["rows"])
    rows[500], rows[900] = rows[900], rows[500]
    assert any("follows" in p for p in trip_problems(trip, rows=rows))


@pytest.mark.parametrize(
    "channel, value", [("speed_kmh", "50.5"), ("rpm", "801.1"), ("rpm", "700"), ("throttle_pct", "33.3")]
)
def test_obd_value_off_the_codec_grid_fails(trip, channel, value):
    rows, _ = replace_row(trip["rows"], lambda r: r[1] == "obd-1" and r[2] == channel, value)
    assert any("codec grid" in p for p in trip_problems(trip, rows=rows))


def test_polar_bpm_not_matching_rr_fails(trip):
    row = next(r for r in trip["rows"] if r[1] == "polar-1" and r[2] == "bpm" and not r[5])
    bpm, device_ts = row[3].split("@")
    rows, _ = replace_row(trip["rows"], lambda r: r == row, f"{float(bpm) * 1.05:.0f}@{device_ts}")
    assert any("Polar" in p for p in trip_problems(trip, rows=rows))


def test_missing_gps_rows_fail_the_cadence(trip):
    rows = [r for i, r in enumerate(trip["rows"]) if not (r[1] == "gps-1" and r[2] == "lat" and i % 7 == 0)]
    assert any("gps-1 lat" in p for p in trip_problems(trip, rows=rows))


def test_moved_reconnect_row_or_wrong_dropped_time_fails(trip):
    i = next(i for i, r in enumerate(trip["rows"]) if r[3] == "obd-reconnect")
    rows = list(trip["rows"])
    rows[i] = (rows[i][0] + 1,) + rows[i][1:]
    assert any("obd-reconnect" in p for p in trip_problems(trip, rows=rows))
    assert any("dropped time" in p for p in trip_problems(trip, dropped_ms=trip["dropped_ms"] + 500))
    later = [(at, refused + 1) for at, refused in trip["drops"]]
    assert any("obd-reconnect" in p for p in trip_problems(trip, drops=later))


def test_wrong_or_missing_interpolated_row_fails(trip):
    rows, _ = replace_row(trip["rows"], lambda r: r[5] == 1, "0.5")
    assert any("linear fill" in p for p in trip_problems(trip, rows=rows))
    rows = [r for r in trip["rows"] if r[5] != 1]
    assert any("interpolated rows" in p for p in trip_problems(trip, rows=rows))


def test_missing_overspeed_alert_fails(trip):
    rows = [r for r in trip["rows"] if r[3] != "overspeed"]
    assert any("overspeed" in p for p in trip_problems(trip, rows=rows))


# -- obd-bench checks ------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    report, _, start = obd_bench.bench(7, obd_bench.QUICK_DURATION_S)
    latencies, counts = checks.expected_bench(7, obd_bench.QUICK_DURATION_S * 1000.0, start)
    return report.to_dict(), report.window_counts, latencies, counts


def test_real_bench_passes(bench):
    assert checks.check_bench(*bench) == []


def test_bench_corruptions_fail(bench):
    report, counts, latencies, want = bench
    assert checks.check_bench(report, counts, latencies[:-1] + [201.0], want)
    assert checks.check_bench(report, counts, [x + 5 for x in latencies], want)
    assert checks.check_bench(report, counts[:-1] + [counts[-1] + 1], latencies, want)
    assert checks.check_bench({**report, "plateau": report["plateau"] * 1.1}, counts, latencies, want)
    assert checks.check_bench({**report, "ramp_updates": 390}, counts, latencies, want)
    assert checks.check_bench({**report, "ramp_updates": report["ramp_updates"] + 3}, counts, latencies, want)


# -- store-mix and cli-trip checks --------------------------------------------------------


def test_listing_must_be_the_uploads_newest_first():
    refs = ["a", "b", "c"]
    assert checks.check_listing(["c", "b", "a"], refs) == []
    assert checks.check_listing(["b", "c", "a"], refs)
    assert checks.check_listing(["c", "b"], refs)
    assert checks.check_listing(["c", "b", "a", "z"], refs)


def test_download_must_hash_to_its_ref_and_open_to_the_generated_bytes():
    blob, plain = b"blob", b"plain"
    ok = checks.check_download(blob, checks.sha256_hex(blob), plain, checks.sha256_hex(plain))
    assert ok == []
    assert checks.check_download(b"blob!", checks.sha256_hex(blob), plain, checks.sha256_hex(plain))
    assert checks.check_download(blob, checks.sha256_hex(blob), plain + b"x", checks.sha256_hex(plain))


def test_reupload_adding_an_object_or_row_fails():
    assert checks.check_store_totals(10, 10, 10) == []
    assert checks.check_store_totals(11, 10, 10)
    assert checks.check_store_totals(10, 11, 10)


def test_cli_check_fails_on_each_mismatch():
    summary = {"csv_sha256": "aa"}
    verify = {"passed": True, "checks": [{"ok": True}]}
    assert checks.check_cli(0, summary, "aa", "aa", 0, verify) == []
    assert checks.check_cli(1, None, None, "aa", 0, verify)
    assert checks.check_cli(0, summary, "bb", "aa", 0, verify)
    assert checks.check_cli(0, summary, "aa", "bb", 0, verify)
    assert checks.check_cli(0, summary, "aa", "aa", 1, None)
    assert checks.check_cli(0, summary, "aa", "aa", 0, {"passed": True, "checks": [{"ok": False}]})


def test_golden_sha_mismatch_fails_for_a_recorded_seed():
    recorded = common.load_golden()["full"]["trip-hour"]["7"]
    assert common.golden_problems("trip-hour", 7, False, recorded) == []
    assert common.golden_problems("trip-hour", 7, False, "0" * 64)
    assert common.golden_problems("trip-hour", 8, False, "0" * 64) == []  # no record for seed 8


# -- tracer --------------------------------------------------------------------------------


def test_self_time_excludes_child_spans_and_patches_are_undone():
    import time

    class Layer:
        def outer(self):
            time.sleep(0.02)
            return self.inner()

        def inner(self):
            time.sleep(0.03)
            return 1

    tracer = Tracer()
    original = Layer.__dict__["outer"]
    tracer.patch(Layer, "outer", "outer")
    tracer.patch(Layer, "inner", "inner")
    assert Layer().outer() == 1
    tracer.unpatch()
    assert Layer.__dict__["outer"] is original
    t = tracer.totals()
    assert t["calls"]["outer"] == t["calls"]["inner"] == 1
    assert t["under"]["outer", "inner"] == 1
    assert 0.015e9 < t["self_ns"]["outer"] < 0.028e9
    assert t["total_ns"]["outer"] >= t["self_ns"]["outer"] + t["total_ns"]["inner"]


def test_calibration_bursts_are_spans_of_their_own_under_the_call_they_interrupt():
    speed = common.Speed()
    speed.start()
    clock = common.calibrated_clock(speed)
    tracer = Tracer()
    tracer.patch(speed, "tick", "calibration")
    caller = tracer.wrap(lambda: [clock.sleep_ms(1.0) for _ in range(2 * common.BURST_EVERY)], "caller")
    caller()
    tracer.unpatch()
    assert "tick" not in vars(speed)
    assert tracer.totals()["under"]["caller", "calibration"] == 2 == speed.bursts
