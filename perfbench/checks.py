"""Checks of fogtrace's outputs against computations made apart from it.

Nothing here imports fogtrace: traces are parsed with the standard ``csv``
module, envelopes are opened with ``cryptography`` directly, and every
expected value (interpolated rows, reconnect times, window counts) is
recomputed from the documented rules and the benchmark's own inputs. Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from collections import Counter, defaultdict

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

HEADER = ["timestamp_ms", "source", "channel", "value", "unit", "interpolated"]
MAGIC = b"FDTL1"
NONCE_LEN = 12

# Nominal sample periods (ms) of the streams the gateway gap-fills.
GAP_PERIODS_MS = {
    ("polar-1", "bpm"): 2000.0,
    ("spire-1", "breaths_per_min"): 5000.0,
    ("miband-1", "bpm"): 10_000.0,
    ("gps-1", "lat"): 1000.0,
    ("gps-1", "lon"): 1000.0,
    ("traffic", "traffic_current_speed"): 30_000.0,
    ("traffic", "traffic_free_flow_speed"): 30_000.0,
    ("weather", "weather_temp_c"): 30_000.0,
}
GPS_PERIOD_MS = 1000.0
CONTEXT_PERIOD_MS = 30_000.0
BACKOFF_INITIAL_MS = 500.0


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decrypt(blob: bytes, manifest_json: bytes, key: bytes) -> bytes | None:
    """Plaintext of a ``FDTL1 || nonce || AES-256-GCM`` envelope, or None."""
    if not blob.startswith(MAGIC) or len(blob) < len(MAGIC) + NONCE_LEN + 16:
        return None
    nonce = blob[len(MAGIC) : len(MAGIC) + NONCE_LEN]
    try:
        return AESGCM(key).decrypt(nonce, blob[len(MAGIC) + NONCE_LEN :], manifest_json)
    except InvalidTag:
        return None


def parse_trace(csv_bytes: bytes) -> list[tuple[int, str, str, str, str, int]]:
    reader = csv.reader(io.StringIO(csv_bytes.decode("utf-8")))
    if next(reader, None) != HEADER:
        raise ValueError("trace header differs from the documented one")
    return [(int(r[0]), r[1], r[2], r[3], r[4], int(r[5])) for r in reader]


def _scalar(value: str) -> float | None:
    try:
        return float(value.split("@", 1)[0])
    except ValueError:
        return None


def check_envelope(
    blob: bytes, trace_ref: str, manifest: dict, manifest_json: bytes, key: bytes, sealed_csv: bytes
) -> list[str]:
    """Downloaded blob against the receipt, the sealed CSV and its manifest."""
    problems = []
    if sha256_hex(blob) != trace_ref:
        problems.append("downloaded blob does not hash to the receipt's reference")
    plain = decrypt(blob, manifest_json, key)
    if plain is None:
        return problems + ["blob does not decrypt under the key and manifest"]
    if plain != sealed_csv:
        problems.append("decrypted blob differs from the sealed CSV")
    if sha256_hex(plain) != manifest.get("csv_sha256"):
        problems.append("CSV sha256 differs from the manifest")
    rows = plain.count(b"\n") - 1
    if rows != manifest.get("row_count"):
        problems.append(f"CSV has {rows} rows, manifest says {manifest.get('row_count')}")
    return problems


def check_trip(rows, duration_s: float, drops: list[tuple[float, int]], dropped_ms: float) -> list[str]:
    """Row-level properties of a trip trace.

    ``drops`` are the injected outages as (simulated ms of the drop, refused
    reconnects); ``dropped_ms`` is the poller's reported outage time.
    """
    problems = []
    for prev, row in zip(rows, rows[1:]):
        if row[0] < prev[0]:
            problems.append(f"timestamp {row[0]} follows {prev[0]}")
            break
    problems += _check_obd_grid(rows)
    problems += _check_cadences(rows, duration_s)
    problems += _check_polar(rows)
    problems += _check_reconnects(rows, drops, dropped_ms)
    problems += _check_interpolation(rows)
    if not any(r[2] == "alert" and r[3] == "overspeed" for r in rows):
        problems.append("no overspeed alert although the profile drives above 120 km/h")
    return problems


def _check_obd_grid(rows) -> list[str]:
    bad = []
    for ts, source, channel, value, _unit, interp in rows:
        if source != "obd-1" or interp:
            continue
        v = float(value)
        if channel == "speed_kmh":
            ok = v == int(v) and 0 <= v <= 255
        elif channel == "rpm":
            ok = v * 4 == int(v * 4) and 800 <= v <= 6500
        elif channel == "throttle_pct":
            k = v * 255 / 100
            ok = abs(k - round(k)) < 1e-4 and 0 <= round(k) <= 255
        else:
            ok = False
        if not ok:
            bad.append(f"OBD {channel}={value} at {ts} is off the codec grid")
    return bad[:5]


def _check_cadences(rows, duration_s: float) -> list[str]:
    real = Counter((r[1], r[2]) for r in rows if not r[5])
    problems = []
    expected = {
        ("gps-1", "lat"): duration_s * 1000 / GPS_PERIOD_MS,
        ("gps-1", "lon"): duration_s * 1000 / GPS_PERIOD_MS,
    }
    for key in GAP_PERIODS_MS:
        if key[0] in ("traffic", "weather"):
            expected[key] = duration_s * 1000 / CONTEXT_PERIOD_MS
    expected[("weather", "weather_condition")] = duration_s * 1000 / CONTEXT_PERIOD_MS
    for key, want in expected.items():
        if abs(real[key] - want) > 1:
            problems.append(f"{key[0]} {key[1]}: {real[key]} rows, expected {want:.0f} +/- 1")
    return problems


def _check_polar(rows) -> list[str]:
    beats: dict[str, dict[str, list[float]]] = defaultdict(lambda: {"bpm": [], "rr_ms": []})
    for _ts, source, channel, value, _unit, interp in rows:
        if source == "polar-1" and not interp and channel in ("bpm", "rr_ms"):
            head, _, device_ts = value.partition("@")
            beats[device_ts][channel].append(float(head))
    problems = []
    for device_ts, sample in beats.items():
        if len(sample["bpm"]) != 1 or not sample["rr_ms"]:
            problems.append(f"Polar sample @{device_ts} lacks one bpm with R-R intervals")
            continue
        expect = 60000.0 / (sum(sample["rr_ms"]) / len(sample["rr_ms"]))
        if abs(sample["bpm"][0] - expect) > 0.02 * expect:
            problems.append(f"Polar bpm {sample['bpm'][0]} @{device_ts} vs 60000/mean(R-R) {expect:.1f}")
    return problems[:5]


def _check_reconnects(rows, drops, dropped_ms: float) -> list[str]:
    """One obd-reconnect row per drop, at drop time plus 0.5 s doubling backoff."""
    got = [r[0] for r in rows if r[2] == "alert" and r[3] == "obd-reconnect"]
    gaps = [BACKOFF_INITIAL_MS * (2**refused - 1) for _, refused in drops]
    want = [int(at + gap) for (at, _), gap in zip(drops, gaps)]
    problems = []
    if got != want:
        problems.append(f"obd-reconnect rows at {got}, expected {want}")
    if not math.isclose(dropped_ms, sum(gaps), rel_tol=1e-9, abs_tol=1e-6):
        problems.append(f"dropped time {dropped_ms} ms, injected {sum(gaps)} ms")
    return problems


def _check_interpolation(rows) -> list[str]:
    """Interpolated rows equal an independent linear fill of 1.5x-3x gaps."""
    streams: dict[tuple[str, str], list] = defaultdict(list)
    got = []
    for ts, source, channel, value, _unit, interp in rows:
        if interp:
            got.append((source, channel, ts, float(value)))
        else:
            streams[source, channel].append((ts, _scalar(value)))
    want = []
    for key, period in GAP_PERIODS_MS.items():
        stream = streams.get(key, [])
        for (t0, v0), (t1, v1) in zip(stream, stream[1:]):
            dt = t1 - t0
            if not 1.5 * period < dt <= 3.0 * period or v0 is None or v1 is None:
                continue
            k = 1
            while t0 + k * period <= t1 - 0.5 * period:
                t = t0 + k * period
                want.append((key[0], key[1], int(round(t)), v0 + (v1 - v0) * (t - t0) / dt))
                k += 1
    got.sort()
    want.sort()
    if [g[:3] for g in got] != [w[:3] for w in want]:
        return [f"{len(got)} interpolated rows, expected {len(want)} (or at other times)"]
    off = [g for g, w in zip(got, want) if abs(g[3] - w[3]) > 1e-6 * max(1.0, abs(w[3]))]
    return [f"interpolated value {g} is not the linear fill" for g in off[:5]]


# -- obd-bench -------------------------------------------------------------------


def expected_bench(seed: int, duration_ms: float, start_ms: float, window_ms: float = 60_000.0):
    """Replay the triangular (50, 80, 200) draws on a simulated clock.

    Returns (latencies, window counts) for back-to-back polling until the
    deadline, each reply counted against the trailing window.
    """
    rng = random.Random(seed)
    now = start_ms
    deadline = start_ms + duration_ms
    latencies, counts, window = [], [], []
    head = 0
    while now < deadline:
        issued = now
        reply_at = now + rng.triangular(50.0, 200.0, 80.0)
        now = now + (reply_at - now)
        latencies.append(now - issued)
        window.append(now)
        while window[head] <= now - window_ms:
            head += 1
        counts.append(len(window) - head)
    return latencies, counts


def check_bench(report: dict, counts: list[int], latencies: list[float], want_counts: list[int]) -> list[str]:
    """A bench report and its window series against the replayed draws."""
    problems = []
    lo, hi = min(latencies), max(latencies)
    if lo < 50.0 - 1e-3 or hi > 200.0 + 1e-3:
        problems.append(f"latencies span [{lo:.3f}, {hi:.3f}] ms, outside [50, 200]")
    mean = sum(latencies) / len(latencies)
    if abs(mean - 110.0) > 3.0:
        problems.append(f"mean latency {mean:.2f} ms, expected 110 +/- 3")
    if abs(report["latency"]["mean_ms"] - mean) > 1e-6 * mean:
        problems.append(f"reported mean {report['latency']['mean_ms']} ms, replayed {mean}")
    if counts != want_counts:
        problems.append(f"window series ({len(counts)} updates) differs from the replayed one ({len(want_counts)})")
    plateau = report["plateau"]
    expect = 60_000.0 / mean
    if plateau is None or abs(plateau - expect) > 0.05 * expect:
        problems.append(f"plateau {plateau} is not within 5% of 60000/mean = {expect:.1f}")
    ramp = report["ramp_updates"]
    if ramp is None or not 400 <= ramp <= 650:
        problems.append(f"ramp completes at update {ramp}, outside 400..650")
    elif plateau is not None:
        first = next((i for i, c in enumerate(counts, 1) if c >= 0.95 * plateau), None)
        if first != ramp:
            problems.append(f"ramp reported at {ramp}, series reaches 95% of plateau at {first}")
    return problems


# -- store-mix ---------------------------------------------------------------------


def check_listing(listed_refs: list[str], uploaded_refs: list[str], limit: int = 50) -> list[str]:
    """A driver listing is that driver's uploads, newest first."""
    want = list(reversed(uploaded_refs))[:limit]
    if listed_refs != want:
        return [f"listing has {len(listed_refs)} refs, expected the {len(want)} newest uploads in order"]
    return []


def check_download(blob: bytes, trace_ref: str, plain: bytes, want_sha: str) -> list[str]:
    problems = []
    if sha256_hex(blob) != trace_ref:
        problems.append(f"download of {trace_ref[:12]} does not hash to its reference")
    if sha256_hex(plain) != want_sha:
        problems.append(f"download of {trace_ref[:12]} opens to other bytes than were generated")
    return problems


def check_store_totals(objects: int, rows: int, distinct_uploads: int) -> list[str]:
    if objects == rows == distinct_uploads:
        return []
    return [f"store holds {objects} objects and {rows} rows for {distinct_uploads} distinct uploads"]


# -- cli-trip -------------------------------------------------------------------------


def check_cli(run_code: int, summary: dict | None, trace_file_sha: str | None, reference_sha: str,
              verify_code: int, verify: dict | None) -> list[str]:
    problems = []
    if run_code != 0 or summary is None:
        return [f"run exited {run_code}"]
    if summary.get("csv_sha256") != trace_file_sha:
        problems.append("run's csv_sha256 is not the sha256 of its trace file")
    if summary.get("csv_sha256") != reference_sha:
        problems.append("run's csv_sha256 differs from the in-process SessionRunner trip")
    if verify_code != 0 or verify is None:
        problems.append(f"verify exited {verify_code}")
    elif not verify.get("passed") or not all(c.get("ok") for c in verify.get("checks", [])):
        problems.append("verify reports a failed check")
    return problems
