"""cli-trip: ``fogtrace run`` then ``fogtrace verify``, each a fresh process.

One operation is the pair

    fogtrace --self-contained --seed S --json run --duration 300 --out DIR
    fogtrace --self-contained --json verify --trace-ref REF --store-dir DIR/store --out DIR

run as ``python3 -m fogtrace.cli``. Interpreter start-up, imports and the
self-contained store's shutdown are most of their time. Set-up is the
import of ``fogtrace.cli`` in a fresh interpreter, timed there at the
reference speed (``cli_child.py``).
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
from time import perf_counter

import checks
import inputs
import layers
import trip_hour
from common import BENCH_DIR, Outcome, child_env, golden_problems, median, median_setup, peak_rss_mb, timed
from tracer import Tracer

DURATION_S = 300.0
QUICK_DURATION_S = 30.0


def content_sha(seed: int, quick: bool, work) -> str:
    """sha256 of the CSV an in-process SessionRunner trip gives for the CLI's inputs."""
    duration = QUICK_DURATION_S if quick else DURATION_S
    runner, _ = trip_hour.build_runner(
        seed, duration, inputs.key_for(seed), work / "outbox", outages=False, profile="calm"
    )
    return runner.run("driver-1", "vehicle-1", duration, upload=False).manifest.csv_sha256


def _fogtrace(args: list[str], cwd, stats_file=None) -> tuple[subprocess.CompletedProcess, float]:
    if stats_file is None:
        cmd = [sys.executable, "-m", "fogtrace.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(stats_file), *args]
    return timed(lambda: subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120))


def _json(done: subprocess.CompletedProcess) -> dict | None:
    try:
        return json.loads(done.stdout) if done.returncode == 0 else None
    except ValueError:
        return None


def cycle(seed: int, duration: float, out, reference_sha: str, traced: bool) -> tuple[dict, list[str]]:
    """One run + verify pair; returns its timings and the problems found."""
    stats = [out.parent / f"{out.name}-run.json", out.parent / f"{out.name}-verify.json"] if traced else [None, None]
    run_args = ["--self-contained", "--seed", str(seed), "--json", "run", "--duration", f"{duration:g}", "--out", str(out)]
    ran, run_s = _fogtrace(run_args, out.parent, stats[0])
    summary = _json(ran)
    if summary is None:
        raise RuntimeError(f"fogtrace run exited {ran.returncode}: {ran.stderr.strip()[-300:]}")
    trace_file = out / "traces" / f"{summary['session_id']}.csv"
    file_sha = checks.sha256_hex(trace_file.read_bytes()) if trace_file.exists() else None
    verify_args = ["--self-contained", "--json", "verify", "--trace-ref", str(summary["trace_ref"]),
                   "--store-dir", str(out / "store"), "--out", str(out)]
    verified, verify_s = _fogtrace(verify_args, out.parent, stats[1])
    problems = checks.check_cli(ran.returncode, summary, file_sha, reference_sha, verified.returncode, _json(verified))
    timings = {"run": run_s, "verify": verify_s, "op": run_s + verify_s}
    if traced:
        child = [json.loads(path.read_text()) for path in stats]
        timings["import_s"] = [c["import_s"] for c in child]
        timings["stop_s"] = sum(c["stop_s"] for c in child)
        timings["stops"] = sum(c["stops"] for c in child)
    shutil.rmtree(out, ignore_errors=True)
    return timings, problems


def run(seed: int, seconds: float, trace: bool, quick: bool, work) -> Outcome:
    duration = QUICK_DURATION_S if quick else DURATION_S
    outcome = Outcome()
    stats = work / "setup.json"

    def setup():
        subprocess.run([sys.executable, str(BENCH_DIR / "cli_child.py"), str(stats)], env=child_env(), check=True)
        return None, json.loads(stats.read_text())["import_ref_s"]

    setup_s, _ = median_setup(setup, lambda _: None)
    reference_sha = content_sha(seed, quick, work)
    outcome.check(golden_problems("cli-trip", seed, quick, reference_sha))
    ops: dict[bool, list[dict]] = {False: [], True: []}
    for tracing in (False, True) if trace else (False,):
        spent = 0.0
        while spent < (seconds / 2 if trace else seconds) or (not ops[tracing] and outcome.failed < 3):
            outcome.attempted += 2
            t0 = perf_counter()
            try:
                timings, problems = cycle(seed, duration, work / f"cycle-{outcome.attempted}", reference_sha, tracing)
            except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
                outcome.fail("fogtrace run/verify", exc)
                spent += perf_counter() - t0
                continue
            spent += timings["op"]
            outcome.check(problems)
            ops[tracing].append(timings)

    def p50(kind: str, traced: bool = False) -> float:
        return median([t[kind] for t in ops[traced]])

    plain = ops[False]
    if trace:
        traced = ops[True]
        imports = [x for t in traced for x in t["import_s"]]
        extra = {
            "cli.import_s": sum(imports) / len(imports),
            "cli.store_stop_s": sum(t["stop_s"] for t in traced) / sum(t["stops"] for t in traced),
            "trace.overhead_pct": (p50("op", True) / p50("op") - 1) * 100,
        }
        outcome.metrics = layers.metrics(Tracer().totals(), len(traced), extra)
        return outcome
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50("op") * 1000.0, "ms"),
        "throughput_per_s": (2 * len(plain) / sum(t["op"] for t in plain), "1/s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }
    outcome.detail = {
        "cli_run_s": (p50("run"), "s"),
        "cli_verify_s": (p50("verify"), "s"),
        "cycles": (len(plain), "count"),
    }
    return outcome
