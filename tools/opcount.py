"""Count the fogtrace bytecodes two seeded operations execute.

    python3 tools/opcount.py
    python3 tools/opcount.py --duration 30 --seed 101

The first operation, ``trip``, is ``fogtrace --seed N run --duration D
--profile aggressive --no-upload`` on the simulated clock, so every source
feeds the session (the in-process OBD link, MiBand, Polar, Spire, GPS,
traffic and weather), followed by ``csv_to_rows`` and ``validate_rows`` of
the CSV it wrote, as ``fogtrace verify`` parses and checks a trace. The run
is made in this process, in a temporary ``--out`` directory.

The second, ``obd_bench``, is ``run_obd_bench`` for D simulated seconds
over an ``InProcessObdLink`` to a simulator of seed N, at a triangular
latency of 50/80/200 ms, on the simulated clock: the vehicle and the codec
with no session work. Both operations start after the modules they use are
imported, so their import is not counted. They run in this order in one
process, so the codec's memos hold the trip's frames when the bench starts.

A ``sys.settrace`` hook turns on per-opcode events (``f_trace_opcodes``)
only for frames whose code lives in this checkout's ``src/fogtrace``; the
standard library and C functions are not counted. The count is exact and
the same in every fresh process, since both operations run on the
simulated clock and the tool re-runs itself with ``PYTHONHASHSEED=0`` when
the variable is not already 0. Work done in C (sorting, hashing, ``csv``,
``lru_cache`` hits, string and tuple builtins) is invisible to it, so a
count never replaces timed pairs for a speed claim.

It prints one JSON object with a report per operation, ``trip`` and
``obd_bench``: the operation, the total, and the counts per module (path
under ``src/fogtrace``) and per function (``module:qualname``), each
sorted by count, largest first.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "fogtrace"


@contextlib.contextmanager
def _counting(counts: Counter):
    """Count into ``counts`` the bytecodes each ``src/fogtrace`` code object executes inside the block."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)


def count_trip(seed: int, duration_s: float) -> Counter:
    """Bytecodes per code object of ``src/fogtrace`` for the trip, then parse and validate."""
    from fogtrace import cli
    from fogtrace.gateway import records, runner, session, uploader  # noqa: F401 - imported untraced
    from fogtrace import external, vehicle, wearables  # noqa: F401

    counts: Counter = Counter()
    with tempfile.TemporaryDirectory() as out:
        argv = ["--seed", str(seed), "run", "--duration", str(duration_s), "--profile", "aggressive"]
        argv += ["--no-upload", "--out", out]
        with _counting(counts):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                raise SystemExit(f"fogtrace {' '.join(argv)} exited {status}")
            (trace,) = Path(out, "traces").glob("*.csv")
            problems = records.validate_rows(records.csv_to_rows(trace.read_bytes()))
    if problems:
        raise SystemExit(f"the trace fails validation: {problems[:3]}")
    return counts


def count_obd_bench(seed: int, duration_s: float) -> Counter:
    """Bytecodes per code object of ``src/fogtrace`` for one ``run_obd_bench``."""
    from fogtrace.bench import run_obd_bench
    from fogtrace.clock import SimulatedClock
    from fogtrace.vehicle import InProcessObdLink, LatencyModel, VehicleSimulator

    clock = SimulatedClock()
    latency = LatencyModel(min_ms=50.0, mode_ms=80.0, max_ms=200.0, seed=seed)
    link = InProcessObdLink(VehicleSimulator(latency=latency, seed=seed, start_ms=clock.now_ms()), clock)
    counts: Counter = Counter()
    with _counting(counts):
        bench = run_obd_bench(link, clock, duration_s * 1000.0)
    if bench.interrupted or not bench.replies:
        raise SystemExit(f"run_obd_bench was interrupted after {bench.replies} replies")
    return counts


def report(counts: Counter, operation: dict) -> dict:
    modules: Counter = Counter()
    functions: Counter = Counter()
    for code, n in counts.items():
        module = Path(code.co_filename).relative_to(PACKAGE).as_posix()
        modules[module] += n
        functions[f"{module}:{getattr(code, 'co_qualname', code.co_name)}"] += n
    return {
        "operation": operation,
        "total": sum(counts.values()),
        "modules": dict(modules.most_common()),
        "functions": dict(functions.most_common()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=300.0, help="trip length in seconds")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The hash seed orders sets and so which code a loop runs first; fix it.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        command = [sys.executable, str(Path(__file__).resolve()), *(sys.argv[1:] if argv is None else argv)]
        return subprocess.run(command, env=env).returncode
    sys.path.insert(0, str(PACKAGE.parent))
    trip = {"seed": args.seed, "duration_s": args.duration, "profile": "aggressive", "then": "parse, validate"}
    obd_bench = {"seed": args.seed, "duration_s": args.duration, "latency_ms": [50.0, 80.0, 200.0]}
    counted = {
        "trip": report(count_trip(args.seed, args.duration), trip),
        "obd_bench": report(count_obd_bench(args.seed, args.duration), obd_bench),
    }
    print(json.dumps(counted, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
