"""Count the fogtrace bytecodes one seeded operation executes.

    python3 tools/opcount.py
    python3 tools/opcount.py --duration 30 --seed 101

The operation is ``fogtrace --seed N run --duration D --profile aggressive
--no-upload`` on the simulated clock, so every source feeds the session
(the in-process OBD link, MiBand, Polar, Spire, GPS, traffic and weather),
followed by ``csv_to_rows`` and ``validate_rows`` of the CSV it wrote, as
``fogtrace verify`` parses and checks a trace. The run is made in this
process, in a temporary ``--out`` directory, after the modules it uses are
imported, so their import is not counted.

A ``sys.settrace`` hook turns on per-opcode events (``f_trace_opcodes``)
only for frames whose code lives in this checkout's ``src/fogtrace``; the
standard library and C functions are not counted. The count is exact and
the same in every fresh process, since the trip runs on the simulated
clock and the tool re-runs itself with ``PYTHONHASHSEED=0`` when the
variable is not already 0. Work done in C (sorting, hashing, ``csv``,
``lru_cache`` hits, string and tuple builtins) is invisible to it, so a
count never replaces timed pairs for a speed claim.

It prints one JSON object: the operation, the total, and the counts per
module (path under ``src/fogtrace``) and per function (``module:qualname``),
each sorted by count, largest first.
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


def count_operation(seed: int, duration_s: float) -> Counter:
    """Bytecodes per code object of ``src/fogtrace`` for one operation."""
    sys.path.insert(0, str(PACKAGE.parent))
    from fogtrace import cli
    from fogtrace.gateway import records, runner, session, uploader  # noqa: F401 - imported untraced
    from fogtrace import external, vehicle, wearables  # noqa: F401

    prefix = str(PACKAGE) + os.sep
    counts: Counter = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        frame.f_trace_opcodes = True
        return local

    with tempfile.TemporaryDirectory() as out:
        argv = ["--seed", str(seed), "run", "--duration", str(duration_s), "--profile", "aggressive"]
        argv += ["--no-upload", "--out", out]
        sys.settrace(on_call)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                raise SystemExit(f"fogtrace {' '.join(argv)} exited {status}")
            (trace,) = Path(out, "traces").glob("*.csv")
            problems = records.validate_rows(records.csv_to_rows(trace.read_bytes()))
        finally:
            sys.settrace(None)
    if problems:
        raise SystemExit(f"the trace fails validation: {problems[:3]}")
    return counts


def report(counts: Counter, seed: int, duration_s: float) -> dict:
    modules: Counter = Counter()
    functions: Counter = Counter()
    for code, n in counts.items():
        module = Path(code.co_filename).relative_to(PACKAGE).as_posix()
        modules[module] += n
        functions[f"{module}:{getattr(code, 'co_qualname', code.co_name)}"] += n
    return {
        "operation": {"seed": seed, "duration_s": duration_s, "profile": "aggressive", "then": "parse, validate"},
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
    print(json.dumps(report(count_operation(args.seed, args.duration), args.seed, args.duration), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
