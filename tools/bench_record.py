"""Record the benchmark of one checkout as a ``BENCH_<n>.json`` file.

    python3 tools/bench_record.py --out BENCH_1.json
    python3 tools/bench_record.py --checkout ../fogtrace-parent --out BENCH_0.json

For each workload in the checkout's ``BENCHMARK.json`` it runs
``perfbench/run.py --seed 7`` three times with ``--trace 0`` and three
times with ``--trace 1``, alternately and each for the declared
``run_seconds``, in fresh processes one after the other, so a drift in the
CPU's speed reaches both kinds of run alike. The file holds the checkout's
commit, the git tree ids of its ``src`` and ``perfbench`` as measured
(uncommitted changes included, so a file recorded before its commit is
matched to it by ``git rev-parse <commit>:src``), the seeds, the outcome of
every run, the median and quartiles of every end-to-end metric and detail
line over the untraced runs, and each per-layer metric as its median over
the traced runs, with the three values. The exit status is 1 when any run
failed a check or an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# A plain-text metric or detail line of run.py: two spaces, name, value, unit.
_LINE = re.compile(r"^  (\S+)\s+(-?\d+(?:\.\d+)?) (\S+)$")
SEED = 7
REPEAT = 3  # untraced runs per workload, and as many traced: the fewest that have quartiles


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def measured_trees(checkout: Path) -> dict:
    """The tree ids of ``src`` and ``perfbench`` in the working tree's tracked files."""
    snapshot = _git(checkout, "stash", "create") or "HEAD"  # stash create stores a commit but moves no ref
    return {path: _git(checkout, "rev-parse", f"{snapshot}:{path}") for path in ("src", "perfbench")}


def run_once(
    checkout: Path, workload: str, seconds: float, trace: bool, pycache: Path | None = None, seed: int = SEED
) -> dict:
    """One ``run.py`` process: its outcome, metrics and detail lines, each figure a ``(value, unit)``.

    With ``pycache``, the process reads and writes all its bytecode, the
    standard library's included, there rather than in any ``__pycache__``;
    only the first run with a fresh ``pycache`` compiles.
    """
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(int(trace))]
    # run.py imports the checkout's own src; an inherited path must not win over it.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    if pycache is not None:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    metrics = {n: (m["value"], m["unit"]) for n, m in result["metrics"].items()}
    printed = {m.group(1): (float(m.group(2)), m.group(3)) for m in map(_LINE.match, lines[:-1]) if m}
    return {
        "outcome": {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "problems": [line for line in lines if line.startswith("CHECK FAILED")],
        },
        "metrics": metrics,
        "detail": {n: figure for n, figure in printed.items() if n not in metrics},
    }


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}


def record_workload(checkout: Path, workload: str, seconds: float) -> dict:
    runs, traced = [], []
    for _ in range(REPEAT):
        for trace, into in ((False, runs), (True, traced)):
            into.append(run_once(checkout, workload, seconds, trace))
            print(f"{workload} trace {int(trace)}: {into[-1]['metrics']}", file=sys.stderr)

    def summarise(field: str) -> dict:
        return {n: summary([r[field][n][0] for r in runs], unit) for n, (_, unit) in runs[0][field].items()}

    def layer(name: str, unit: str) -> dict:
        values = [r["metrics"][name][0] for r in traced]
        return {"value": statistics.median(values), "unit": unit, "values": values}

    return {
        "seeds": [SEED] * REPEAT,
        "runs": [r["outcome"] for pair in zip(runs, traced) for r in pair],
        "end_to_end": summarise("metrics"),
        "detail": summarise("detail"),
        "layers": {
            "seed": SEED,
            "metrics": {n: layer(n, u) for n, (_, u) in traced[0]["metrics"].items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--checkout", type=Path, default=REPO, help="the checkout to measure (default: this one)")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    record = {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "trees": measured_trees(checkout),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "workloads": {w["name"]: record_workload(checkout, w["name"], seconds) for w in declared["workloads"]},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    runs = [r for w in record["workloads"].values() for r in w["runs"]]
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
