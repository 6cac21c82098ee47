"""Steadiness report: each workload run in two sets of seeds.

    python3 perfbench/steadiness.py --runs 10

Runs the benchmark command of ``BENCHMARK.json`` once per seed, set 1 on
seeds 1..N and set 2 on seeds N+1..2N, and prints for every end-to-end
metric each set's median and quartiles, the spread (interquartile range
over median) against the metric's bound, and how far set 2's median moved
from set 1's in the worse direction. The share of failed operations must
be the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0], *spec["command"][1:]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(2):
            results = []
            for seed in range(1 + s * args.runs, 1 + (s + 1) * args.runs):
                result = one_run(spec, workload, seed, spec["run_seconds"], 0)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: checks failed", flush=True)
                    steady = False
                results.append(result)
            sets.append(results)
        print(f"\n{workload}")
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets}
        print(f"  failed share per set: {sorted(shares)}")
        walls = [r["wall_s"] for rs in sets for r in rs]
        print(f"  wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        steady &= len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:<18}"
            medians = []
            for rs in sets:
                values = [r["metrics"][name]["value"] for r in rs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                flag = "" if name == "setup_s" or spread <= bound else " OVER"
                flag += "" if name == "setup_s" or spread <= bound / 3 else " (>1/3)"
                steady &= name == "setup_s" or spread <= bound
                line += f" | median {q2:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f}{flag}"
            worse = (medians[1] - medians[0]) / medians[0] * (1 if metric["better"] == "lower" else -1)
            steady &= worse <= bound
            line += f" | set 2 worse by {worse:+.3f} (bound {bound})"
            print(line, flush=True)
    print("\nSTEADY" if steady else "\nNOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
