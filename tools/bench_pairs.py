"""Compare a parent commit with the working tree in alternating benchmark runs.

    python3 tools/bench_pairs.py --parent HEAD --workload obd-bench --pairs 10
    python3 tools/bench_pairs.py --parent HEAD --workload obd-bench --pairs 5 --seed 101

The parent is a ``git archive`` of ``--parent`` unpacked in a temporary
directory. The change is a fresh copy of this checkout's working tree in
that directory: the tracked files with their uncommitted edits, and new
files git does not ignore; deleted files are skipped. Ignored leftovers
in the checkout, such as the ``.perfbench/`` work directory of a killed
run, are therefore not in the copy and cannot skew either side. Each side
keeps its bytecode in its own fresh cache in that directory
(``PYTHONPYCACHEPREFIX``), so neither reads a stale ``__pycache__`` left
in its tree; one untimed warm-up run of the workload per side fills that
cache before pair 1, so no timed run compiles. Each pair runs
``perfbench/run.py --seed N --trace 0`` once on each side, for the
``run_seconds`` of this checkout's ``BENCHMARK.json``, in fresh processes
one after the other; ``--seed`` is 7 unless given, so a claim can be
checked again on a seed of its own. The parent goes first in the even
pairs and the change in the odd ones. For every end-to-end metric it
prints each side's median and quartiles and the pairs the change won,
ties counting for neither, whether the medians differ by more than the
distance between the parent's quartiles, and ``ok`` or ``WORSE``: WORSE
when the change's median is worse than the parent's, in the metric's
``better`` direction, by more than the metric's ``bound`` in
``BENCHMARK.json``, as a fraction of the parent's median. The exit status
is 1 when any run failed a check or an operation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import REPO, SEED, run_once

# Long enough for one operation of every workload, so each side's warm-up
# imports, and compiles, what its timed runs will.
WARM_UP_SECONDS = 2.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def unpack(rev: str, into: Path) -> None:
    """``git archive`` of ``rev`` unpacked into ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def copy_worktree(into: Path) -> None:
    """Copy this checkout's tracked and unignored files, as they are on disk, into ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO,
        capture_output=True,
        check=True,
    ).stdout
    for name in listed.decode().split("\0"):
        source = REPO / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def figure(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def report(declared: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One line per end-to-end metric: both sides' median and quartiles, pairs won, and the bound."""
    header = f"{'metric':<18}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}{'change/parent':>15}"
    lines = [header + "  won  beyond parent IQR  bound"]
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name][0] for r in runs["parent"]]
        change = [r["metrics"][name][0] for r in runs["change"]]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
        sides = [f"{figure(m)} [{figure(q1)}, {figure(q3)}]" for q1, m, q3 in ((pq1, pm, pq3), (cq1, cm, cq3))]
        beyond = "yes" if abs(cm - pm) > pq3 - pq1 else "no"
        worse = cm > pm * (1 + metric["bound"]) if lower else cm < pm * (1 - metric["bound"])
        lines.append(
            f"{name:<18}{sides[0]:>32}{sides[1]:>32}{cm / pm:>15.3f}  {won}/{len(parent)}"
            f"  {beyond:<17} {'WORSE' if worse else 'ok'}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs (default: 10)")
    parser.add_argument("--seed", type=int, default=SEED, help=f"the workload seed of every run (default: {SEED})")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    seconds = declared["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for tree in trees.values():
            tree.mkdir()
        unpack(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        for side, tree in trees.items():
            run_once(tree, args.workload, WARM_UP_SECONDS, False, Path(tmp, f"pycache-{side}"), args.seed)
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], args.workload, seconds, False, Path(tmp, f"pycache-{side}"), args.seed)
                runs[side].append(run)
                figures = {n: round(v, 4) for n, (v, _) in run["metrics"].items()}
                print(f"pair {pair + 1} {side}: {figures}", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} alternating pairs, seed {args.seed}, {seconds} s per run, parent {args.parent}")
    print("\n".join(report(declared["end_to_end"], runs)))
    outcomes = [r["outcome"] for side in runs.values() for r in side]
    bad = [o for o in outcomes if not o["correct"] or o["failed"]]
    for outcome in bad:
        print(f"incorrect or failed run: {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
