"""fogtrace benchmark: four workloads, each run in its own process.

    python3 perfbench/run.py --workload trip-hour --seed 7 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (plus the tracing overhead). ``--quick`` runs a
small form of the workload with the same checks, in seconds.
``--record-golden`` rewrites ``golden.json``, the CSV sha256 of each
workload for seeds 7, 101 and 303, after a change that is meant to alter
trace content. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import shutil
import sys

import common

WORKLOADS = ("trip-hour", "obd-bench", "store-mix", "cli-trip")
GOLDEN_SEEDS = (7, 101, 303)


def _module(workload: str):
    """The workload's module; only it is imported, so memory is its own."""
    return importlib.import_module(workload.replace("-", "_"))


def record_golden() -> None:
    golden: dict = {}
    work = common.WORK / f"golden-{os.getpid()}"
    try:
        for mode in ("full", "quick"):
            for workload in WORKLOADS:
                shas = golden.setdefault(mode, {}).setdefault(workload, {})
                for seed in GOLDEN_SEEDS:
                    shas[str(seed)] = _module(workload).content_sha(seed, mode == "quick", work)
                    print(f"{mode} {workload} seed {seed}: {shas[str(seed)]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    common.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, same checks")
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)

    common.use_program()
    # Injected outages make the poller log every drop; keep stderr readable.
    logging.getLogger("fogtrace").setLevel(logging.ERROR)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = common.WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = _module(args.workload).run(args.seed, args.seconds, bool(args.trace), args.quick, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        outcome.metrics.setdefault("peak_rss_mb", (common.peak_rss_mb(), "MB"))
    elif outcome.tracer is not None:
        spans = common.WORK / "spans" / f"{args.workload}-seed{args.seed}.csv"
        print(f"  {outcome.tracer.write_spans(spans)} spans written to {spans.relative_to(common.ROOT)}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in {**outcome.detail, **outcome.metrics}.items():
        print(f"  {name:<28} {value:>14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in outcome.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
