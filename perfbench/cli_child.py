"""The fogtrace CLI with its import and store shutdown timed.

    python3 perfbench/cli_child.py STATS_FILE FOGTRACE_ARGS...

Times ``import fogtrace.cli`` (as measured, and at the reference speed of
``common.Speed`` from calibration bursts just before and after it), traces
``CloudStoreHTTPServer.stop``, runs the command and writes the timings to
STATS_FILE as JSON. Exits with the command's exit code; with no command it
only imports, which is cli-trip's set-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter_ns

from common import BURST_REF_S, burst, median, use_program
from tracer import Tracer

SPEED_BURSTS = 21


def main(argv: list[str]) -> int:
    stats_file, args = Path(argv[0]), argv[1:]
    use_program()
    before = median(burst() for _ in range(SPEED_BURSTS))
    t0 = perf_counter_ns()
    from fogtrace import cli

    import_s = (perf_counter_ns() - t0) / 1e9
    after = median(burst() for _ in range(SPEED_BURSTS))
    stats = {"import_s": import_s, "import_ref_s": import_s * 2 * BURST_REF_S / (before + after)}
    tracer = Tracer(keep=0)
    tracer.patch(cli.CloudStoreHTTPServer, "stop", "cli.store_stop")
    try:
        return cli.main(args) if args else 0
    finally:
        t = tracer.totals()
        stats.update(stop_s=t["total_ns"]["cli.store_stop"] / 1e9, stops=t["calls"]["cli.store_stop"])
        stats_file.write_text(json.dumps(stats))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
