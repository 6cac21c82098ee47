"""``tools/opcount.py`` counts the same bytecodes in every fresh process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "opcount.py"


def _count(duration_s: str) -> dict:
    # The tool puts its own checkout's src first; nothing inherited decides what it imports.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    done = subprocess.run(
        [sys.executable, str(TOOL), "--duration", duration_s], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_two_fresh_processes_count_the_same():
    first, second = _count("30"), _count("30")
    assert first == second
    assert sorted(first) == ["obd_bench", "trip"]
    for counted in first.values():
        assert counted["total"] == sum(counted["modules"].values()) == sum(counted["functions"].values())
        assert all(not module.startswith("..") for module in counted["modules"])
    # The trip, the parse and the validation are all counted, and nothing outside src/fogtrace is.
    trip = first["trip"]["functions"]
    for name in ("vehicle.py:step", "gateway/session.py:Session.ingest", "gateway/records.py:validate_rows"):
        assert trip[name] > 0
    # The bench polls the vehicle through the codec, with no session.
    bench = first["obd_bench"]["functions"]
    for name in ("bench.py:run_obd_bench", "vehicle.py:InProcessObdLink.transact", "obd.py:parse_response"):
        assert bench[name] > 0
    assert not any(name.startswith("gateway/") for name in bench)
