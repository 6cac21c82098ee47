"""The trace bytes of seeded trips are pinned.

Each case runs a fully wired ``SessionRunner`` (in-process OBD link,
three wearables, GPS, traffic and weather) for 300 s on the simulated
clock without uploading, and compares the CSV sha256 with the value
recorded before the hot path was optimised. Any change to the vehicle
model, the codec, the latency-draw order, ingest, gap filling or CSV
rendering that alters a single byte fails here.

One case runs again over the served wiring of ``--clock real`` (the
vehicle over loopback TCP, the context over HTTP), still on the simulated
clock, and must give the same bytes without reading the wall clock.
"""

from __future__ import annotations

import contextlib

import pytest

from fogtrace.cli import _wire
from fogtrace.external import HttpProvider
from fogtrace.gateway.records import sha256_hex
from fogtrace.vehicle import TcpObdLink

DURATION_S = 300.0

GOLDEN_SHA256 = {
    ("calm", 7): "4b611ad74dda198aa6f19d4556b4bd5a7ba9a847b3374860f3e2a5ec82999dd3",
    ("calm", 101): "1cd33d24affa31aba24acc60452f45a4383c11cbd45244e39feef6e356298ee4",
    ("calm", 303): "6527f23e65ef1e97662b537c2cc711386ce1fbb741a2075ea2cb7dddd3c8fc1d",
    ("aggressive", 7): "bc67c341c5793dbbf9ccec3fb9dde6172f19d810ea363ce1a9e66f66b357d6ac",
    ("aggressive", 101): "2bce994eb1b0a0fcd84ad3835433ad46705fd3760265edbfb2b359b67d9cf1e0",
    ("aggressive", 303): "7eafaa9e29607e9a732e2c979d4a28d7c4791d02acff13ec397311cdb0e30a80",
}


@pytest.mark.parametrize("profile,seed", sorted(GOLDEN_SHA256))
def test_trace_bytes_are_pinned(pipeline_factory, profile, seed):
    runner = pipeline_factory(profile=profile, seed=seed)
    result = runner.run("driver-1", "vehicle-1", DURATION_S, upload=False)
    assert result.manifest.csv_sha256 == sha256_hex(result.csv_bytes)
    assert result.manifest.csv_sha256 == GOLDEN_SHA256[profile, seed]


def test_served_wiring_on_the_simulated_clock_gives_the_pinned_bytes(pipeline_factory, no_wall_clock):
    profile, seed = "aggressive", 7
    runner = pipeline_factory(profile=profile, seed=seed)
    with contextlib.ExitStack() as stack:
        link_factory, runner.traffic, runner.weather = _wire(True, runner.clock, runner.simulator, stack, seed)
        links = []
        runner.obd_link_factory = lambda: links.append(link_factory()) or links[-1]
        result = runner.run("driver-1", "vehicle-1", DURATION_S, upload=False)
    assert [type(link) for link in links] == [TcpObdLink]
    assert isinstance(runner.traffic.provider, HttpProvider)
    assert isinstance(runner.weather.provider, HttpProvider)
    assert result.manifest.csv_sha256 == GOLDEN_SHA256[profile, seed]
