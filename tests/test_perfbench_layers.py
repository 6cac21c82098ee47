"""The benchmark's per-layer tracing must still find every function it wraps.

``perfbench/layers.py`` patches fogtrace functions by attribute name; a
rename in ``src/fogtrace`` would otherwise surface only when the benchmark
runs. The probe records each patch instead of wrapping anything.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


class _Probe:
    def __init__(self):
        self.patched: list[str] = []

    def patch(self, owner, attr, name, on_result=None):
        assert hasattr(owner, attr), f"{owner!r} has no attribute {attr!r} (span {name!r})"
        self.patched.append(attr)


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    probe = _Probe()
    layers.install_gateway(probe)
    layers.install_store(probe)
    assert probe.patched
