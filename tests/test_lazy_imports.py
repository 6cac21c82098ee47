"""What importing the CLI and the gateway package loads, each in a fresh interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fogtrace

SRC = str(Path(fogtrace.__file__).resolve().parent.parent)


def _probe(code: str):
    """Run ``code`` in a fresh interpreter that prints one JSON value; return that value."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _loaded_after(statement: str, modules: tuple[str, ...]) -> list[str]:
    return _probe(f"import json, sys; {statement}; print(json.dumps([m for m in {modules!r} if m in sys.modules]))")


def test_cli_import_loads_no_command_modules():
    unused = ("fogtrace.vehicle", "fogtrace.wearables", "fogtrace.external", "fogtrace.bench", "fogtrace.gateway.runner")
    assert _loaded_after("import fogtrace.cli", unused) == []


@pytest.mark.parametrize("submodule", ["records", "envelope"])
def test_gateway_submodule_loads_alone(submodule):
    others = ("fogtrace.gateway.session", "fogtrace.gateway.runner", "fogtrace.gateway.uploader")
    assert _loaded_after(f"import fogtrace.gateway.{submodule}", others) == []


def test_star_import_binds_every_exported_name():
    unbound = _probe(
        "import json; from fogtrace.gateway import *; import fogtrace.gateway as g; "
        "print(json.dumps([n for n in g.__all__ if globals().get(n) is not getattr(g, n)]))"
    )
    assert unbound == []


def test_unknown_name_raises_attribute_error():
    raised = _probe(
        "import json, fogtrace.gateway as g\n"
        "try:\n    g.no_such_name\nexcept Exception as exc:\n    print(json.dumps([type(exc).__name__, str(exc)]))"
    )
    assert raised == ["AttributeError", "module 'fogtrace.gateway' has no attribute 'no_such_name'"]
