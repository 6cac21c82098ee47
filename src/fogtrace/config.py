"""Flat ``key = value`` configuration files, and the one table of their keys.

One format serves every process in the artifact: simulators, gateway, cloud
store and CLI. Lines look like ``gateway.gps_period_ms = 1000``; blank lines
and lines starting with ``#`` are ignored.

``KEYS`` names every key with its type, its default and, where it has one,
its bound. A :class:`Config` parses and checks each value once, when it is
built: an unknown key, a value that does not parse and a value out of
bounds each raise :class:`ConfigError`, whose message starts with the key.
Readers index a ``Config`` by key and get the typed value, or the key's
default when it is unset. A key with ``<id>`` in its name is a pattern:
``cloud.client.gw.secret`` sets ``cloud.client.<id>.secret`` for ``gw``.

The checks that belong to what a value builds stay there: the latency
bounds in ``LatencyModel``, the profile name in
``VehicleSimulator.from_config`` and the scope names in ``CloudStoreService``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Callable, NamedTuple


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """How a key's text parses, its default, and its bound: a test and what it asks."""

    parse: Callable[[str], object]
    default: object
    bound: Callable[[object], bool] | None = None
    says: str = ""


def _int(text: str) -> int:
    return int(text, 0)


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(text)


def _names(text: str) -> frozenset[str]:
    """A comma-separated list of names."""
    return frozenset(name.strip() for name in text.split(",") if name.strip())


_KINDS = {_int: "an integer", float: "a number", _bool: "a boolean"}


def _period(default: float) -> Key:
    # A due time advances by the period on a clock near 1.7e12 ms, where a
    # float's step is about 2.4e-4 ms: a smaller period would never move it.
    return Key(float, default, lambda ms: 1 <= ms < math.inf, "finite and at least 1")


def _limit(default: float) -> Key:
    return Key(float, default, lambda value: 0 < value < math.inf, "finite and above 0")


KEYS: dict[str, Key] = {
    "seed": Key(_int, 42),
    "vehicle.profile": Key(str, "calm"),
    "vehicle.tick_ms": _period(100.0),
    "vehicle.latency.min_ms": Key(float, 50.0),
    "vehicle.latency.mode_ms": Key(float, 80.0),
    "vehicle.latency.max_ms": Key(float, 200.0),
    "gateway.id": Key(str, "gateway-1"),
    "gateway.key_hex": Key(str, None),
    "gateway.key_file": Key(str, None),
    "gateway.overspeed_kmh": _limit(120.0),
    "gateway.hr_limit_bpm": _limit(120.0),
    "gateway.gps_period_ms": _period(1000.0),
    "gateway.retain_plaintext": Key(_bool, True),
    "external.period_ms": _period(30_000.0),
    "cloud.base_url": Key(str, None),
    "cloud.client_id": Key(str, "gateway"),
    "cloud.client_secret": Key(str, "local-dev-secret"),
    # A year at most: the store adds it, in ms, to a float clock.
    "cloud.token_ttl_s": Key(_int, 3600, lambda s: 1 <= s <= 31_536_000, "from 1 to 31536000 (one year)"),
    "cloud.client.<id>.secret": Key(str, None),
    "cloud.client.<id>.scopes": Key(_names, frozenset({"upload", "read"})),
}

_PATTERNS = [(re.compile(re.escape(name).replace("<id>", "[^.]+")), name) for name in KEYS if "<id>" in name]


def _name(key: str) -> str:
    """The name ``key`` has in ``KEYS``: itself, or the pattern it matches."""
    if key in KEYS:
        return key
    for pattern, name in _PATTERNS:
        if pattern.fullmatch(key):
            return name
    raise KeyError(key)


def _checked(key: str, text: str) -> object:
    try:
        spec = KEYS[_name(key)]
    except KeyError:
        raise ConfigError(f"{key}: unknown key") from None
    try:
        value = spec.parse(text)
    except ValueError:
        raise ConfigError(f"{key}: not {_KINDS[spec.parse]}: {text!r}") from None
    if spec.bound is not None and not spec.bound(value):
        raise ConfigError(f"{key}: must be {spec.says}, got {text!r}")
    return value


class Config:
    """Checked, typed values of the keys set; an unset key reads as its default."""

    def __init__(self, values: dict[str, object] | None = None):
        self._values = {key: _checked(key, str(text).strip()) for key, text in (values or {}).items()}

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        values: dict[str, str] = {}
        text = Path(path).read_text(encoding="utf-8")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value
        return cls(values)

    def merged(self, overrides: dict[str, object] | None) -> "Config":
        """This configuration with ``overrides`` set over it, checked like any other."""
        out = Config(overrides)
        out._values = {**self._values, **out._values}
        return out

    def __getitem__(self, key: str):
        """The typed value of ``key``, or its default; a key ``KEYS`` lacks raises ``KeyError``."""
        try:
            return self._values[key]
        except KeyError:
            return KEYS[_name(key)].default

    def ids(self, pattern: str) -> list[str]:
        """The ``<id>`` of each key set that matches ``pattern``, in the order they were set."""
        prefix, _, suffix = pattern.partition("<id>")
        return [key.removeprefix(prefix).removesuffix(suffix) for key in self._values if _name(key) == pattern]
