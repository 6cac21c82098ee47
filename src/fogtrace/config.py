"""Flat ``key = value`` configuration files.

One format serves every process in the artifact: simulators, gateway, cloud
store and CLI. Lines look like ``gateway.gps_period_ms = 1000``; blank lines
and lines starting with ``#`` are ignored. Values stay strings until read
through a typed getter, so unknown keys are carried along untouched.
"""

from __future__ import annotations

from pathlib import Path

DEFAULT_SEED = 42

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class ConfigError(ValueError):
    pass


class Config:
    def __init__(self, values: dict[str, str] | None = None):
        self._values: dict[str, str] = dict(values or {})

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
            values[key.strip()] = value.strip()
        return cls(values)

    def merged(self, overrides: dict[str, str] | None) -> "Config":
        out = dict(self._values)
        out.update({k: str(v) for k, v in (overrides or {}).items()})
        return Config(out)

    def as_dict(self) -> dict[str, str]:
        return dict(self._values)

    @property
    def seed(self) -> int:
        """The master seed for every generator."""
        return self.get_int("seed", DEFAULT_SEED)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._values.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            return int(raw, 0)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {raw!r}") from exc

    def get_float(self, key: str, default: float) -> float:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {raw!r}") from exc

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self._values.get(key)
        if raw is None:
            return default
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{key}: not a boolean: {raw!r}")
