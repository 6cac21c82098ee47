"""Threshold alert rules over the live row stream.

Each rule watches one channel and fires once per sustained episode: the
condition must hold continuously for the rule's sustain window, measured
from the first satisfying sample; any sample that breaks the condition
resets the episode. Defaults: heart rate above 120 bpm for 10 s, tension
respiration state for 30 s, and overspeed (immediate, once per episode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .records import TraceRow, scalar_of, state_of


@dataclass(frozen=True)
class AlertEvent:
    at: int
    rule: str
    detail: str


@dataclass(frozen=True)
class AlertRule:
    name: str
    channel: str
    test: Callable[[object], bool]
    sustain_ms: float
    numeric: bool = True


HR_SUSTAIN_MS = 10_000.0
STRESS_SUSTAIN_MS = 30_000.0


def default_rules(hr_limit_bpm: float = 120.0, overspeed_kmh: float = 120.0) -> list[AlertRule]:
    return [
        AlertRule("hr-high", "bpm", lambda v: v > hr_limit_bpm, HR_SUSTAIN_MS),
        AlertRule("stress", "resp_state", lambda v: v == "tension", STRESS_SUSTAIN_MS, numeric=False),
        AlertRule("overspeed", "speed_kmh", lambda v: v > overspeed_kmh, 0.0),
    ]


@dataclass
class _EpisodeState:
    started_at: int | None = None
    fired: bool = False


class AlertEngine:
    def __init__(self, rules: list[AlertRule]):
        self.rules = list(rules)
        self._episodes: dict[str, _EpisodeState] = {r.name: _EpisodeState() for r in self.rules}
        self._watched = frozenset(r.channel for r in self.rules)

    def reset(self) -> None:
        self._episodes = {r.name: _EpisodeState() for r in self.rules}

    def observe(self, row: TraceRow) -> list[AlertEvent]:
        events = []
        if row.channel not in self._watched or row.interpolated:
            return events
        for rule in self.rules:
            if rule.channel != row.channel:
                continue
            value: object
            if rule.numeric:
                value = scalar_of(row.value)
                if value is None:
                    continue
            else:
                value = state_of(row.value)
            episode = self._episodes[rule.name]
            if rule.test(value):
                if episode.started_at is None:
                    episode.started_at = row.timestamp_ms
                held_ms = row.timestamp_ms - episode.started_at
                if not episode.fired and held_ms >= rule.sustain_ms:
                    episode.fired = True
                    events.append(
                        AlertEvent(
                            at=row.timestamp_ms,
                            rule=rule.name,
                            detail=f"{rule.channel}={row.value} held {held_ms / 1000.0:.1f}s",
                        )
                    )
            else:
                episode.started_at = None
                episode.fired = False
        return events
