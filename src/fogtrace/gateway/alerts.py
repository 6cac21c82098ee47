"""Threshold alert rules over the live row stream.

Each rule watches one channel and fires once per sustained episode: the
condition must hold continuously for the rule's sustain window, measured
from the first satisfying sample; any sample that breaks the condition
resets the episode. Defaults: heart rate above 120 bpm for 10 s, tension
respiration state for 30 s, and overspeed (immediate, once per episode).

A rule's test sees the value as its channel reads: the number before any
``@<device_ms>`` on a channel of ``NUMERIC_CHANNELS``, where a value that
is not a number is skipped, and the state string on any other channel.

With these defaults only overspeed fires on the built-in drive profiles:
the simulated heart rate stays below about 100 bpm, and neither profile
holds the driver in tension for 30 s. ``gateway.hr_limit_bpm`` and a
stop-go profile reach the other two (see ``tests/test_fault_corpus.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import KEYS
from .records import NUMERIC_CHANNELS, TraceRow, scalar_of, state_of


@dataclass(frozen=True)
class AlertEvent:
    at: int
    rule: str


@dataclass(frozen=True)
class AlertRule:
    name: str
    channel: str
    test: Callable[[object], bool]
    sustain_ms: float


HR_SUSTAIN_MS = 10_000.0
STRESS_SUSTAIN_MS = 30_000.0


def default_rules(
    hr_limit_bpm: float = KEYS["gateway.hr_limit_bpm"].default,
    overspeed_kmh: float = KEYS["gateway.overspeed_kmh"].default,
) -> list[AlertRule]:
    return [
        AlertRule("hr-high", "bpm", lambda v: v > hr_limit_bpm, HR_SUSTAIN_MS),
        AlertRule("stress", "resp_state", lambda v: v == "tension", STRESS_SUSTAIN_MS),
        AlertRule("overspeed", "speed_kmh", lambda v: v > overspeed_kmh, 0.0),
    ]


@dataclass
class _EpisodeState:
    started_at: int | None = None
    fired: bool = False


class AlertEngine:
    def __init__(self, rules: list[AlertRule]):
        episodes = {r.name: _EpisodeState() for r in rules}
        # Each watched channel: how its values read, and its rules in the
        # order given, each with the episode of its name.
        self._watch: dict[str, tuple[Callable[[str], object], list[tuple[AlertRule, _EpisodeState]]]] = {}
        for rule in rules:
            read = scalar_of if rule.channel in NUMERIC_CHANNELS else state_of
            self._watch.setdefault(rule.channel, (read, []))[1].append((rule, episodes[rule.name]))
        # A row of any other channel never fires a rule.
        self.channels = frozenset(self._watch)

    def observe(self, row: TraceRow) -> list[AlertEvent]:
        events = []
        watch = self._watch.get(row.channel)
        if watch is None or row.interpolated:
            return events
        read, rules = watch
        value = read(row.value)
        if value is None:
            return events
        for rule, episode in rules:
            if rule.test(value):
                if episode.started_at is None:
                    episode.started_at = row.timestamp_ms
                held_ms = row.timestamp_ms - episode.started_at
                if not episode.fired and held_ms >= rule.sustain_ms:
                    episode.fired = True
                    events.append(AlertEvent(at=row.timestamp_ms, rule=rule.name))
            else:
                episode.started_at = None
                episode.fired = False
        return events
