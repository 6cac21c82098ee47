from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fogtrace.gateway.alerts import AlertEngine, AlertRule, default_rules
from fogtrace.gateway.records import TraceRow
from oracles import brute_force_alert_count


def bpm_row(t_ms: int, bpm: float) -> TraceRow:
    return TraceRow(t_ms, "polar-1", "bpm", f"{bpm:g}@{t_ms}", "bpm")


def speed_row(t_ms: int, speed: float) -> TraceRow:
    return TraceRow(t_ms, "obd-1", "speed_kmh", f"{speed:g}", "km/h")


def resp_row(t_ms: int, state: str) -> TraceRow:
    return TraceRow(t_ms, "spire-1", "resp_state", f"{state}@{t_ms}", "")


def run_engine(rows) -> list:
    engine = AlertEngine(default_rules())
    events = []
    for row in rows:
        events.extend(engine.observe(row))
    return events


class TestHeartRateRule:
    def test_sustained_high_fires_once(self):
        rows = [bpm_row(t * 1000, 130.0) for t in range(0, 13, 2)]
        events = run_engine(rows)
        assert [e.rule for e in events] == ["hr-high"]
        assert events[0].at == 10_000

    def test_short_episode_no_alert(self):
        rows = [bpm_row(t * 1000, 130.0) for t in range(0, 9, 2)] + [bpm_row(10_000, 80.0)]
        assert run_engine(rows) == []

    def test_two_episodes_two_alerts(self):
        first = [bpm_row(t * 1000, 130.0) for t in range(0, 16, 2)]
        calm = [bpm_row(20_000, 80.0)]
        second = [bpm_row(30_000 + t * 1000, 130.0) for t in range(0, 16, 2)]
        events = run_engine(first + calm + second)
        assert [e.rule for e in events] == ["hr-high", "hr-high"]

    def test_boundary_not_exceeding(self):
        rows = [bpm_row(t * 1000, 120.0) for t in range(0, 60, 2)]
        assert run_engine(rows) == []


class TestOverspeedRule:
    def test_immediate_once_per_episode(self):
        rows = [speed_row(0, 100), speed_row(500, 130), speed_row(1000, 135), speed_row(1500, 90)]
        events = run_engine(rows)
        assert [e.rule for e in events] == ["overspeed"]
        assert events[0].at == 500

    def test_second_episode_fires_again(self):
        rows = [speed_row(0, 130), speed_row(500, 90), speed_row(1000, 130)]
        assert [e.rule for e in run_engine(rows)] == ["overspeed", "overspeed"]


class TestStressRule:
    def test_tension_sustained_30s(self):
        rows = [resp_row(t * 5000, "tension") for t in range(8)]
        events = run_engine(rows)
        assert [e.rule for e in events] == ["stress"]
        assert events[0].at == 30_000

    def test_interrupted_tension_resets(self):
        rows = [resp_row(t * 5000, "tension") for t in range(5)]
        rows.append(resp_row(25_000, "calm"))
        rows.extend(resp_row(30_000 + t * 5000, "tension") for t in range(5))
        assert run_engine(rows) == []


class TestEngineBehaviour:
    def test_interpolated_rows_ignored(self):
        rows = [bpm_row(t * 1000, 130.0) for t in range(0, 13, 2)]
        rows = [TraceRow(r.timestamp_ms, r.source, r.channel, r.value, r.unit, 1) for r in rows]
        assert run_engine(rows) == []

    def test_custom_rule(self):
        rule = AlertRule("cold", "weather_temp_c", lambda v: v < 0.0, 0.0)
        engine = AlertEngine([rule])
        events = engine.observe(TraceRow(5, "weather", "weather_temp_c", "-3.5", "C"))
        assert [e.rule for e in events] == ["cold"]

    def test_rules_on_one_channel_fire_in_rule_order(self):
        rules = [
            AlertRule("fast", "speed_kmh", lambda v: v > 100.0, 0.0),
            AlertRule("hr", "bpm", lambda v: v > 0.0, 0.0),
            AlertRule("moving", "speed_kmh", lambda v: v > 0.0, 0.0),
        ]
        engine = AlertEngine(rules)
        assert [e.rule for e in engine.observe(speed_row(0, 130))] == ["fast", "moving"]
        assert [e.rule for e in engine.observe(speed_row(500, 50))] == []
        assert [e.rule for e in engine.observe(speed_row(1000, 150))] == ["fast"]
        reversed_engine = AlertEngine(rules[::-1])
        assert [e.rule for e in reversed_engine.observe(speed_row(0, 130))] == ["moving", "fast"]


class TestOracleComparison:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=500, max_value=5000),
                st.floats(min_value=60.0, max_value=180.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_episode_count_matches_brute_force(self, deltas):
        t = 0
        samples = []
        for gap, bpm in deltas:
            t += gap
            samples.append((t, round(bpm, 1)))
        engine = AlertEngine(default_rules())
        fired = sum(len(engine.observe(bpm_row(ts, v))) for ts, v in samples)
        assert fired == brute_force_alert_count(samples, 120.0, 10_000.0)

    def test_randomized_long_stream_fixed_seed(self):
        rng = random.Random(1234)
        t = 0
        samples = []
        for _ in range(5000):
            t += rng.randint(500, 3000)
            samples.append((t, rng.uniform(60, 180)))
        engine = AlertEngine(default_rules())
        fired = sum(len(engine.observe(bpm_row(ts, v))) for ts, v in samples)
        expected = brute_force_alert_count(samples, 120.0, 10_000.0)
        assert fired == expected
        assert fired > 0  # the stream is long enough that episodes exist
