from __future__ import annotations

import statistics

import pytest

from fogtrace.wearables import (
    AlreadySubscribedError,
    DeviceLockedError,
    MiBand,
    NotPairedError,
    PhysioModel,
    Polar,
    Spire,
    respiration_state,
)


def paired(device):
    device.pair("gw-1")
    return device


@pytest.mark.parametrize("cls,default_id", [(MiBand, "miband-1"), (Polar, "polar-1"), (Spire, "spire-1")])
def test_default_id_draws_as_the_explicit_one(cls, default_id):
    implicit, explicit = cls(seed=5), cls(default_id, PhysioModel(), 5)
    assert implicit.device_id == default_id
    assert implicit._rng.random() == explicit._rng.random()


class TestPairingLock:
    def test_fresh_pair_locks(self):
        device = MiBand()
        device.pair("gw-1")
        assert device.locked_to == "gw-1"

    def test_foreign_pair_rejected(self):
        device = paired(MiBand())
        with pytest.raises(DeviceLockedError):
            device.pair("gw-2")

    def test_owner_repair_idempotent(self):
        device = paired(MiBand())
        device.pair("gw-1")
        assert device.locked_to == "gw-1"


class TestMiBand:
    def test_polls_within_window_return_cached(self):
        device = paired(MiBand(seed=1))
        first = device.poll(0.0)
        second = device.poll(1000.0)
        assert second.measured_at == first.measured_at

    def test_polls_after_window_are_fresh(self):
        device = paired(MiBand(seed=1))
        first = device.poll(0.0)
        later = device.poll(11_000.0)
        assert later.measured_at != first.measured_at

    def test_unpaired_poll_rejected(self):
        with pytest.raises(NotPairedError):
            MiBand().poll(0.0)

    def test_fresh_value_cadence_over_five_minutes(self):
        device = paired(MiBand(seed=2))
        distinct = set()
        t = 0.0
        while t <= 300_000.0:
            distinct.add(device.poll(t).measured_at)
            t += 1000.0
        assert len(distinct) <= 31


class TestPolar:
    def test_sample_count_over_60s(self):
        device = paired(Polar(seed=1))
        stream = device.subscribe(0.0)
        count = 0
        while stream.next_due_ms <= 60_000.0:
            stream.take()
            count += 1
        assert abs(count - 30) <= 1

    def test_rr_consistency_invariant(self):
        device = paired(Polar(seed=3))
        stream = device.subscribe(0.0)
        for _ in range(200):
            sample = stream.take()
            assert 1 <= len(sample.rr_intervals_ms) <= 4
            mean_rr = sum(sample.rr_intervals_ms) / len(sample.rr_intervals_ms)
            assert abs(sample.bpm - 60_000.0 / mean_rr) / sample.bpm <= 0.02
            assert all(250.0 <= rr <= 2000.0 for rr in sample.rr_intervals_ms)

    def test_double_subscribe_rejected(self):
        device = paired(Polar())
        device.subscribe(0.0)
        with pytest.raises(AlreadySubscribedError):
            device.subscribe(0.0)

    def test_resubscribe_after_close(self):
        device = paired(Polar())
        stream = device.subscribe(0.0)
        stream.close()
        device.subscribe(0.0)

    def test_unpaired_subscribe_rejected(self):
        with pytest.raises(NotPairedError):
            Polar().subscribe(0.0)

    def test_measured_at_strictly_increasing(self):
        device = paired(Polar(seed=4))
        stream = device.subscribe(0.0)
        stamps = [stream.take().measured_at for _ in range(300)]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))


class TestSpire:
    def test_sample_count_over_60s(self):
        device = paired(Spire(seed=1))
        stream = device.subscribe(0.0)
        count = 0
        while stream.next_due_ms <= 60_000.0:
            stream.take()
            count += 1
        assert abs(count - 12) <= 1

    def test_state_always_derived_from_breaths(self):
        device = paired(Spire(seed=2))
        stream = device.subscribe(0.0)
        for _ in range(100):
            sample = stream.take()
            assert sample.state == respiration_state(sample.breaths_per_min)


class TestRespirationBands:
    @pytest.mark.parametrize(
        "breaths,state",
        [
            (25.0, "tension"),
            (20.1, "tension"),
            (20.0, "neutral"),
            (17.0, "neutral"),
            (16.0, "focus"),
            (12.0, "focus"),
            (11.9, "calm"),
            (5.0, "calm"),
        ],
    )
    def test_bands(self, breaths, state):
        assert respiration_state(breaths) == state


class TestPhysioModel:
    def test_zero_acceleration_fixed_point(self):
        import random

        model = PhysioModel()
        rng = random.Random(0)
        for _ in range(600):
            model.update(0.0, 1000.0)
        assert model.stress == pytest.approx(0.0)
        bpms = [model.bpm(rng) for _ in range(500)]
        breaths = [model.breaths_per_min(rng) for _ in range(500)]
        assert statistics.fmean(bpms) == pytest.approx(70.0, abs=1.0)
        assert statistics.fmean(breaths) == pytest.approx(14.0, abs=0.5)

    def test_full_stress_plateau(self):
        import random

        model = PhysioModel()
        rng = random.Random(0)
        for _ in range(600):
            model.update(10.0, 1000.0)  # saturates the normalized input
        assert model.stress == pytest.approx(1.0, abs=1e-3)
        bpms = [model.bpm(rng) for _ in range(500)]
        assert statistics.fmean(bpms) == pytest.approx(95.0, abs=1.0)

    def test_same_seed_identical_streams(self):
        def collect():
            physio = PhysioModel()
            device = paired(Polar("p", physio, seed=9))
            stream = device.subscribe(0.0)
            return [stream.take() for _ in range(50)]

        assert collect() == collect()


class TestHousekeeping:
    def test_erase_clears_buffer(self):
        device = paired(Polar(seed=1))
        stream = device.subscribe(0.0)
        for _ in range(5):
            stream.take()
        assert len(device.buffer) == 5
        assert device.erase() == 5
        assert len(device.buffer) == 0
