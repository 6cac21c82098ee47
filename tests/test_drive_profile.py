"""A drive profile refuses, when it is built, a script the simulator cannot drive."""

from __future__ import annotations

import math

import pytest

from fogtrace.vehicle import PROFILES, DriveProfile, VehicleState, step


def test_an_empty_script_is_refused():
    # Accepted before, and every tick then raised ZeroDivisionError (float modulo).
    with pytest.raises(ValueError, match="at least one segment"):
        DriveProfile("x", (), 1.5)


@pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5])
def test_an_acceleration_limit_that_is_not_finite_and_above_zero_is_refused(limit):
    # NaN or inf reached any target in one tick; 0 or below never moved the car.
    with pytest.raises(ValueError, match="accel_limit_mps2"):
        DriveProfile("x", ((10, 50),), limit)


@pytest.mark.parametrize("duration", [math.nan, 0, -1.0])
def test_a_segment_duration_that_is_not_above_zero_is_refused(duration):
    with pytest.raises(ValueError, match="segment durations"):
        DriveProfile("x", ((duration, 50),), 1.5)


@pytest.mark.parametrize("target", [math.nan, -1.0, 256.0])
def test_a_target_outside_the_speed_byte_is_refused(target):
    with pytest.raises(ValueError, match="target speeds"):
        DriveProfile("x", ((10, target),), 1.5)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_the_shipped_profiles_drive(name):
    profile = PROFILES[name]
    state = VehicleState()
    for _ in range(600):
        state = VehicleState._make(step(state, profile, 100.0))
    assert state.speed_kmh > 0.0
    assert state.odometer_m > 0.0


def test_the_smallest_valid_script_drives_toward_its_target():
    profile = DriveProfile("x", ((1, 10),), 0.5)
    state = VehicleState._make(step(VehicleState(), profile, 1000.0))
    assert state.speed_kmh == pytest.approx(0.5 * 3.6)
