"""IDM platoon integration: safety and coherence invariants."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import MobilityError
from repro.geom import Polyline, Vec2
from repro.mobility.idm import (
    DriverProfile,
    IdmParameters,
    _idm_acceleration,
    simulate_platoon,
)
from repro.mobility.profile import CurvatureSpeedProfile
from repro.mobility.urban import urban_loop


def platoon(n=3, seed=0, duration=120.0, styles=None):
    testbed = urban_loop()
    profile = CurvatureSpeedProfile(
        testbed.track, cruise_speed=5.6, corner_speed=3.2
    )
    base = DriverProfile()
    drivers = [base]
    for i in range(1, n):
        style = (styles or ["timid", "aggressive"])[(i - 1) % 2]
        driver = base.timid() if style == "timid" else base.aggressive()
        drivers.append(replace(driver, speed_factor=1.2))
    return simulate_platoon(
        testbed.track,
        profile,
        drivers,
        duration=duration,
        rng=np.random.default_rng(seed),
        lead_start_arc=testbed.start_arc_length,
    )


class TestSafety:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_no_collisions(self, seed):
        """Front-bumper gaps minus vehicle length stay positive."""
        traces = platoon(seed=seed)
        length = IdmParameters().vehicle_length
        for t in np.arange(0.0, 120.0, 0.5):
            arcs = [trace.arc_length(t) for trace in traces]
            for leader, follower in zip(arcs, arcs[1:]):
                assert leader - follower > length * 0.5

    def test_order_preserved(self):
        traces = platoon(seed=7)
        for t in np.arange(0.0, 120.0, 1.0):
            arcs = [trace.arc_length(t) for trace in traces]
            assert arcs == sorted(arcs, reverse=True)

    def test_speeds_bounded(self):
        traces = platoon(seed=3)
        for trace in traces:
            for t in np.arange(1.0, 119.0, 1.0):
                assert 0.0 <= trace.speed(t) <= 5.6 * 1.2 * 1.5


class TestCoherence:
    def test_platoon_stays_together(self):
        """Followers do not drift away (gap bounded)."""
        traces = platoon(seed=5)
        for t in np.arange(30.0, 120.0, 5.0):
            arcs = [trace.arc_length(t) for trace in traces]
            assert arcs[0] - arcs[-1] < 90.0

    def test_progress_made(self):
        traces = platoon(seed=6)
        leader = traces[0]
        assert leader.arc_length(120.0) - leader.arc_length(0.0) > 400.0

    def test_deterministic_given_rng(self):
        a = platoon(seed=9)[0].arc_length(60.0)
        b = platoon(seed=9)[0].arc_length(60.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = platoon(seed=1)[0].arc_length(60.0)
        b = platoon(seed=2)[0].arc_length(60.0)
        assert a != b


class TestValidation:
    def test_needs_drivers(self):
        testbed = urban_loop()
        profile = CurvatureSpeedProfile(
            testbed.track, cruise_speed=5.0, corner_speed=2.0
        )
        with pytest.raises(MobilityError):
            simulate_platoon(
                testbed.track, profile, [], duration=10.0,
                rng=np.random.default_rng(0),
            )

    def test_positive_duration(self):
        testbed = urban_loop()
        profile = CurvatureSpeedProfile(
            testbed.track, cruise_speed=5.0, corner_speed=2.0
        )
        with pytest.raises(MobilityError):
            simulate_platoon(
                testbed.track, profile, [DriverProfile()], duration=0.0,
                rng=np.random.default_rng(0),
            )

    def test_idm_parameters_positive(self):
        with pytest.raises(MobilityError):
            IdmParameters(max_acceleration=0.0)

    def test_driver_profile_validation(self):
        with pytest.raises(MobilityError):
            DriverProfile(speed_factor=0.0)
        with pytest.raises(MobilityError):
            DriverProfile(acceleration_noise_std=-0.1)


class TestGeometryBundles:
    def test_urban_loop_structure(self):
        testbed = urban_loop(block_width=100.0, block_height=80.0)
        assert testbed.track.closed
        assert testbed.track.length == pytest.approx(360.0)
        assert testbed.ap_position.y < 0  # set back behind the street
        assert len(testbed.buildings) == 1
        assert 0.0 < testbed.start_arc_length < testbed.track.length

    def test_urban_loop_building_blocks_far_street(self):
        testbed = urban_loop()
        building = testbed.buildings[0]
        far_street_point = testbed.track.point_at(
            testbed.start_arc_length
        )  # top edge
        assert building.intersects_segment(testbed.ap_position, far_street_point)

    def test_highway_scenario_structure(self):
        from repro.mobility.highway import highway_scenario

        scenario = highway_scenario(road_length=1000.0, ap_offset=20.0)
        assert not scenario.track.closed
        assert scenario.ap_position.x == pytest.approx(500.0)
        assert scenario.ap_position.y == pytest.approx(20.0)


def reference_target_speed(profile, arc_length):
    """``CurvatureSpeedProfile.target_speed`` as it read every attribute
    per corner."""
    if profile.track.closed:
        s = arc_length % profile.track.length
    else:
        s = min(max(arc_length, 0.0), profile.track.length)
    speed = profile.cruise_speed
    for corner_s, corner_speed in profile._corners:
        distance = abs(s - corner_s)
        if profile.track.closed:
            distance = min(distance, profile.track.length - distance)
        if distance >= profile.transition_distance:
            continue
        blend = 1.0 - distance / profile.transition_distance
        candidate = profile.cruise_speed - (profile.cruise_speed - corner_speed) * blend
        speed = min(speed, candidate)
    return speed


def reference_platoon(profile, drivers, *, duration, rng, dt=0.1,
                      initial_gap=12.0, lead_start_arc=0.0):
    """The integrator as a per-step NumPy loop: one size-n noise draw per
    step, state in 2-D float64 arrays.  Returns (positions, times)."""
    n = len(drivers)
    steps = int(round(duration / dt)) + 1
    positions = np.zeros((n, steps))
    speeds = np.zeros((n, steps))
    for i in range(n):
        positions[i, 0] = lead_start_arc - i * initial_gap
        speeds[i, 0] = (
            reference_target_speed(profile, lead_start_arc) * drivers[i].speed_factor
        )
    noise_std = np.array([d.acceleration_noise_std for d in drivers])
    sqrt_dt = math.sqrt(dt)
    for k in range(1, steps):
        noise = rng.normal(0.0, 1.0, size=n) * noise_std / max(sqrt_dt, 1e-9) * dt
        for i in range(n):
            driver = drivers[i]
            v = speeds[i, k - 1]
            s_here = positions[i, k - 1]
            target = reference_target_speed(profile, s_here) * driver.speed_factor
            if i == 0:
                gap = None
                approach = 0.0
            else:
                gap = (
                    positions[i - 1, k - 1]
                    - s_here
                    - drivers[i - 1].idm.vehicle_length
                )
                approach = v - speeds[i - 1, k - 1]
            accel = _idm_acceleration(driver.idm, v, target, gap, approach)
            v_new = max(v + (accel * dt) + noise[i], 0.0)
            positions[i, k] = s_here + 0.5 * (v + v_new) * dt
            speeds[i, k] = v_new
    return positions, [k * dt for k in range(steps)]


def _driver_mix(name):
    base = DriverProfile()
    if name == "leader":
        return [base]
    if name == "testbed":
        return [base] + [
            replace(d, speed_factor=1.2) for d in (base.timid(), base.aggressive())
        ]
    # Five cars, mixed noise (one noiseless) and speed factors.
    return [
        replace(base, speed_factor=1.03),
        replace(base.aggressive(), speed_factor=1.25, acceleration_noise_std=0.4),
        replace(base.timid(), speed_factor=1.1, acceleration_noise_std=0.0),
        replace(base, speed_factor=1.3),
        replace(base.timid(), speed_factor=1.2, acceleration_noise_std=0.05),
    ]


class TestMatchesPerStepLoop:
    """``simulate_platoon`` draws all its noise in one call and steps
    Python floats; the per-step NumPy loop above is the reference, and
    the trajectories and the generator state after must match it bit for
    bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2008])
    @pytest.mark.parametrize("mix", ["leader", "testbed", "five"])
    @pytest.mark.parametrize(
        "track, duration, dt", [("loop", 85.0, 0.1), ("loop", 0.3, 0.1),
                                ("open", 40.0, 0.05)],
        ids=["loop-85s", "loop-0.3s", "open-40s"],
    )
    def test_bit_identical(self, seed, mix, track, duration, dt):
        if track == "loop":
            testbed = urban_loop()
            road, start = testbed.track, testbed.start_arc_length
            profile = CurvatureSpeedProfile(road, cruise_speed=5.6, corner_speed=3.2)
        else:
            # An open road with one bend: the clamped, unwrapped branch.
            road = Polyline([Vec2(0, 0), Vec2(120, 0), Vec2(120, 150)])
            start = 10.0
            profile = CurvatureSpeedProfile(road, cruise_speed=12.0, corner_speed=4.0)
        drivers = _driver_mix(mix)
        rng = np.random.default_rng(seed)
        twin = copy.deepcopy(rng)

        traces = simulate_platoon(
            road, profile, drivers, duration=duration, rng=rng, dt=dt,
            initial_gap=13.5, lead_start_arc=start,
        )
        positions, times = reference_platoon(
            profile, drivers, duration=duration, rng=twin, dt=dt,
            initial_gap=13.5, lead_start_arc=start,
        )
        assert len(traces) == len(drivers)
        for trace, expected in zip(traces, positions):
            assert trace._times == times
            assert np.array(trace._arcs).tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        # And the stream goes on from the same place.
        assert rng.random() == twin.random()
