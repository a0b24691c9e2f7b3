"""TraceSet / VehicleTrace: validation, transformations, mobility bridge."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.geom import Vec2
from repro.mobility.base import TraceMobility
from repro.mobility.static import StaticMobility
from repro.mobility.traceio import TraceSet, VehicleTrace, synth_traces, unit_scale


def vehicle(vid="v", samples=((0.0, 0.0, 0.0), (1.0, 10.0, 0.0))):
    return VehicleTrace.from_samples(vid, samples)


class TestVehicleTraceValidation:
    def test_out_of_order_samples_are_sorted(self):
        trace = vehicle(samples=[(2.0, 20.0, 0.0), (0.0, 0.0, 0.0), (1.0, 10.0, 0.0)])
        assert trace.times == (0.0, 1.0, 2.0)
        assert trace.xs == (0.0, 10.0, 20.0)

    def test_exact_duplicate_samples_merge(self):
        trace = vehicle(samples=[(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 5.0, 0.0)])
        assert trace.times == (0.0, 1.0)

    def test_contradictory_duplicate_timestamps_rejected(self):
        with pytest.raises(TraceFormatError, match="disagree on position"):
            vehicle(samples=[(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)])

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(TraceFormatError, match="no samples"):
            VehicleTrace.from_samples("v", [])
        with pytest.raises(TraceFormatError, match="not finite"):
            vehicle(samples=[(0.0, math.nan, 0.0)])
        with pytest.raises(TraceFormatError, match="not finite"):
            vehicle(samples=[(math.inf, 0.0, 0.0)])

    def test_single_waypoint_vehicle_is_valid(self):
        trace = vehicle(samples=[(3.0, 7.0, 8.0)])
        assert trace.duration == 0.0
        assert trace.position_at(0.0) == (7.0, 8.0)
        assert trace.position_at(99.0) == (7.0, 8.0)

    def test_direct_constructor_rejects_unsorted(self):
        with pytest.raises(TraceFormatError, match="strictly increasing"):
            VehicleTrace("v", (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceFormatError, match="lengths differ"):
            VehicleTrace("v", (0.0, 1.0), (0.0,), (0.0, 0.0))


class TestUnits:
    def test_known_units(self):
        assert unit_scale("m") == 1.0
        assert unit_scale("km") == 1000.0
        assert unit_scale("ft") == pytest.approx(0.3048)

    def test_unknown_unit_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown length unit"):
            unit_scale("furlongs")

    def test_scaled_multiplies_coordinates_only(self):
        trace = vehicle().scaled(1000.0)
        assert trace.xs == (0.0, 10000.0)
        assert trace.times == (0.0, 1.0)

    def test_bad_scale_rejected(self):
        with pytest.raises(TraceFormatError):
            vehicle().scaled(0.0)
        with pytest.raises(TraceFormatError):
            vehicle().scaled(-2.0)


class TestTraceSet:
    def test_sorted_vehicle_order(self):
        ts = TraceSet([vehicle("b"), vehicle("a"), vehicle("c")])
        assert ts.vehicle_ids == ["a", "b", "c"]

    def test_duplicate_vehicle_ids_rejected(self):
        with pytest.raises(TraceFormatError, match="duplicate vehicle id"):
            TraceSet([vehicle("a"), vehicle("a")])

    def test_empty_rejected(self):
        with pytest.raises(TraceFormatError, match="at least one vehicle"):
            TraceSet([])

    def test_rebased_starts_at_zero(self):
        ts = TraceSet(
            [
                vehicle("a", [(5.0, 0.0, 0.0), (6.0, 1.0, 0.0)]),
                vehicle("b", [(7.0, 0.0, 0.0), (9.0, 1.0, 0.0)]),
            ]
        ).rebased()
        assert ts.start_time == 0.0
        assert ts["b"].times == (2.0, 4.0)

    def test_bounds_and_summary(self):
        ts = TraceSet([vehicle("a", [(0.0, -5.0, 2.0), (1.0, 5.0, -2.0)])])
        assert ts.bounds() == (-5.0, -2.0, 5.0, 2.0)
        summary = ts.summary()
        assert summary["vehicles"] == 1
        assert summary["samples"] == 2


class TestCrop:
    def make(self):
        return TraceSet(
            [
                vehicle(
                    "a",
                    [(float(t), 10.0 * t, 0.0) for t in range(11)],
                ),
                vehicle("b", [(0.0, -50.0, 0.0), (1.0, -40.0, 0.0)]),
            ]
        )

    def test_time_window(self):
        ts = self.make().cropped(t_min=2.0, t_max=5.0)
        assert ts.vehicle_ids == ["a"]  # b has no samples in the window
        assert ts["a"].times == (2.0, 3.0, 4.0, 5.0)

    def test_bbox_keeps_longest_contiguous_run(self):
        # a zig-zag: inside, outside, inside-longer
        trace = vehicle(
            "z",
            [
                (0.0, 0.0, 0.0),
                (1.0, 1.0, 0.0),
                (2.0, 100.0, 0.0),  # outside
                (3.0, 2.0, 0.0),
                (4.0, 3.0, 0.0),
                (5.0, 4.0, 0.0),
            ],
        )
        ts = TraceSet([trace]).cropped(x_max=50.0)
        assert ts["z"].times == (3.0, 4.0, 5.0)  # no teleport across the gap

    def test_crop_to_nothing_rejected(self):
        with pytest.raises(TraceFormatError, match="no vehicle survived"):
            self.make().cropped(t_min=100.0)


class TestResample:
    def test_on_grid_resample_is_identity(self):
        ts = synth_traces(vehicles=4, duration_s=30.0, tick_s=1.0, seed=3)
        assert ts.resampled(1.0) == ts

    def test_downsample_halves_samples(self):
        trace = vehicle("a", [(float(t), float(t), 0.0) for t in range(11)])
        down = trace.resampled(2.0)
        assert down.times == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
        assert down.xs == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)

    def test_upsample_interpolates_linearly(self):
        trace = vehicle("a", [(0.0, 0.0, 0.0), (2.0, 10.0, 4.0)])
        up = trace.resampled(1.0)
        assert up.times == (0.0, 1.0, 2.0)
        assert up.xs[1] == pytest.approx(5.0)
        assert up.ys[1] == pytest.approx(2.0)

    def test_bad_tick_rejected(self):
        with pytest.raises(TraceFormatError, match="tick must be positive"):
            vehicle().resampled(0.0)

    def test_short_lived_vehicle_degrades_to_first_sample(self):
        trace = vehicle("a", [(0.3, 1.0, 2.0), (0.4, 2.0, 2.0)])
        down = trace.resampled(10.0, origin=0.05)
        assert len(down.times) == 1
        assert (down.xs[0], down.ys[0]) == (1.0, 2.0)

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=100),
        length=st.integers(min_value=2, max_value=25),
        tick=st.sampled_from([0.25, 0.5, 1.0]),
        data=st.data(),
    )
    def test_round_trip_on_grid(self, start, length, tick, data):
        """A trace occupying every instant of a tick grid resamples to
        itself, bit-exactly (interpolation weight 0 at exact samples)."""
        grid_times = [(start + k) * tick for k in range(length)]
        samples = [
            (
                t,
                data.draw(st.floats(-1e4, 1e4, allow_nan=False)),
                data.draw(st.floats(-1e4, 1e4, allow_nan=False)),
            )
            for t in grid_times
        ]
        trace = VehicleTrace.from_samples("h", samples)
        again = trace.resampled(tick)
        assert again == trace


class TestMobilityBridge:
    def test_moving_vehicles_share_one_scene_track(self):
        ts = synth_traces(vehicles=6, duration_s=40.0, seed=11)
        models = ts.to_mobility()
        keys = {m.batch_key() for m in models.values()}
        assert len(keys) == 1
        assert all(isinstance(m, TraceMobility) for m in models.values())

    def test_scalar_and_batch_positions_bit_identical(self):
        ts = synth_traces(vehicles=8, duration_s=50.0, seed=5)
        models = list(ts.to_mobility().values())
        for t in (0.0, 7.3, 25.0, 49.0, 120.0):
            xs, ys = TraceMobility.positions_at_time(models, t)
            for i, model in enumerate(models):
                pos = model.position(t)
                assert pos.x == xs[i] and pos.y == ys[i]

    def test_positions_match_trace_interpolation(self):
        ts = synth_traces(vehicles=3, duration_s=30.0, seed=2)
        models = ts.to_mobility()
        for trace in ts:
            model = models[trace.vehicle_id]
            for t in trace.times:
                pos = model.position(t)
                x, y = trace.position_at(t)
                assert pos.x == pytest.approx(x, abs=1e-9)
                assert pos.y == pytest.approx(y, abs=1e-9)

    def test_single_waypoint_vehicle_becomes_static(self):
        ts = TraceSet(
            [
                vehicle("still", [(0.0, 5.0, 6.0)]),
                vehicle("move", [(0.0, 0.0, 0.0), (1.0, 10.0, 0.0)]),
            ]
        )
        models = ts.to_mobility()
        assert isinstance(models["still"], StaticMobility)
        assert models["still"].position(3.0) == Vec2(5.0, 6.0)
        assert isinstance(models["move"], TraceMobility)

    def test_stationary_vehicle_becomes_static(self):
        ts = TraceSet(
            [vehicle("parked", [(0.0, 1.0, 1.0), (5.0, 1.0, 1.0), (9.0, 1.0, 1.0)])]
        )
        assert isinstance(ts.to_mobility()["parked"], StaticMobility)

    def test_dwell_produces_arc_plateau_not_zero_segment(self):
        # moving, parked for a while, then moving again
        ts = TraceSet(
            [
                vehicle(
                    "d",
                    [
                        (0.0, 0.0, 0.0),
                        (1.0, 10.0, 0.0),
                        (2.0, 10.0, 0.0),
                        (3.0, 10.0, 0.0),
                        (4.0, 20.0, 0.0),
                    ],
                )
            ]
        )
        model = ts.to_mobility()["d"]
        assert model.position(1.5) == Vec2(10.0, 0.0)
        assert model.position(2.9) == Vec2(10.0, 0.0)
        assert model.position(3.5).x == pytest.approx(15.0)

    def test_all_static_set_has_no_track(self):
        ts = TraceSet([vehicle("s1", [(0.0, 1.0, 2.0)]), vehicle("s2", [(0.0, 3.0, 4.0)])])
        models = ts.to_mobility()
        assert all(isinstance(m, StaticMobility) for m in models.values())


class TestSynth:
    def test_deterministic_for_seed_and_params(self):
        a = synth_traces(vehicles=5, duration_s=40.0, seed=9)
        b = synth_traces(vehicles=5, duration_s=40.0, seed=9)
        assert a == b
        c = synth_traces(vehicles=5, duration_s=40.0, seed=10)
        assert a != c

    def test_vehicles_enter_staggered_and_leave_the_road(self):
        ts = synth_traces(
            vehicles=4, duration_s=200.0, seed=1, road_length_m=400.0, entry_gap_s=5.0
        )
        starts = [ts[f"veh{i}"].start_time for i in range(4)]
        assert starts == [0.0, 5.0, 10.0, 15.0]
        # a 400 m road at ~20 m/s is left long before 200 s
        assert all(t.end_time < 60.0 for t in ts)

    def test_parameter_validation(self):
        with pytest.raises(TraceFormatError):
            synth_traces(vehicles=0)
        with pytest.raises(TraceFormatError):
            synth_traces(duration_s=-1.0)
        with pytest.raises(TraceFormatError):
            synth_traces(speed_jitter=1.5)
