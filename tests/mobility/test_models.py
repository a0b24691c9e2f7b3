"""Static, path and trace mobility models."""

import pytest

from repro.errors import MobilityError
from repro.geom import Polyline, Vec2
from repro.mobility.base import MobilityModel, TraceMobility
from repro.mobility.path import PathMobility
from repro.mobility.static import StaticMobility


class TestStatic:
    def test_position_constant(self):
        model = StaticMobility(Vec2(3, 4))
        assert model.position(0.0) == Vec2(3, 4)
        assert model.position(1e6) == Vec2(3, 4)

    def test_speed_zero(self):
        assert StaticMobility(Vec2(0, 0)).speed(5.0) == 0.0

    def test_max_speed_zero(self):
        assert StaticMobility(Vec2(0, 0)).max_speed_ms() == 0.0


class TestPathMobility:
    @pytest.fixture
    def straight(self):
        return Polyline.straight(100.0)

    def test_constant_speed_motion(self, straight):
        model = PathMobility(straight, 10.0)
        assert model.position(0.0) == Vec2(0, 0)
        assert model.position(5.0) == Vec2(50, 0)

    def test_parks_at_end_of_open_track(self, straight):
        model = PathMobility(straight, 10.0)
        assert model.position(100.0) == Vec2(100, 0)
        assert model.speed(100.0) == 0.0

    def test_start_time_delays_motion(self, straight):
        model = PathMobility(straight, 10.0, start_time=2.0)
        assert model.position(1.0) == Vec2(0, 0)
        assert model.speed(1.0) == 0.0
        assert model.position(3.0) == Vec2(10, 0)

    def test_loops_on_closed_track(self):
        loop = Polyline.rectangle(40.0, 10.0)
        model = PathMobility(loop, 10.0)
        assert model.position(0.0) == model.position(loop.length / 10.0)

    def test_speed_positive_required(self, straight):
        with pytest.raises(MobilityError):
            PathMobility(straight, 0.0)

    def test_max_speed_is_the_constant_speed(self, straight):
        assert PathMobility(straight, 12.5, start_time=3.0).max_speed_ms() == 12.5

    def test_start_arc_offset(self, straight):
        model = PathMobility(straight, 10.0, start_arc_length=30.0)
        assert model.position(0.0) == Vec2(30, 0)


class TestTraceMobility:
    @pytest.fixture
    def track(self):
        return Polyline.straight(1000.0)

    def test_linear_interpolation(self, track):
        trace = TraceMobility(track, [0.0, 10.0], [0.0, 100.0])
        assert trace.arc_length(5.0) == pytest.approx(50.0)
        assert trace.position(5.0) == Vec2(50, 0)

    def test_clamps_before_and_after(self, track):
        trace = TraceMobility(track, [1.0, 2.0], [10.0, 20.0])
        assert trace.arc_length(0.0) == 10.0
        assert trace.arc_length(99.0) == 20.0

    def test_speed_from_samples(self, track):
        trace = TraceMobility(track, [0.0, 10.0], [0.0, 100.0])
        assert trace.speed(5.0) == pytest.approx(10.0, rel=0.01)

    def test_max_speed_is_the_fastest_leg(self, track):
        # Legs at 10, 40 and 5 m/s; the parked tails do not count.
        trace = TraceMobility(
            track, [0.0, 1.0, 1.5, 3.5], [0.0, 10.0, 30.0, 40.0]
        )
        assert trace.max_speed_ms() == 40.0

    def test_validation(self, track):
        with pytest.raises(MobilityError):
            TraceMobility(track, [0.0], [0.0])
        with pytest.raises(MobilityError):
            TraceMobility(track, [0.0, 0.0], [0.0, 1.0])
        with pytest.raises(MobilityError):
            TraceMobility(track, [0.0, 1.0], [0.0])

    def test_duration(self, track):
        trace = TraceMobility(track, [0.0, 7.5], [0.0, 10.0])
        assert trace.duration == 7.5

    def test_wraps_loop_arc_lengths(self):
        loop = Polyline.rectangle(40.0, 10.0)
        trace = TraceMobility(loop, [0.0, 10.0], [90.0, 110.0])
        # Unwrapped arc 110 on a 100 m loop = position at arc 10.
        assert trace.position(10.0) == loop.point_at(10.0)


def test_base_model_top_speed_unknown():
    class Hover(MobilityModel):
        __slots__ = ()

        def position(self, time):
            return Vec2(0, 0)

    assert Hover().max_speed_ms() is None


class TestBatchPositions:
    """Batched mobility queries are bit-identical to scalar position()."""

    def test_path_group_query_matches_scalar(self):
        import numpy as np

        track = Polyline([Vec2(0, 0), Vec2(5000, 0)])
        models = [
            PathMobility(track, 5.0 + i, start_arc_length=40.0 * i, start_time=0.5 * i)
            for i in range(17)
        ]
        keys = {m.batch_key() for m in models}
        assert len(keys) == 1
        for time in [0.0, 3.3, 17.9, 400.0]:
            xs, ys = PathMobility.positions_at_time(models, time)
            for m, x, y in zip(models, xs.tolist(), ys.tolist()):
                p = m.position(time)
                assert (x, y) == (p.x, p.y)

    def test_distinct_tracks_get_distinct_keys(self):
        a = Polyline([Vec2(0, 0), Vec2(10, 0)])
        b = Polyline([Vec2(0, 0), Vec2(10, 0)])
        assert PathMobility(a, 1.0).batch_key() != PathMobility(b, 1.0).batch_key()
        # Static mounts join no group: the medium reads each position.
        assert StaticMobility(Vec2(0, 0)).batch_key() is None

    def test_trace_group_query_matches_scalar(self):
        track = Polyline([Vec2(0, 0), Vec2(100, 0), Vec2(100, 80)], closed=False)
        models = [
            TraceMobility(track, [0.0, 10.0 + i], [0.0, 90.0 + 5.0 * i])
            for i in range(6)
        ]
        assert len({m.batch_key() for m in models}) == 1
        other = TraceMobility(
            Polyline([Vec2(0, 0), Vec2(1, 0)]), [0.0, 1.0], [0.0, 1.0]
        )
        assert other.batch_key() != models[0].batch_key()
        for time in [0.0, 4.4, 9.9, 25.0]:
            xs, ys = TraceMobility.positions_at_time(models, time)
            for m, x, y in zip(models, xs.tolist(), ys.tolist()):
                p = m.position(time)
                assert (x, y) == (p.x, p.y)
