"""Constant-speed motion along a polyline."""

from __future__ import annotations

import numpy as np

from repro.errors import MobilityError
from repro.geom import Polyline, Vec2
from repro.mobility.base import MobilityModel


class PathMobility(MobilityModel):
    """Moves along a track at constant speed.

    Used directly for simple scenarios (quickstart, highway pass) and by
    unit tests; the urban testbed uses IDM traces instead.

    Parameters
    ----------
    track:
        The path to follow.
    speed:
        Constant speed in m/s (must be positive).
    start_arc_length:
        Position on the track at ``start_time``.
    start_time:
        Instant at which motion begins; before it the node idles at the
        start position.  On open tracks the node parks at the end.
    """

    def __init__(
        self,
        track: Polyline,
        speed: float,
        *,
        start_arc_length: float = 0.0,
        start_time: float = 0.0,
    ) -> None:
        if speed <= 0.0:
            raise MobilityError(f"speed must be positive, got {speed!r}")
        self.track = track
        self._speed = speed
        self._start_arc = start_arc_length
        self._start_time = start_time
        # One attribute read hands the batch queries all three scalars.
        self._params = (start_arc_length, speed, start_time)

    def arc_length(self, time: float) -> float:
        """Unwrapped arc-length coordinate at *time*."""
        elapsed = max(time - self._start_time, 0.0)
        s = self._start_arc + self._speed * elapsed
        if not self.track.closed:
            s = min(s, self.track.length)
        return s

    def position(self, time: float) -> Vec2:
        return self.track.point_at(self.arc_length(time))

    def batch_key(self):
        # All constant-speed models on one track evaluate together: the
        # arc formula vectorizes over per-model parameters and the track
        # projects the batch in one pass.
        return ("path", id(self.track))

    @staticmethod
    def positions_at_time(
        models: "list[PathMobility]", time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        params = np.array([m._params for m in models])
        track = models[0].track
        elapsed = np.maximum(time - params[:, 2], 0.0)
        s = params[:, 0] + params[:, 1] * elapsed
        if not track.closed:
            s = np.minimum(s, track.length)
        return track.points_at(s)

    def max_speed_ms(self) -> float:
        return self._speed

    def speed(self, time: float) -> float:
        if time < self._start_time:
            return 0.0
        if not self.track.closed and self.arc_length(time) >= self.track.length:
            return 0.0
        return self._speed
