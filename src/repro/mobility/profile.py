"""Target-speed profiles along a track.

Human drivers slow down at corners.  :class:`CurvatureSpeedProfile` maps
each vertex turn angle to a corner speed and blends it over an approach /
exit window, yielding the target speed ``v*(s)`` the IDM leader follows.
"""

from __future__ import annotations

import math

from repro.errors import MobilityError
from repro.geom import Polyline


class CurvatureSpeedProfile:
    """Position-dependent target speed with corner slow-downs.

    Parameters
    ----------
    track:
        The road (its vertex turn angles define the corners).
    cruise_speed:
        Target on straights [m/s].
    corner_speed:
        Target at a 90° corner [m/s]; sharper corners get proportionally
        slower, gentler ones faster (linear in turn angle).
    transition_distance:
        Length of the deceleration/acceleration ramp on each side of a
        corner [m].
    """

    def __init__(
        self,
        track: Polyline,
        *,
        cruise_speed: float,
        corner_speed: float,
        transition_distance: float = 15.0,
    ) -> None:
        if cruise_speed <= 0.0 or corner_speed <= 0.0:
            raise MobilityError("speeds must be positive")
        if corner_speed > cruise_speed:
            raise MobilityError("corner speed cannot exceed cruise speed")
        if transition_distance <= 0.0:
            raise MobilityError("transition distance must be positive")
        self.track = track
        self.cruise_speed = cruise_speed
        self.corner_speed = corner_speed
        self.transition_distance = transition_distance
        self._corners = self._find_corners()

    def _find_corners(self) -> list[tuple[float, float]]:
        """``(arc length, corner target speed)`` for every bending vertex."""
        corners: list[tuple[float, float]] = []
        n = len(self.track.points)
        vertex_range = range(n) if self.track.closed else range(1, n - 1)
        for idx in vertex_range:
            angle = self.track.turn_angle_at_vertex(idx)
            if angle < math.radians(10.0):
                continue  # effectively straight
            # Linear in turn angle: 90° → corner_speed, 0° → cruise.
            fraction = min(angle / (math.pi / 2.0), 1.5)
            speed = self.cruise_speed - (self.cruise_speed - self.corner_speed) * min(
                fraction, 1.0
            )
            if fraction > 1.0:  # sharper than 90°: even slower
                speed = max(self.corner_speed * (2.0 - fraction), 0.5 * self.corner_speed)
            corners.append((self.track.vertex_arc_length(idx), speed))
        return corners

    def target_speed(self, arc_length: float) -> float:
        """Target speed at the given (unwrapped) arc-length position."""
        closed = self.track.closed
        length = self.track.length
        cruise = self.cruise_speed
        window = self.transition_distance
        if closed:
            s = arc_length % length
        else:
            s = min(max(arc_length, 0.0), length)
        speed = cruise
        for corner_s, corner_speed in self._corners:
            distance = abs(s - corner_s)
            if closed:
                distance = min(distance, length - distance)
            if distance >= window:
                continue
            # Linear ramp from cruise at the window edge to the corner speed.
            blend = 1.0 - distance / window
            candidate = cruise - (cruise - corner_speed) * blend
            speed = min(speed, candidate)
        return speed
