"""Mobility interfaces and trace-based models."""

from __future__ import annotations

import abc
import bisect
from collections.abc import Sequence

import numpy as np

from repro.errors import MobilityError
from repro.geom import Polyline, Vec2


class MobilityModel(abc.ABC):
    """Interface: simulated time → position.

    Models must be pure functions of time (no hidden clock) so the radio
    layer can query positions at arbitrary instants.
    """

    @abc.abstractmethod
    def position(self, time: float) -> Vec2:
        """Position at simulated *time* seconds."""

    def batch_key(self):
        """Grouping key for cross-model batched queries, or ``None``.

        Models returning the same (non-``None``) key promise that
        :meth:`positions_at_time` can evaluate any mix of them at one
        instant in a single vectorized pass, bit-identical to calling
        :meth:`position` on each.  The medium's batch reception kernel
        uses this to replace its per-candidate position round-trips with
        one batched mobility query per timestamp.
        """
        return None

    @staticmethod
    def positions_at_time(
        models: "list[MobilityModel]", time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of *models* (one shared :meth:`batch_key`) at *time*."""
        raise NotImplementedError

    def max_speed_ms(self) -> float | None:
        """Upper bound on this model's speed [m/s], or ``None`` if unknown.

        The medium raises its speed bound to the fastest attached model
        (see :meth:`repro.mac.medium.Medium.attach`), and counts ``None``
        as unbounded: candidate discovery and the reach horizon then fall
        back to scanning every radio per broadcast, which stays exact for
        any motion.
        """
        return None

    def speed(self, time: float) -> float:
        """Scalar speed at *time*; default via symmetric differencing."""
        dt = 0.05
        before = self.position(max(time - dt, 0.0))
        after = self.position(time + dt)
        return before.distance_to(after) / (2.0 * dt)


class TraceMobility(MobilityModel):
    """Follows a precomputed arc-length trajectory along a track.

    Parameters
    ----------
    track:
        The road the trajectory lives on.
    times:
        Strictly increasing sample instants.
    arc_lengths:
        Arc-length coordinate (unwrapped — it may exceed the track length
        on loops, increasing monotonically lap after lap) at each instant.

    Queries before the first sample clamp to the first; queries after the
    last clamp to the last (the car has parked).
    """

    def __init__(
        self,
        track: Polyline,
        times: Sequence[float],
        arc_lengths: Sequence[float],
    ) -> None:
        if len(times) != len(arc_lengths):
            raise MobilityError("times and arc_lengths must have equal length")
        if len(times) < 2:
            raise MobilityError("a trace needs at least two samples")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise MobilityError("trace times must be strictly increasing")
        self.track = track
        self._times = list(times)
        self._arcs = list(arc_lengths)

    def arc_length(self, time: float) -> float:
        """Unwrapped arc-length coordinate at *time* (linear interpolation)."""
        times, arcs = self._times, self._arcs
        if time <= times[0]:
            return arcs[0]
        if time >= times[-1]:
            return arcs[-1]
        idx = bisect.bisect_right(times, time) - 1
        t0, t1 = times[idx], times[idx + 1]
        frac = (time - t0) / (t1 - t0)
        return arcs[idx] + (arcs[idx + 1] - arcs[idx]) * frac

    def position(self, time: float) -> Vec2:
        return self.track.point_at(self.arc_length(time))

    def batch_key(self):
        # Traces on one track batch their polyline projection; the
        # per-trace arc interpolation stays scalar (each trace has its
        # own time grid) but the point_at chain — the expensive half —
        # vectorizes.
        return ("trace", id(self.track))

    @staticmethod
    def positions_at_time(
        models: "list[TraceMobility]", time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        arcs = np.array([m.arc_length(time) for m in models])
        return models[0].track.points_at(arcs)

    def max_speed_ms(self) -> float:
        # Arc length bounds the straight-line distance along the track, so
        # the fastest interpolation leg bounds the planar speed too.
        times, arcs = self._times, self._arcs
        return max(
            abs(arcs[i + 1] - arcs[i]) / (times[i + 1] - times[i])
            for i in range(len(times) - 1)
        )

    def speed(self, time: float) -> float:
        dt = 0.05
        s0 = self.arc_length(max(time - dt, self._times[0]))
        s1 = self.arc_length(time + dt)
        return abs(s1 - s0) / (2.0 * dt)

    @property
    def duration(self) -> float:
        """Last sample instant."""
        return self._times[-1]
