"""Mobility of things that do not move."""

from __future__ import annotations

import numpy as np

from repro.geom import Vec2
from repro.mobility.base import MobilityModel


class StaticMobility(MobilityModel):
    """A fixed mount — the AP antenna in the office window."""

    def __init__(self, position: Vec2) -> None:
        self._position = position

    def position(self, time: float) -> Vec2:
        return self._position

    def batch_key(self):
        # All static mounts evaluate together: one array gather replaces
        # a position() call per candidate (multi-AP corridors carry
        # dozens of infostations per broadcast).
        return ("static",)

    @staticmethod
    def positions_at_time(
        models: "list[StaticMobility]", time: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([m._position.x for m in models]),
            np.array([m._position.y for m in models]),
        )

    def max_speed_ms(self) -> float:
        return 0.0

    def speed(self, time: float) -> float:
        return 0.0
