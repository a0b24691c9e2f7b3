"""Mobility of things that do not move."""

from __future__ import annotations

from repro.geom import Vec2
from repro.mobility.base import MobilityModel


class StaticMobility(MobilityModel):
    """A fixed mount — the AP antenna in the office window."""

    def __init__(self, position: Vec2) -> None:
        self._position = position

    def position(self, time: float) -> Vec2:
        return self._position

    def max_speed_ms(self) -> float:
        return 0.0

    def speed(self, time: float) -> float:
        return 0.0
