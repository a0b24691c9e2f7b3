"""Large-scale path-loss models.

All models return path loss in dB (a positive number to subtract from the
transmit power) as a function of link distance in metres.  They sit on
the medium's per-receiver hot path, so each model folds its parameters
into precomputed constants (one ``log10`` per evaluation) and exposes the
closed-form inverse :meth:`PathLossModel.range_for_loss`, which the
medium uses to convert a power threshold into a transmitter's reach
radius.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RadioError
from repro.radio.keyed import libm_map
from repro.units import SPEED_OF_LIGHT


class PathLossModel(abc.ABC):
    """Interface: distance [m] → path loss [dB]."""

    __slots__ = ()

    @abc.abstractmethod
    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB at the given distance.

        Implementations must be monotonically non-decreasing in distance and
        must handle ``distance_m == 0`` gracefully (clamping to a minimum
        distance) because a mobility model may momentarily co-locate nodes.
        """

    def loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        """Path loss for a whole candidate set at once.

        Must be bit-identical to mapping :meth:`loss_db` over the array
        (the batch reception kernel's contract); this fallback simply
        does that, concrete models vectorize.
        """
        return np.array(
            [self.loss_db(d) for d in distances_m.tolist()], dtype=np.float64
        )

    def range_for_loss(self, loss_db: float) -> float:
        """Largest distance whose loss does not exceed *loss_db*.

        The inverse of :meth:`loss_db`; used to size the medium's
        neighbor search radius.  Models without a closed form may return
        ``inf``, which conservatively disables the spatial cull (every
        receiver stays a candidate).
        """
        return math.inf


def _clamp_distance(distance_m: float, minimum: float = 1.0) -> float:
    if distance_m < 0.0:
        raise RadioError(f"negative link distance {distance_m!r}")
    return max(distance_m, minimum)


def _clamp_distances(distances_m: np.ndarray, minimum: float) -> np.ndarray:
    if distances_m.size and float(distances_m.min()) < 0.0:
        raise RadioError(f"negative link distance in batch {distances_m!r}")
    return np.maximum(distances_m, minimum)


@dataclass(slots=True, frozen=True)
class FreeSpacePathLoss(PathLossModel):
    """Friis free-space propagation.

    ``PL(d) = 20 log10(4 π d f / c)``

    Parameters
    ----------
    frequency_hz:
        Carrier frequency (2.412e9 for 802.11 channel 1).
    min_distance_m:
        Distances below this are clamped to avoid the near-field singularity.
    """

    frequency_hz: float = 2.412e9
    min_distance_m: float = 1.0
    _constant_db: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # 20·log10(4πf/c), folded so one log10 remains per evaluation.
        constant = 20.0 * math.log10(
            4.0 * math.pi * self.frequency_hz / SPEED_OF_LIGHT
        )
        object.__setattr__(self, "_constant_db", constant)

    def loss_db(self, distance_m: float) -> float:
        d = _clamp_distance(distance_m, self.min_distance_m)
        return 20.0 * math.log10(d) + self._constant_db

    def loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        d = _clamp_distances(distances_m, self.min_distance_m)
        return 20.0 * libm_map(math.log10, d) + self._constant_db

    def range_for_loss(self, loss_db: float) -> float:
        return 10.0 ** ((loss_db - self._constant_db) / 20.0)


@dataclass(slots=True, frozen=True)
class LogDistancePathLoss(PathLossModel):
    """Log-distance model — the standard urban-street abstraction.

    ``PL(d) = PL(d0) + 10 n log10(d / d0)``

    where the reference loss ``PL(d0)`` defaults to free space at *d0* and
    ``n`` is the path-loss exponent (≈2 free space, 2.7–3.5 urban).  This is
    the model used by the paper-testbed scenario: the office-window antenna
    in a street canyon is well described by ``n≈2.8–3.2``.
    """

    exponent: float = 3.0
    reference_distance_m: float = 1.0
    reference_loss_db: float | None = None
    frequency_hz: float = 2.412e9
    _constant_db: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.exponent <= 0.0:
            raise RadioError(f"path-loss exponent must be positive, got {self.exponent!r}")
        if self.reference_distance_m <= 0.0:
            raise RadioError("reference distance must be positive")
        # loss(d) = constant + 10·n·log10(d) for d ≥ d0.
        constant = self._reference_loss() - 10.0 * self.exponent * math.log10(
            self.reference_distance_m
        )
        object.__setattr__(self, "_constant_db", constant)

    def _reference_loss(self) -> float:
        if self.reference_loss_db is not None:
            return self.reference_loss_db
        return FreeSpacePathLoss(self.frequency_hz, self.reference_distance_m).loss_db(
            self.reference_distance_m
        )

    def loss_db(self, distance_m: float) -> float:
        d = _clamp_distance(distance_m, self.reference_distance_m)
        return self._constant_db + 10.0 * self.exponent * math.log10(d)

    def loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        d = _clamp_distances(distances_m, self.reference_distance_m)
        return self._constant_db + 10.0 * self.exponent * libm_map(math.log10, d)

    def range_for_loss(self, loss_db: float) -> float:
        return 10.0 ** ((loss_db - self._constant_db) / (10.0 * self.exponent))


@dataclass(slots=True, frozen=True)
class TwoRayGroundPathLoss(PathLossModel):
    """Two-ray ground-reflection model for long flat links (highway).

    Below the crossover distance ``d_c = 4 π h_t h_r / λ`` the model falls
    back to free space; beyond it the ground reflection dominates:

    ``PL(d) = 40 log10(d) - 10 log10(h_t² h_r²)``
    """

    tx_height_m: float = 5.0
    rx_height_m: float = 1.5
    frequency_hz: float = 2.412e9
    min_distance_m: float = 1.0
    _free_space: "FreeSpacePathLoss" = field(init=False, repr=False, compare=False)
    _height_gain_db: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tx_height_m <= 0.0 or self.rx_height_m <= 0.0:
            raise RadioError("antenna heights must be positive")
        object.__setattr__(
            self,
            "_free_space",
            FreeSpacePathLoss(self.frequency_hz, self.min_distance_m),
        )
        object.__setattr__(
            self,
            "_height_gain_db",
            10.0 * math.log10(self.tx_height_m**2 * self.rx_height_m**2),
        )

    @property
    def crossover_distance_m(self) -> float:
        """Distance where the two-ray regime takes over from free space."""
        wavelength = SPEED_OF_LIGHT / self.frequency_hz
        return 4.0 * math.pi * self.tx_height_m * self.rx_height_m / wavelength

    def loss_db(self, distance_m: float) -> float:
        d = _clamp_distance(distance_m, self.min_distance_m)
        if d <= self.crossover_distance_m:
            return self._free_space.loss_db(d)
        return 40.0 * math.log10(d) - self._height_gain_db

    def loss_db_batch(self, distances_m: np.ndarray) -> np.ndarray:
        d = _clamp_distances(distances_m, self.min_distance_m)
        logd = libm_map(math.log10, d)
        # FreeSpacePathLoss.loss_db on an already-clamped distance is
        # exactly 20·log10(d) + constant, so the branch shares one log10.
        free_space = 20.0 * logd + self._free_space._constant_db
        two_ray = 40.0 * logd - self._height_gain_db
        return np.where(d <= self.crossover_distance_m, free_space, two_ray)

    def range_for_loss(self, loss_db: float) -> float:
        crossover = self.crossover_distance_m
        if loss_db <= self.loss_db(crossover):
            return min(self._free_space.range_for_loss(loss_db), crossover)
        return 10.0 ** ((loss_db + self._height_gain_db) / 40.0)

