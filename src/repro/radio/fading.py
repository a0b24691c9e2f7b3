"""Small-scale (per-frame) fading models.

Fading is sampled independently per frame: at vehicular speeds and 2.4 GHz
the channel coherence time (~ a few ms at 20 km/h) is shorter than the
5 pkt/s per-flow inter-packet gap, so consecutive frames of one flow see
independent small-scale realisations.  Temporal correlation across frames
is carried by the shadowing process instead.

Draws are *keyed* (see :mod:`repro.radio.keyed`): every call passes a
key, the channel a ``(link hash, transmission)`` pair, and the
realisation is a pure function of it.  So the medium's reception fast
path can skip out-of-range links without perturbing any other link's
fading, and distinct keys give an i.i.d. sequence for statistics.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import RadioError
from repro.radio.keyed import KeyedRandom, libm_map


class FadingModel(abc.ABC):
    """Interface: one power-gain sample (dB) per transmitted frame."""

    __slots__ = ()

    @abc.abstractmethod
    def sample_db(self, key: tuple[int, ...]) -> float:
        """A fading gain in dB (typically negative-mean) for *key*."""

    def sample_db_batch(self, link_hashes: np.ndarray, tx_seq: int) -> np.ndarray:
        """Fading for one transmission's candidate lanes at once.

        Each lane draws for key ``(link_hash, tx_seq)`` — the keyed form
        the medium uses — and must be bit-identical to mapping
        :meth:`sample_db` over the hashes.  This fallback loops the
        scalar draw, so custom models stay exact.
        """
        return np.array(
            [self.sample_db((int(h), tx_seq)) for h in link_hashes.tolist()],
            dtype=np.float64,
        )


class NoFading(FadingModel):
    """Deterministic zero fading — for unit tests and calibration."""

    __slots__ = ()

    def sample_db(self, key: tuple[int, ...]) -> float:
        return 0.0

    def sample_db_batch(self, link_hashes: np.ndarray, tx_seq: int) -> np.ndarray:
        return np.zeros(link_hashes.shape[0], dtype=np.float64)


class _KeyedFading(FadingModel):
    """Shared plumbing: the keyed draws, seeded from *rng*."""

    __slots__ = ("_keyed",)

    def __init__(self, rng: np.random.Generator) -> None:
        self._keyed = KeyedRandom.from_rng(rng)


class RayleighFading(_KeyedFading):
    """Rayleigh fading: no line-of-sight, power gain ~ Exp(1).

    Models the deep-urban segments of the loop where the AP is not visible.
    """

    __slots__ = ()

    def sample_db(self, key: tuple[int, ...]) -> float:
        gain = self._keyed.exponential(*key)
        # Clamp astronomically deep draws rather than propagating -inf dB.
        gain = max(gain, 1e-12)
        return 10.0 * math.log10(gain)

    def sample_db_batch(self, link_hashes: np.ndarray, tx_seq: int) -> np.ndarray:
        n = link_hashes.shape[0]
        gain = self._keyed.exponential_batch([link_hashes, tx_seq], (n,))
        gain = np.maximum(gain, 1e-12)
        return 10.0 * libm_map(math.log10, gain)


class RicianFading(_KeyedFading):
    """Rician fading with K-factor: partial line-of-sight.

    The amplitude is ``|sqrt(K/(K+1)) + CN(0, 1/(K+1))|`` so the mean power
    gain is 1 (0 dB).  ``K → 0`` degenerates to Rayleigh, ``K → ∞`` to no
    fading.  A K of 3–10 dB fits a street with the AP in view.
    """

    __slots__ = ("k_factor", "_los", "_scatter_sigma",)

    def __init__(self, rng: np.random.Generator, *, k_factor: float = 4.0) -> None:
        if k_factor < 0.0:
            raise RadioError(f"Rician K-factor must be >= 0, got {k_factor!r}")
        super().__init__(rng)
        self.k_factor = k_factor
        self._los = math.sqrt(k_factor / (k_factor + 1.0))
        self._scatter_sigma = math.sqrt(1.0 / (2.0 * (k_factor + 1.0)))

    def sample_db(self, key: tuple[int, ...]) -> float:
        z_re, z_im = self._keyed.normal_pair(*key)
        re = self._los + self._scatter_sigma * z_re
        im = self._scatter_sigma * z_im
        gain = re * re + im * im
        gain = max(gain, 1e-12)
        return 10.0 * math.log10(gain)

    def sample_db_batch(self, link_hashes: np.ndarray, tx_seq: int) -> np.ndarray:
        n = link_hashes.shape[0]
        z_re, z_im = self._keyed.normal_pair_batch([link_hashes, tx_seq], (n,))
        re = self._los + self._scatter_sigma * z_re
        im = self._scatter_sigma * z_im
        gain = re * re + im * im
        gain = np.maximum(gain, 1e-12)
        return 10.0 * libm_map(math.log10, gain)
