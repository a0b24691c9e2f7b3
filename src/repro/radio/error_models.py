"""SNR → frame-error-rate computations."""

from __future__ import annotations

import math

from repro.errors import RadioError
from repro.radio.modulation import WifiRate
from repro.units import bytes_to_bits


def frame_error_rate(rate: WifiRate, snr_db: float, size_bytes: int) -> float:
    """Probability that a frame of *size_bytes* is corrupted.

    Assumes independent bit errors:
    ``FER = 1 - (1 - BER)^bits``.

    Raises
    ------
    RadioError
        If *size_bytes* is not positive.
    """
    if size_bytes <= 0:
        raise RadioError(f"frame size must be positive, got {size_bytes!r}")
    ber = rate.bit_error_rate(snr_db)
    if ber <= 0.0:
        return 0.0
    if ber >= 0.5:
        return 1.0
    bits = bytes_to_bits(size_bytes)
    # log1p keeps precision when BER is tiny and bits is large.
    log_success = bits * math.log1p(-ber)
    return 1.0 - math.exp(log_success)


def frame_success_probability(rate: WifiRate, snr_db: float, size_bytes: int) -> float:
    """Complement of :func:`frame_error_rate`."""
    return 1.0 - frame_error_rate(rate, snr_db, size_bytes)
