"""Unit conventions and conversion helpers used across the library.

Conventions
-----------
* time       — seconds (``float``)
* distance   — metres
* speed      — metres / second
* power      — dBm at API boundaries, watts internally where noted
* rate       — bits / second
* frequency  — hertz

The helpers below are deliberately tiny, pure functions so they can be used
in hot loops without indirection.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Scalar constants
# ---------------------------------------------------------------------------

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380_649e-23

#: Reference temperature used for thermal-noise computations [K].
REFERENCE_TEMPERATURE_K = 290.0

#: Thermal noise power spectral density at 290 K [dBm/Hz] (≈ -174 dBm/Hz).
THERMAL_NOISE_DBM_PER_HZ = 10.0 * math.log10(
    BOLTZMANN * REFERENCE_TEMPERATURE_K
) + 30.0

#: One megabit per second, in bit/s.
MBPS = 1_000_000.0

#: One kilometre per hour, in m/s.
KMH = 1000.0 / 3600.0

#: Bytes → bits.
BITS_PER_BYTE = 8

#: One microsecond, in seconds.
MICROSECOND = 1e-6

#: One millisecond, in seconds.
MILLISECOND = 1e-3


# ---------------------------------------------------------------------------
# Decibel conversions
# ---------------------------------------------------------------------------

def db_to_linear(value_db: float) -> float:
    """Convert a ratio expressed in dB to a linear ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to dB.

    Raises
    ------
    ValueError
        If *value* is not strictly positive (log of zero/negative power).
    """
    if value <= 0.0:
        raise ValueError(f"cannot express non-positive ratio {value!r} in dB")
    return 10.0 * math.log10(value)


def dbm_to_watts(power_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


def watts_to_dbm(power_watts: float) -> float:
    """Convert a power in watts to dBm.

    Raises
    ------
    ValueError
        If *power_watts* is not strictly positive.
    """
    if power_watts <= 0.0:
        raise ValueError(f"cannot express non-positive power {power_watts!r} in dBm")
    return 10.0 * math.log10(power_watts) + 30.0


def dbm_sum(*powers_dbm: float) -> float:
    """Sum several powers expressed in dBm, returning dBm.

    Used by the interference model to accumulate concurrent transmissions.
    """
    if not powers_dbm:
        raise ValueError("dbm_sum() requires at least one power value")
    total_watts = sum(dbm_to_watts(p) for p in powers_dbm)
    return watts_to_dbm(total_watts)


# ---------------------------------------------------------------------------
# Common conversions
# ---------------------------------------------------------------------------

def kmh_to_ms(speed_kmh: float) -> float:
    """Convert km/h to m/s."""
    return speed_kmh * KMH


def ms_to_kmh(speed_ms: float) -> float:
    """Convert m/s to km/h."""
    return speed_ms / KMH


def bytes_to_bits(size_bytes: int) -> int:
    """Convert a byte count to bits."""
    return size_bytes * BITS_PER_BYTE


def transmission_time(size_bytes: int, rate_bps: float) -> float:
    """Airtime in seconds for *size_bytes* payload at *rate_bps*.

    This is the pure serialisation delay; PHY preamble/header overheads are
    added by :mod:`repro.mac.timing`.

    Raises
    ------
    ValueError
        If *rate_bps* is not strictly positive or *size_bytes* is negative.
    """
    if rate_bps <= 0.0:
        raise ValueError(f"rate must be positive, got {rate_bps!r}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes!r}")
    return bytes_to_bits(size_bytes) / rate_bps


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise floor for a receiver of the given bandwidth.

    Parameters
    ----------
    bandwidth_hz:
        Receiver bandwidth in Hz (e.g. 20 MHz for 802.11g, 22 MHz for DSSS).
    noise_figure_db:
        Receiver noise figure added on top of kTB.

    Raises
    ------
    ValueError
        If *bandwidth_hz* is not strictly positive.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
