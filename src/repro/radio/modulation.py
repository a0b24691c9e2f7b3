"""802.11 rate set: modulation, coding and BER curves.

The paper transmits everything at 1 Mb/s ("802.11g at 1Mbps" — i.e. the
DSSS basic rate used for maximum range), but the rate-sweep extension
experiment (§6 future work: "allow to increment the bit rate used by the
APs") needs the full DSSS + OFDM ladder, so all of it is here.

BER formulae follow the standard textbook approximations (Goldsmith,
*Wireless Communications*; the ns-3 ``YansErrorRateModel`` lineage):

* DBPSK (1 Mb/s):        ``BER = ½ exp(-γ)``
* DQPSK (2 Mb/s):        Marcum-Q based; approximated ``½ exp(-γ/2)``-style
* CCK (5.5/11 Mb/s):     empirical approximations
* OFDM BPSK/QAM:         ``Q``-function expressions with coding gain folded
                          in via a simple hard-decision Viterbi bound.

Exact waveform-level accuracy is *not* required: what matters for the
reproduction is a smooth, monotone SNR→PER curve per rate with realistic
relative thresholds (≈ -94 dBm sensitivity at 1 Mb/s down to ≈ -74 dBm at
54 Mb/s for 1000-byte frames).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import RadioError
from repro.units import MBPS


class PhyScheme(enum.Enum):
    """PHY family a rate belongs to (affects preamble timing and bandwidth)."""

    DSSS = "dsss"
    OFDM = "ofdm"


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _ber_dbpsk(snr_linear: float) -> float:
    return 0.5 * math.exp(-snr_linear)


def _ber_dqpsk(snr_linear: float) -> float:
    # Standard tight approximation for differential QPSK.
    return _q_function(math.sqrt(1.172 * snr_linear))


def _ber_cck(snr_linear: float, spreading_gain: float) -> float:
    # CCK approximated as QPSK with reduced spreading gain.
    return _q_function(math.sqrt(max(snr_linear * spreading_gain, 0.0)))


def _ber_mqam(snr_linear: float, m: int) -> float:
    """Gray-coded square M-QAM bit error rate."""
    k = math.log2(m)
    arg = math.sqrt(3.0 * snr_linear / (m - 1.0))
    return (4.0 / k) * (1.0 - 1.0 / math.sqrt(m)) * _q_function(arg)


def _ber_bpsk(snr_linear: float) -> float:
    return _q_function(math.sqrt(2.0 * snr_linear))


def _ber_qpsk(snr_linear: float) -> float:
    return _q_function(math.sqrt(snr_linear))


@dataclass(slots=True, frozen=True)
class WifiRate:
    """One entry of the 802.11 rate ladder.

    Attributes
    ----------
    name:
        Human-readable label, e.g. ``"dsss-1"`` or ``"ofdm-54"``.
    bitrate_bps:
        Data bit rate.
    scheme:
        DSSS or OFDM (selects preamble/header timing in the MAC).
    code_rate:
        Convolutional code rate for OFDM (1.0 for uncoded DSSS).
    """

    name: str
    bitrate_bps: float
    scheme: PhyScheme
    code_rate: float = 1.0

    def bit_error_rate(self, snr_db: float) -> float:
        """Raw bit error probability at the given *post-processing* SNR.

        For DSSS the processing (spreading) gain is included here; the
        caller provides SNR over the full channel bandwidth.
        """
        snr = 10.0 ** (snr_db / 10.0)
        name = self.name
        if name == "dsss-1":
            # 11-chip Barker spreading: ~10.4 dB processing gain.
            return _ber_dbpsk(snr * 11.0)
        if name == "dsss-2":
            return _ber_dqpsk(snr * 5.5)
        if name == "dsss-5.5":
            return _ber_cck(snr, 2.0)
        if name == "dsss-11":
            return _ber_cck(snr, 1.0)
        if name == "ofdm-6":
            return _coded_ber(_ber_bpsk(snr), self.code_rate)
        if name == "ofdm-9":
            return _coded_ber(_ber_bpsk(snr), self.code_rate)
        if name == "ofdm-12":
            return _coded_ber(_ber_qpsk(snr), self.code_rate)
        if name == "ofdm-18":
            return _coded_ber(_ber_qpsk(snr), self.code_rate)
        if name == "ofdm-24":
            return _coded_ber(_ber_mqam(snr, 16), self.code_rate)
        if name == "ofdm-36":
            return _coded_ber(_ber_mqam(snr, 16), self.code_rate)
        if name == "ofdm-48":
            return _coded_ber(_ber_mqam(snr, 64), self.code_rate)
        if name == "ofdm-54":
            return _coded_ber(_ber_mqam(snr, 64), self.code_rate)
        raise RadioError(f"unknown rate {name!r}")


def _coded_ber(raw_ber: float, code_rate: float) -> float:
    """Effective post-Viterbi BER via a crude hard-decision union bound.

    Stronger codes (lower rate) give steeper waterfalls; the exponent
    captures the free-distance advantage well enough for shape studies.
    """
    raw_ber = min(max(raw_ber, 0.0), 0.5)
    free_distance_gain = {0.5: 5.0, 2.0 / 3.0: 3.0, 0.75: 2.5}.get(round(code_rate, 4), 2.5)
    # P_coded ≈ (2 * P_raw)^gain / 2 — clamps to raw BER when raw is high.
    coded = 0.5 * (2.0 * raw_ber) ** free_distance_gain
    return min(coded, raw_ber)


DSSS_RATES: tuple[WifiRate, ...] = (
    WifiRate("dsss-1", 1 * MBPS, PhyScheme.DSSS),
    WifiRate("dsss-2", 2 * MBPS, PhyScheme.DSSS),
    WifiRate("dsss-5.5", 5.5 * MBPS, PhyScheme.DSSS),
    WifiRate("dsss-11", 11 * MBPS, PhyScheme.DSSS),
)

OFDM_RATES: tuple[WifiRate, ...] = (
    WifiRate("ofdm-6", 6 * MBPS, PhyScheme.OFDM, 0.5),
    WifiRate("ofdm-9", 9 * MBPS, PhyScheme.OFDM, 0.75),
    WifiRate("ofdm-12", 12 * MBPS, PhyScheme.OFDM, 0.5),
    WifiRate("ofdm-18", 18 * MBPS, PhyScheme.OFDM, 0.75),
    WifiRate("ofdm-24", 24 * MBPS, PhyScheme.OFDM, 0.5),
    WifiRate("ofdm-36", 36 * MBPS, PhyScheme.OFDM, 0.75),
    WifiRate("ofdm-48", 48 * MBPS, PhyScheme.OFDM, 2.0 / 3.0),
    WifiRate("ofdm-54", 54 * MBPS, PhyScheme.OFDM, 0.75),
)

_ALL_RATES: dict[str, WifiRate] = {r.name: r for r in DSSS_RATES + OFDM_RATES}


def rate_by_name(name: str) -> WifiRate:
    """Look up a rate by its label (e.g. ``"dsss-1"``).

    Raises
    ------
    RadioError
        If the name is not in the rate ladder.
    """
    try:
        return _ALL_RATES[name]
    except KeyError:
        raise RadioError(
            f"unknown rate {name!r}; known: {sorted(_ALL_RATES)}"
        ) from None
