"""802.11-like MAC substrate.

Provides the frame taxonomy used by the C-ARQ protocol and its baselines,
802.11 DSSS/OFDM timing constants, a shared :class:`Medium` that resolves
per-receiver interference, and a CSMA/CA broadcast interface.

Fidelity notes (documented deviations from IEEE 802.11):

* The testbed ran radios in *monitor mode with retransmissions disabled* —
  so there are no ACKs, no RTS/CTS and no MAC-level retries here either,
  and every interface is promiscuous (it hears frames addressed to other
  nodes, which is what makes cooperative buffering possible).
* Back-off counters are redrawn (with doubled contention window) when the
  medium is sensed busy at the end of the back-off, instead of being frozen
  and resumed.  With the handful of contending stations in all scenarios
  this changes nothing observable and keeps the state machine simple.
"""

from repro.mac.frames import (
    BROADCAST,
    CoopDataFrame,
    DataFrame,
    Frame,
    HelloFrame,
    NackFrame,
    RequestFrame,
    SummaryFrame,
)
from repro.mac.timing import MacTiming, DSSS_TIMING, OFDM_TIMING, frame_airtime
from repro.mac.medium import LossCause, Medium, RxInfo
from repro.mac.interface import NetworkInterface

__all__ = [
    "BROADCAST",
    "CoopDataFrame",
    "DataFrame",
    "DSSS_TIMING",
    "Frame",
    "frame_airtime",
    "HelloFrame",
    "LossCause",
    "MacTiming",
    "Medium",
    "NackFrame",
    "NetworkInterface",
    "OFDM_TIMING",
    "RequestFrame",
    "RxInfo",
    "SummaryFrame",
]
