"""Trace capture — the simulated equivalent of the testbed's tcpdump.

The testbed captured all received traffic on each laptop "for its analysis
and post-processing".  :class:`TraceCollector` plays that role, keeping
what the analysis reads of such a capture: the first delivery time of
every data packet at every node, queried per node and flow (the medium
still reports every TX and RX to it, but no per-frame log is kept).
:class:`ReceptionMatrix` is the car × packet boolean table the paper's
Table 1 and all figures are computed from.
"""

from repro.trace.capture import TraceCollector
from repro.trace.matrix import ReceptionMatrix

__all__ = ["ReceptionMatrix", "TraceCollector"]
