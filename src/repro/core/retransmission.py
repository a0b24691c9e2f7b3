"""AP-side retransmission policies (paper §3.2 remark and §6 future work).

The prototype disables retransmissions entirely "at the hope that other
cars in the platoon will receive [the] packets", trading in-coverage
airtime for dark-area recovery.  The paper notes that "a retransmission
scheme (possibly adaptive with respect to the number of cooperators) would
be needed in a real system".  The AP runs without a policy by default,
one copy per packet as in the prototype;
:class:`FixedRetransmission` blindly sends *n* copies of every packet
for the ablation experiment.
"""

from __future__ import annotations

import abc

from repro.errors import ConfigurationError
from repro.mac.frames import NodeId


class RetransmissionPolicy(abc.ABC):
    """Interface: how many copies of each data packet the AP transmits."""

    __slots__ = ()

    @abc.abstractmethod
    def copies_for(self, flow_dst: NodeId, seq: int) -> int:
        """Total transmit count (≥ 1) for the given packet."""


class FixedRetransmission(RetransmissionPolicy):
    """A constant number of copies per packet."""

    __slots__ = ("copies",)

    def __init__(self, copies: int) -> None:
        if copies < 1:
            raise ConfigurationError(f"copies must be >= 1, got {copies!r}")
        self.copies = copies

    def copies_for(self, flow_dst: NodeId, seq: int) -> int:
        return self.copies
