"""Node and application layer.

* :class:`Node` — identity + mobility + radio interface;
* :class:`AccessPoint` — the road-side infostation streaming numbered
  packets to each car (the testbed's 5 × 1000 B ICMP echo per second per
  car);
* :class:`PacketBuffer` — bounded storage for own and cooperatively
  buffered packets.
"""

from repro.mac.frames import BROADCAST, NodeId
from repro.net.node import Node
from repro.net.ap import AccessPoint, FlowConfig
from repro.net.buffer import PacketBuffer

__all__ = [
    "AccessPoint",
    "BROADCAST",
    "FlowConfig",
    "Node",
    "NodeId",
    "PacketBuffer",
]
