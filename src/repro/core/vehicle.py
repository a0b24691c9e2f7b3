"""A vehicle node running the Cooperative-ARQ protocol."""

from __future__ import annotations

import numpy as np

from repro.core.config import CarqConfig
from repro.core.protocol import CarqProtocol
from repro.mac.frames import NodeId
from repro.mac.medium import Medium
from repro.mobility.base import MobilityModel
from repro.net.node import Node
from repro.radio.phy import RadioConfig
from repro.sim import Simulator


class VehicleNode(Node):
    """A car in the platoon: node + C-ARQ protocol, ready to start.

    Parameters
    ----------
    sim, medium, node_id, mobility, radio, rng, name:
        As for :class:`~repro.net.node.Node`.
    ap_ids:
        The access point(s) whose frames define coverage.
    config:
        Protocol configuration (defaults reproduce the paper's prototype).
    """

    __slots__ = ("protocol",)

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: NodeId,
        mobility: MobilityModel,
        radio: RadioConfig,
        rng: np.random.Generator,
        ap_ids: NodeId | list[NodeId],
        config: CarqConfig | None = None,
        name: str = "",
    ) -> None:
        super().__init__(sim, medium, node_id, mobility, radio, rng, name=name)
        self.protocol = CarqProtocol(
            sim,
            self,
            ap_ids,
            config if config is not None else CarqConfig(),
            rng,
        )

    def start(self) -> None:
        """Start the protocol's beacon process."""
        self.protocol.start()
