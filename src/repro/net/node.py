"""Base class tying identity, mobility and radio together."""

from __future__ import annotations

import numpy as np

from repro.mac.frames import NodeId
from repro.mac.interface import NetworkInterface
from repro.mac.medium import Medium
from repro.mobility.base import MobilityModel
from repro.obs.registry import registry as _metrics_registry
from repro.radio.phy import RadioConfig
from repro.sim import Simulator


class Node:
    """A network participant: an AP or a vehicle.

    Parameters
    ----------
    sim, medium:
        Simulation kernel and shared medium.
    node_id:
        Unique identity.
    mobility:
        Position source (static mount for APs, trajectory for cars).
    radio:
        PHY parameters for this node's interface.
    rng:
        Random stream for this node's MAC back-off.
    name:
        Human-readable label.
    """

    __slots__ = ("sim", "node_id", "name", "mobility", "iface",)

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: NodeId,
        mobility: MobilityModel,
        radio: RadioConfig,
        rng: np.random.Generator,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"node-{node_id}"
        # Topology-size telemetry: one bump per node, construction-time
        # only, so no probe bundle is worth holding onto here.
        reg = _metrics_registry()
        if reg.enabled:
            reg.counter("net.nodes_built").value += 1
        self.mobility = mobility
        self.iface = NetworkInterface(
            sim, medium, node_id, mobility, radio, rng, name=f"{self.name}.iface"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
