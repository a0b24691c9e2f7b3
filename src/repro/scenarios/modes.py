"""The protocol-mode factory: C-ARQ and every baseline, one wiring path.

The paper's evaluation is comparative — C-ARQ against no-cooperation,
persistent in-coverage ARQ, and epidemic relaying.  This module makes the
protocol a *parameter* of a scenario rather than a separate builder:
every scenario config carries a ``mode`` field, the population builders
dispatch through :func:`build_vehicle` / :func:`ap_class`, and a campaign
can sweep ``mode`` as a grid axis — same seeds, same trajectories, same
channel realisations across arms, so every comparison is paired.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.arq import ArqAccessPoint, ArqVehicleNode
from repro.baselines.epidemic import EpidemicVehicleNode
from repro.baselines.nocoop import PassiveVehicleNode
from repro.core.config import CarqConfig
from repro.core.vehicle import VehicleNode
from repro.errors import ConfigurationError
from repro.mac.frames import NodeId
from repro.mac.medium import Medium
from repro.mobility.base import MobilityModel
from repro.net.ap import AccessPoint
from repro.radio.phy import RadioConfig
from repro.sim import Simulator

#: Every protocol mode a scenario vehicle can run.
PROTOCOL_MODES = ("carq", "nocoop", "arq", "epidemic")

#: The comparison arms of the paper's Table 1 (everything but C-ARQ).
BASELINE_MODES = ("nocoop", "arq", "epidemic")


def validate_mode(mode: str, allowed: tuple[str, ...] = PROTOCOL_MODES) -> str:
    """Check *mode* against *allowed*; returns it for chaining."""
    if mode not in allowed:
        raise ConfigurationError(
            f"unknown protocol mode {mode!r}; choose from {allowed}"
        )
    return mode


def ap_class(mode: str) -> type[AccessPoint]:
    """The access-point class a protocol mode requires.

    Only the persistent-ARQ baseline changes the AP side (it must answer
    NACKs with retransmissions); every other mode streams plainly.
    """
    return ArqAccessPoint if mode == "arq" else AccessPoint


def build_vehicle(
    mode: str,
    sim: Simulator,
    medium: Medium,
    node_id: NodeId,
    mobility: MobilityModel,
    radio: RadioConfig,
    rng: np.random.Generator,
    ap_ids: NodeId | list[NodeId],
    carq: CarqConfig,
    name: str = "",
):
    """Construct one vehicle node running *mode*.

    All modes share the node substrate (interface, mobility, radio) and a
    ``state``-reachable :class:`~repro.core.state.FlowReceptionState`, so
    trace collection treats them uniformly (see :func:`reception_state`).
    """
    validate_mode(mode)
    common = (sim, medium, node_id, mobility, radio, rng)
    if mode == "carq":
        return VehicleNode(*common, ap_ids, carq, name=name)
    if mode == "nocoop":
        return PassiveVehicleNode(*common, ap_ids, name=name)
    if mode == "arq":
        return ArqVehicleNode(*common, ap_ids, name=name)
    return EpidemicVehicleNode(
        *common,
        ap_ids,
        coverage_timeout_s=carq.coverage_timeout_s,
        name=name,
    )


def reception_state(car):
    """The car's flow-reception state, whatever protocol it runs.

    C-ARQ vehicles hold it on their protocol object; every baseline
    exposes it directly as ``state``.
    """
    protocol = getattr(car, "protocol", None)
    if protocol is not None:
        return protocol.state
    return car.state
