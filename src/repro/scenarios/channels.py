"""Channel presets: one propagation stack per scenario environment.

Three environments cover the paper's studies — the shadowed urban street
canyon of the testbed, the open two-ray highway of the drive-thru
motivation, and the lightly-built corridor of the multi-AP download road.
Each preset builds a complete :class:`~repro.radio.channel.Channel` from
a :class:`~repro.scenarios.urban.RadioEnvironment` and the
simulator's named random streams, so every scenario draws its fading,
shadowing, and error randomness from the same stream names and stays
reproducible under the campaign engine.
"""

from __future__ import annotations

import typing

from repro.mac.frames import NodeId
from repro.radio.channel import Channel
from repro.radio.fading import RicianFading
from repro.radio.obstruction import BuildingObstruction
from repro.radio.pathloss import LogDistancePathLoss, TwoRayGroundPathLoss
from repro.radio.shadowing import (
    CompositeShadowing,
    GudmundsonShadowing,
    TemporalTxShadowing,
)
from repro.sim import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.urban import UrbanTestbed


def urban_channel(radio, sim: Simulator, hub: NodeId, testbed=None) -> Channel:
    """The urban street-canyon stack: log-distance + composite shadowing.

    Per-link Gudmundson shadowing models the street geometry; an
    AP-anchored temporal component (passers-by at the window antenna)
    hits every AP link at once — the source of joint losses.  Buildings
    of the testbed, when given, obstruct line of sight.
    """
    obstruction = None
    if testbed is not None and testbed.buildings:
        obstruction = BuildingObstruction(
            testbed.buildings, loss_per_building_db=radio.building_loss_db
        )
    per_link = GudmundsonShadowing(
        sim.streams.get("shadowing"),
        sigma_db=radio.shadowing_sigma_db,
        decorrelation_distance_m=radio.shadowing_decorrelation_m,
    )
    shadowing = per_link
    if radio.common_shadowing_sigma_db > 0.0:
        common = TemporalTxShadowing(
            sim.streams.get("shadowing-common"),
            sigma_db=radio.common_shadowing_sigma_db,
            tau_s=radio.common_shadowing_tau_s,
            hub=hub,
        )
        shadowing = CompositeShadowing([per_link, common])
    return Channel(
        pathloss=LogDistancePathLoss(
            exponent=radio.pathloss_exponent,
            reference_loss_db=radio.reference_loss_db,
        ),
        shadowing=shadowing,
        fading=RicianFading(sim.streams.get("fading"), k_factor=radio.rician_k),
        obstruction=obstruction,
        rng=sim.streams.get("channel"),
    )


def highway_channel(radio, sim: Simulator, hub: NodeId) -> Channel:
    """The open-road stack: two-ray ground, heavy scatter, no buildings."""
    return Channel(
        pathloss=TwoRayGroundPathLoss(tx_height_m=6.0, rx_height_m=1.5),
        shadowing=CompositeShadowing(
            [
                GudmundsonShadowing(
                    sim.streams.get("shadowing"),
                    sigma_db=radio.shadowing_sigma_db,
                    decorrelation_distance_m=25.0,
                ),
                TemporalTxShadowing(
                    sim.streams.get("shadowing-common"),
                    sigma_db=radio.common_shadowing_sigma_db,
                    tau_s=radio.common_shadowing_tau_s,
                    hub=hub,
                ),
            ]
        ),
        fading=RicianFading(sim.streams.get("fading"), k_factor=radio.rician_k),
        rng=sim.streams.get("channel"),
    )


def corridor_channel(radio, sim: Simulator) -> Channel:
    """The multi-AP download road: log-distance with heavier shadowing."""
    return Channel(
        pathloss=LogDistancePathLoss(
            exponent=radio.pathloss_exponent,
            reference_loss_db=radio.reference_loss_db,
        ),
        shadowing=GudmundsonShadowing(
            sim.streams.get("shadowing"),
            sigma_db=radio.shadowing_sigma_db + 2.0,
            decorrelation_distance_m=radio.shadowing_decorrelation_m,
        ),
        fading=RicianFading(sim.streams.get("fading"), k_factor=radio.rician_k),
        rng=sim.streams.get("channel"),
    )
