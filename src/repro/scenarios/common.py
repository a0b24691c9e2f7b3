"""Shared wiring pieces every scenario plugin composes from.

Scenario builders differ in geometry and propagation, but they all repeat
the same moves: derive an independent per-round seed, lay out one AP flow
per car, spawn a mode-dispatched vehicle population, and reduce a
finished round's trace to per-flow reception matrices.  Those moves live
here, once.
"""

from __future__ import annotations

from repro.core.config import CarqConfig
from repro.mac.frames import NodeId
from repro.mac.medium import Medium
from repro.mobility.base import MobilityModel
from repro.net.ap import FlowConfig
from repro.radio.phy import RadioConfig
from repro.scenarios.modes import build_vehicle, reception_state
from repro.sim import Simulator
from repro.trace.capture import TraceCollector
from repro.trace.matrix import ReceptionMatrix

#: Node id of the (single) roadside access point in one-AP scenarios.
AP_NODE_ID: NodeId = NodeId(100)


def build_medium(sim: Simulator, channel, radio, *, trace=None) -> Medium:
    """The scenario's shared medium, honouring the radio's reception path.

    Every scenario builder wires its medium through here so the
    ``reception_fast_path`` field of
    :class:`~repro.scenarios.urban.RadioEnvironment` reaches the MAC layer
    uniformly (and campaigns can run the oracle arm per scenario).
    """
    return Medium(sim, channel, trace=trace, fast_path=radio.reception_fast_path)


def round_seed(base_seed: int, round_index: int, *, stride: int = 7919) -> int:
    """Independent per-round simulator seed (rounds are i.i.d. repetitions).

    Every scenario derives its round seeds this way; distinct *stride*
    primes (7919 urban, 6007 highway, 4099 multi-AP) keep scenario seed
    sequences disjoint for shared base seeds.
    """
    return base_seed + stride * (round_index + 1)


def car_ids(n_cars: int, *, first: int = 1) -> list[NodeId]:
    """Vehicle node ids, platoon order (car ``first`` leads)."""
    return [NodeId(first + i) for i in range(n_cars)]


def make_flows(
    destinations: list[NodeId],
    packet_rate_hz: float,
    payload_bytes: int,
    *,
    blocks: int | None = None,
) -> list[FlowConfig]:
    """One AP flow per destination car (file mode when *blocks* is set)."""
    return [
        FlowConfig(
            destination=car_id,
            packet_rate_hz=packet_rate_hz,
            payload_bytes=payload_bytes,
            blocks=blocks,
        )
        for car_id in destinations
    ]


def spawn_platoon(
    mode: str,
    sim: Simulator,
    medium: Medium,
    ids: list[NodeId],
    mobilities: list[MobilityModel],
    radio: RadioConfig,
    ap_ids: NodeId | list[NodeId],
    carq: CarqConfig,
) -> dict[NodeId, object]:
    """Build (without starting) one vehicle per (id, mobility) pair.

    Each car gets its own named random stream ``car-<id>``, so protocol
    draws never couple across cars or modes.
    """
    cars: dict[NodeId, object] = {}
    for car_id, mobility in zip(ids, mobilities):
        cars[car_id] = build_vehicle(
            mode,
            sim,
            medium,
            car_id,
            mobility,
            radio,
            sim.streams.get(f"car-{car_id}"),
            ap_ids,
            carq,
            name=f"car-{car_id}",
        )
    return cars


def collect_matrices(
    capture: TraceCollector,
    cars: dict[NodeId, object],
    *,
    flows: list[NodeId] | None = None,
) -> dict[NodeId, ReceptionMatrix]:
    """Per-flow reception matrices of one finished round.

    Every car in *cars* serves as an observer (its overheard copies feed
    the joint-reception columns); matrices are built only for *flows*
    (default: every car).  Works for any protocol mode via
    :func:`repro.scenarios.modes.reception_state`.
    """
    observers = list(cars)
    matrices: dict[NodeId, ReceptionMatrix] = {}
    for car_id in flows if flows is not None else observers:
        direct_by_car = {
            observer: capture.delivered_seqs(observer, car_id)
            for observer in observers
        }
        recovered = set(reception_state(cars[car_id]).recovered)
        matrix = ReceptionMatrix.build(car_id, direct_by_car, recovered)
        if matrix is not None:
            matrices[car_id] = matrix
    return matrices


def frames_sent_by_node(ap, cars: dict[NodeId, object]) -> dict[NodeId, int]:
    """Transmission counts per node (AP first), for overhead accounting."""
    counts = {ap.node_id: ap.iface.frames_sent}
    for car_id, car in cars.items():
        counts[car_id] = car.iface.frames_sent
    return counts
