"""The paper's contribution: Cooperative ARQ for delay-tolerant VANETs.

The protocol (paper §3) runs on every vehicle and has three phases:

* **Association** — implicit: a car is associated from the first AP frame
  it receives (:class:`~repro.core.state.Phase` tracks this).
* **Reception** — in coverage, record own packets, buffer packets addressed
  to cooperation partners, broadcast HELLOs that establish cooperator
  lists and responder ordering.
* **Cooperative-ARQ** — in the dark area (no AP frame for
  ``coverage_timeout``), cycle REQUESTs over the missing list; cooperators
  answer in their assigned back-off order, suppressing duplicates they
  overhear.

Extensions implemented alongside the base protocol (paper §3.3 note and §6
future work): batched REQUESTs, cooperator-selection strategies, and AP
retransmission policies.
"""

from repro.core.config import CarqConfig
from repro.core.state import FlowReceptionState, Phase
from repro.core.cooperators import CooperatorTable
from repro.core.selection import (
    AllNeighbors,
    BestK,
    CooperatorSelection,
    RandomK,
)
from repro.core.retransmission import (
    FixedRetransmission,
    RetransmissionPolicy,
)
from repro.core.protocol import CarqProtocol, CarqStats
from repro.core.vehicle import VehicleNode

__all__ = [
    "AllNeighbors",
    "BestK",
    "CarqConfig",
    "CarqProtocol",
    "CarqStats",
    "CooperatorSelection",
    "CooperatorTable",
    "FixedRetransmission",
    "FlowReceptionState",
    "Phase",
    "RandomK",
    "RetransmissionPolicy",
    "VehicleNode",
]
