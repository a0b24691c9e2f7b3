"""The road-side access point (infostation) application.

The testbed AP "continually transmit[s] numbered packets addressed to each
car": one flow per car, a fixed packet rate and payload, no MAC
retransmissions.  :class:`AccessPoint` reproduces exactly that, plus an
optional retransmission policy hook used by the ARQ baseline and the
retransmission ablation (paper §6 future work).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, require_positive
from repro.mac.frames import DataFrame, NodeId
from repro.mac.medium import Medium
from repro.mobility.base import MobilityModel
from repro.net.node import Node
from repro.radio.phy import RadioConfig
from repro.sim import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.retransmission import RetransmissionPolicy


@dataclass(slots=True, frozen=True)
class FlowConfig:
    """One AP→car data flow.

    Attributes
    ----------
    destination:
        The car the flow is addressed to.
    packet_rate_hz:
        Packets per second (testbed: 5).
    payload_bytes:
        Application payload per packet (testbed: 1000-byte ICMP).
    first_seq:
        Sequence number of the first packet.
    blocks:
        ``None`` streams ever-increasing sequence numbers (the testbed's
        numbered ICMP stream).  An integer *B* switches to *file mode*:
        the AP cyclically broadcasts blocks ``first_seq .. first_seq+B-1``
        — the multi-AP download study's workload, where a car completes
        once it holds all *B* distinct blocks.
    """

    destination: NodeId
    packet_rate_hz: float = 5.0
    payload_bytes: int = 1000
    first_seq: int = 1
    blocks: int | None = None

    def __post_init__(self) -> None:
        require_positive("packet rate", packet_rate_hz=self.packet_rate_hz)
        if self.payload_bytes <= 0:
            raise ConfigurationError("payload must be positive")
        if self.blocks is not None and self.blocks <= 0:
            raise ConfigurationError("blocks must be positive when set")


class AccessPoint(Node):
    """An infostation streaming numbered packets to each configured flow.

    Parameters
    ----------
    flows:
        One :class:`FlowConfig` per car.
    jitter_fraction:
        Uniform jitter applied to each inter-packet gap (models the
        software sender of the testbed); 0 disables.
    retransmission_policy:
        Optional policy consulted after each transmission round-trip —
        ``None`` reproduces the paper (retransmissions disabled).
    """

    __slots__ = (
        "flows",
        "_jitter_fraction",
        "_rng",
        "_retx_policy",
        "last_seq_sent",
        "frames_sent_per_flow",
        "_running",
    )

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: NodeId,
        mobility: MobilityModel,
        radio: RadioConfig,
        rng: np.random.Generator,
        flows: typing.Sequence[FlowConfig],
        *,
        jitter_fraction: float = 0.05,
        retransmission_policy: "RetransmissionPolicy | None" = None,
        name: str = "ap",
    ) -> None:
        super().__init__(sim, medium, node_id, mobility, radio, rng, name=name)
        if not flows:
            raise ConfigurationError("an access point needs at least one flow")
        destinations = [f.destination for f in flows]
        if len(set(destinations)) != len(destinations):
            raise ConfigurationError("duplicate flow destinations")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1)")
        self.flows = tuple(flows)
        self._jitter_fraction = jitter_fraction
        self._rng = rng
        self._retx_policy = retransmission_policy
        #: Highest sequence number sent so far, per flow destination.
        self.last_seq_sent: dict[NodeId, int] = {}
        #: Total data frames transmitted per flow (including retransmissions).
        self.frames_sent_per_flow: dict[NodeId, int] = {f.destination: 0 for f in flows}
        self._running = False

    def start(self) -> None:
        """Launch one sender timer chain per flow."""
        if self._running:
            raise ConfigurationError(f"{self.name!r} already started")
        self._running = True
        for flow in self.flows:
            self._start_flow(flow)

    # The sender is a flat self-rescheduling callback rather than a
    # generator process: a dense round resumes the AP senders ~100k
    # times, and the process machinery's per-resumption overhead showed
    # up in profiles.  The callback schedules exactly the events the
    # generator yielded (kick-off at the current instant, then one timer
    # per packet).  Each jitter is NumPy's own ``uniform(low, high)``
    # formula, ``low + (high - low) * next_double``, applied to one
    # ``random()`` draw: the same bits from the same stream position as
    # ``Generator.uniform(-jitter, jitter)``, at a quarter of its call
    # cost, so the event sequence — and every downstream tie-break — is
    # unchanged.  A file-mode flow builds block b's frame on its first
    # cycle and sends that object again on every later one.
    def _start_flow(self, flow: FlowConfig) -> None:
        interval = 1.0 / flow.packet_rate_hz
        jittered = self._jitter_fraction > 0.0
        jitter = self._jitter_fraction * interval
        next_double = self._rng.random
        src = self.node_id
        dst = flow.destination
        size = DataFrame.size_for_payload(flow.payload_bytes)
        first_seq = flow.first_seq
        blocks = flow.blocks
        file_frames: list[DataFrame] = []
        counter = 0

        def tick() -> None:
            nonlocal counter
            if blocks is None:
                frame = DataFrame(src, dst, size, dst, first_seq + counter)
            elif counter < blocks:
                frame = DataFrame(src, dst, size, dst, first_seq + counter)
                file_frames.append(frame)
            else:
                frame = file_frames[counter % blocks]
            self.iface.send(frame)
            self.last_seq_sent[dst] = frame.seq
            self.frames_sent_per_flow[dst] += 1
            if self._retx_policy is not None:
                for _ in range(self._retx_policy.copies_for(dst, frame.seq) - 1):
                    self.iface.send(frame)
                    self.frames_sent_per_flow[dst] += 1
            counter += 1
            if jittered:
                delay = interval + (-jitter + (jitter - -jitter) * next_double())
            else:
                delay = interval
            self.sim.schedule(delay, tick)

        self.sim.schedule(0.0, tick)
