"""Epidemic-exchange baseline for the dark area.

Classic epidemic routing [6] applied to the platoon's recovery problem:
every node buffers *everything* it overhears (all flows, not just
cooperation partners), periodically advertises its holdings with a
summary vector, and on receiving a peer's summary floods the packets the
peer lacks.

Delivery-wise this also converges to the joint reception set; the point
of the baseline is *overhead*: C-ARQ's destination-driven REQUESTs only
move packets the destination is missing, while epidemic anti-entropy
pushes every difference in both directions.  The
``overhead-epidemic`` benchmark measures the ratio.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.state import FlowReceptionState
from repro.errors import ConfigurationError
from repro.mac.frames import (
    BROADCAST,
    CoopDataFrame,
    DataFrame,
    Frame,
    NodeId,
    SummaryFrame,
)
from repro.mac.medium import Medium, RxInfo
from repro.mac.timing import frame_airtime
from repro.mobility.base import MobilityModel
from repro.net.buffer import PacketBuffer
from repro.net.node import Node
from repro.radio.phy import RadioConfig
from repro.sim import Simulator


class EpidemicVehicleNode(Node):
    """A car running summary-vector anti-entropy in the dark area.

    Parameters
    ----------
    summary_period_s:
        Interval between summary broadcasts while out of coverage.
    coverage_timeout_s:
        AP silence that switches the node into exchange mode (same
        meaning as the C-ARQ coverage timeout, for a fair comparison).
    max_summary_entries:
        Cap on (flow, seq) pairs per summary frame.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: NodeId,
        mobility: MobilityModel,
        radio: RadioConfig,
        rng: np.random.Generator,
        ap_id: NodeId,
        *,
        summary_period_s: float = 1.0,
        coverage_timeout_s: float = 5.0,
        max_summary_entries: int = 512,
        name: str = "",
    ) -> None:
        super().__init__(sim, medium, node_id, mobility, radio, rng, name=name)
        if summary_period_s <= 0.0:
            raise ConfigurationError("summary period must be positive")
        if coverage_timeout_s <= 0.0:
            raise ConfigurationError("coverage timeout must be positive")
        self.ap_id = ap_id
        self.state = FlowReceptionState()
        self.buffer = PacketBuffer()
        self.summary_period_s = summary_period_s
        self.coverage_timeout_s = coverage_timeout_s
        self.max_summary_entries = max_summary_entries
        self._last_ap_time: float | None = None
        self.summaries_sent = 0
        self.payloads_forwarded = 0
        self.iface.add_receive_callback(self._on_frame)

    def start(self) -> None:
        """Launch the anti-entropy beacon process."""
        self.sim.process(self._summary_loop(), name=f"{self.name}.summary")

    # -- helpers --------------------------------------------------------------

    def holdings(self) -> set[tuple[NodeId, int]]:
        """All (flow, seq) pairs this node can offer."""
        held = set(self.buffer)
        held |= {(self.node_id, seq) for seq in self.state.received}
        held |= {(self.node_id, seq) for seq in self.state.recovered}
        return held

    def in_dark_area(self) -> bool:
        """Out of AP coverage (after at least one association)."""
        return (
            self._last_ap_time is not None
            and self.sim.now - self._last_ap_time > self.coverage_timeout_s
        )

    # -- frame handling -----------------------------------------------------------

    def _on_frame(self, frame: Frame, info: RxInfo) -> None:
        now = self.sim.now
        if isinstance(frame, DataFrame) and frame.src == self.ap_id:
            self._last_ap_time = now
            if frame.flow_dst == self.node_id:
                self.state.record_direct(frame.seq, now)
            else:
                # Epidemic nodes buffer *everything* — no cooperator gating.
                self.buffer.add(frame.flow_dst, frame.seq, frame.size_bytes)
        elif isinstance(frame, CoopDataFrame):
            if frame.flow_dst == self.node_id:
                self.state.record_recovered(frame.seq, now)
            else:
                self.buffer.add(frame.flow_dst, frame.seq, frame.size_bytes)
        elif isinstance(frame, SummaryFrame):
            self._answer_summary(frame)

    def _answer_summary(self, frame: SummaryFrame) -> None:
        peer_has = set(frame.holdings)
        to_send = sorted(self.holdings() - peer_has)
        if not to_send:
            return
        self.sim.process(
            self._flood(NodeId(frame.src), to_send), name=f"{self.name}.flood"
        )

    def _flood(
        self, peer: NodeId, items: list[tuple[NodeId, int]]
    ) -> typing.Generator[float, None, None]:
        for flow, seq in items:
            size = self._size_of(flow, seq)
            if size is None:
                continue
            out = CoopDataFrame(
                src=self.node_id,
                dst=peer,
                size_bytes=size,
                flow_dst=flow,
                seq=seq,
                relayer=self.node_id,
            )
            self.iface.send(out)
            self.payloads_forwarded += 1
            yield frame_airtime(size, self.iface.config.rate) + 0.002

    def _size_of(self, flow: NodeId, seq: int) -> int | None:
        size = self.buffer.size_of(flow, seq)
        if size is not None:
            return size
        if flow == self.node_id and self.state.has(seq):
            return DataFrame.size_for_payload(1000)
        return None

    # -- beacon ----------------------------------------------------------------------

    def _summary_loop(self) -> typing.Generator[float, None, None]:
        while True:
            yield self.summary_period_s
            if not self.in_dark_area():
                continue
            holdings = sorted(self.holdings())[: self.max_summary_entries]
            frame = SummaryFrame(
                src=self.node_id,
                dst=BROADCAST,
                size_bytes=SummaryFrame.size_for(len(holdings)),
                holdings=tuple(holdings),
            )
            self.iface.send(frame)
            self.summaries_sent += 1
