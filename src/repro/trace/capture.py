"""Per-round frame capture with per-node / per-flow queries."""

from __future__ import annotations

from collections import defaultdict

from repro.mac.frames import DataFrame, Frame, NodeId
from repro.mac.medium import LossCause
from repro.radio.modulation import WifiRate
from repro.trace.records import RxRecord, TxRecord


class TraceCollector:
    """Records every TX and per-receiver RX event of a medium.

    Install via ``Medium(..., trace=collector)``.

    The query helpers below are the post-processing primitives the paper's
    evaluation needs: which data packets of which flow were transmitted,
    and which were captured at each car.

    One collector lives on every traced medium and is touched on every
    TX/RX, so it is slotted alongside the other hot-path objects.
    """

    __slots__ = (
        "tx_records",
        "rx_records",
        "_data_deliveries",
        "_data_transmissions",
    )

    def __init__(self) -> None:
        self.tx_records: list[TxRecord] = []
        self.rx_records: list[RxRecord] = []
        # (rx node, flow) → {seq: first delivery time}
        self._data_deliveries: dict[tuple[NodeId, NodeId], dict[int, float]] = (
            defaultdict(dict)
        )
        # flow → {seq: first tx time}
        self._data_transmissions: dict[NodeId, dict[int, float]] = defaultdict(dict)

    # -- medium hooks --------------------------------------------------------

    def on_tx(self, time: float, node: NodeId, frame: Frame, rate: WifiRate) -> None:
        """Medium callback: a frame started transmission."""
        self.tx_records.append(TxRecord(time, node, frame, rate))
        if isinstance(frame, DataFrame):
            self._data_transmissions[frame.flow_dst].setdefault(frame.seq, time)

    def on_rx(
        self,
        time: float,
        node: NodeId,
        frame: Frame,
        cause: LossCause,
        snr_db: float,
        rx_power_dbm: float,
    ) -> None:
        """Medium callback: an arrival finished (delivered or lost)."""
        self.rx_records.append(
            RxRecord(time, node, frame, cause, snr_db, rx_power_dbm)
        )
        if cause is LossCause.DELIVERED and isinstance(frame, DataFrame):
            self._data_deliveries[(node, frame.flow_dst)].setdefault(frame.seq, time)

    # -- queries -----------------------------------------------------------------

    def transmitted_seqs(self, flow: NodeId) -> set[int]:
        """All data sequence numbers the AP transmitted on *flow*."""
        return set(self._data_transmissions[flow])

    def delivered_seqs(self, node: NodeId, flow: NodeId) -> set[int]:
        """Data seqs of *flow* captured (delivered) at *node*."""
        return set(self._data_deliveries[(node, flow)])

    def delivery_time(self, node: NodeId, flow: NodeId, seq: int) -> float | None:
        """First delivery time of a packet at a node, or ``None``."""
        return self._data_deliveries[(node, flow)].get(seq)

    def loss_causes(self, node: NodeId) -> dict[LossCause, int]:
        """Histogram of RX outcomes at one node."""
        histogram: dict[LossCause, int] = defaultdict(int)
        for record in self.rx_records:
            if record.node == node:
                histogram[record.cause] += 1
        return dict(histogram)

    def frames_sent_by(self, node: NodeId) -> int:
        """Number of frames transmitted by a node."""
        return sum(1 for record in self.tx_records if record.node == node)

    def clear(self) -> None:
        """Drop everything (for reuse across rounds)."""
        self.tx_records.clear()
        self.rx_records.clear()
        self._data_deliveries.clear()
        self._data_transmissions.clear()
