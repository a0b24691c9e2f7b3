"""Per-round capture of first data deliveries, queried per node and flow."""

from __future__ import annotations

from collections import defaultdict

from repro.mac.frames import DataFrame, Frame, NodeId
from repro.mac.medium import LossCause
from repro.radio.modulation import WifiRate


class TraceCollector:
    """Keeps when each node first received each data packet of each flow.

    Install via ``Medium(..., trace=collector)``.  The medium reports
    every frame put on the air (:meth:`on_tx`) and every arrival
    (:meth:`on_rx`); the paper's evaluation reads one fact per packet —
    when, if ever, each car first captured it — so that is all this
    keeps: one ``{seq: first delivery time}`` map per (receiver, flow).

    One collector lives on every traced medium and is touched on every
    TX/RX, so it is slotted alongside the other hot-path objects.
    """

    __slots__ = ("_deliveries",)

    def __init__(self) -> None:
        # (rx node, flow) → {seq: first delivery time}
        self._deliveries: dict[tuple[NodeId, NodeId], dict[int, float]] = (
            defaultdict(dict)
        )

    # -- medium hooks --------------------------------------------------------

    def on_tx(self, time: float, node: NodeId, frame: Frame, rate: WifiRate) -> None:
        """Medium callback: a frame started transmission (nothing is kept)."""

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
        if cause is LossCause.DELIVERED and isinstance(frame, DataFrame):
            self._deliveries[(node, frame.flow_dst)].setdefault(frame.seq, time)

    # -- queries -----------------------------------------------------------------

    def delivered_seqs(self, node: NodeId, flow: NodeId) -> set[int]:
        """Data seqs of *flow* captured (delivered) at *node*."""
        return set(self._deliveries.get((node, flow), ()))

    def delivery_time(self, node: NodeId, flow: NodeId, seq: int) -> float | None:
        """First delivery time of a packet at a node, or ``None``."""
        seqs = self._deliveries.get((node, flow))
        return None if seqs is None else seqs.get(seq)
