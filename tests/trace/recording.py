"""A trace collector that also keeps the per-frame log, for tests.

Production rounds keep only first data deliveries
(:class:`~repro.trace.capture.TraceCollector`).  Tests that reason about
individual frames — who sent what and when, and how each arrival ended —
install :class:`RecordingCollector` instead: it answers the same queries
and also appends one record per transmission and per arrival.
"""

from __future__ import annotations

import typing

from repro.mac.frames import Frame, NodeId
from repro.mac.medium import LossCause
from repro.radio.modulation import WifiRate
from repro.trace.capture import TraceCollector


class TxRecord(typing.NamedTuple):
    """One frame put on the air."""

    time: float
    node: NodeId
    frame: Frame
    rate: WifiRate


class RxRecord(typing.NamedTuple):
    """One frame arriving (or failing to arrive) at one receiver.

    ``cause`` is :attr:`~repro.mac.medium.LossCause.DELIVERED` for
    successful receptions; other values classify the loss.  Arrivals far
    below sensitivity generate no record at all (a real sniffer never sees
    them).
    """

    time: float
    node: NodeId
    frame: Frame
    cause: LossCause
    snr_db: float
    rx_power_dbm: float

    @property
    def delivered(self) -> bool:
        """Whether the frame was received correctly."""
        return self.cause is LossCause.DELIVERED


class RecordingCollector(TraceCollector):
    """:class:`TraceCollector` plus a record per TX and per arrival."""

    __slots__ = ("tx_records", "rx_records")

    def __init__(self) -> None:
        super().__init__()
        self.tx_records: list[TxRecord] = []
        self.rx_records: list[RxRecord] = []

    def on_tx(self, time: float, node: NodeId, frame: Frame, rate: WifiRate) -> None:
        super().on_tx(time, node, frame, rate)
        self.tx_records.append(TxRecord(time, node, frame, rate))

    def on_rx(
        self,
        time: float,
        node: NodeId,
        frame: Frame,
        cause: LossCause,
        snr_db: float,
        rx_power_dbm: float,
    ) -> None:
        super().on_rx(time, node, frame, cause, snr_db, rx_power_dbm)
        self.rx_records.append(
            RxRecord(time, node, frame, cause, snr_db, rx_power_dbm)
        )
