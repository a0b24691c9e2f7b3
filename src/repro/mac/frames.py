"""Frame taxonomy.

Sizes include MAC and (for data) IP/ICMP headers so airtimes match the
testbed's "1000-byte ICMP payload" traffic.  Frames are immutable value
objects; the medium copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NewType

NodeId = NewType("NodeId", int)

#: Destination meaning "all stations in range".
BROADCAST: NodeId = NodeId(-1)

#: 802.11 MAC header + FCS overhead in bytes.
MAC_OVERHEAD_BYTES = 34

#: IP + ICMP header bytes on data frames (the AP sent ICMP echo requests).
IP_ICMP_OVERHEAD_BYTES = 28


@dataclass(slots=True, frozen=True)
class Frame:
    """Base class for everything that crosses the medium.

    Attributes
    ----------
    src:
        Transmitting node.
    dst:
        Destination node or :data:`BROADCAST`.  Interfaces are promiscuous:
        delivery is decided by the channel, not by this field.
    size_bytes:
        Total on-air size used for airtime and error-rate computations.
    """

    src: NodeId
    dst: NodeId
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {self.size_bytes!r}")


@dataclass(slots=True, frozen=True)
class DataFrame(Frame):
    """A numbered data packet of one AP→car flow.

    ``flow_dst`` identifies the flow (the car the packet is addressed to) —
    it stays constant when a cooperator later relays the packet, while
    ``src``/``dst`` describe the current hop.
    """

    flow_dst: NodeId = BROADCAST
    seq: int = 0

    @staticmethod
    def size_for_payload(payload_bytes: int) -> int:
        """On-air size of a data frame with the given ICMP payload."""
        return payload_bytes + IP_ICMP_OVERHEAD_BYTES + MAC_OVERHEAD_BYTES


@dataclass(slots=True, frozen=True)
class HelloFrame(Frame):
    """Periodic broadcast beacon establishing cooperation relationships.

    Attributes
    ----------
    cooperators:
        The sender's ordered cooperator list.  Receivers that find
        themselves at index *i* know (a) that they must buffer for the
        sender and (b) that they hold responder back-off order *i* in the
        recovery phase (§3.2 of the paper).
    flow_ranges:
        Per-flow ``(min_seq, max_seq)`` of packets the sender has buffered,
        as a tuple of ``(flow_dst, lo, hi)`` triples.  This implements the
        range-discovery interpretation recorded in DESIGN.md §2.
    """

    cooperators: tuple[NodeId, ...] = ()
    flow_ranges: tuple[tuple[NodeId, int, int], ...] = ()

    @staticmethod
    def size_for(n_cooperators: int, n_ranges: int) -> int:
        """HELLO frames are small: header + 6 B per id + 10 B per range."""
        return MAC_OVERHEAD_BYTES + 8 + 6 * n_cooperators + 10 * n_ranges


@dataclass(slots=True, frozen=True)
class RequestFrame(Frame):
    """Dark-area request for missing packets of the sender's own flow.

    The paper's base protocol puts exactly one sequence number per REQUEST;
    the batched optimisation (§3.3) packs many.  ``seqs`` is the requested
    set either way.
    """

    seqs: tuple[int, ...] = ()

    @staticmethod
    def size_for(n_seqs: int) -> int:
        """Header + 4 B per requested sequence number."""
        return MAC_OVERHEAD_BYTES + 8 + 4 * n_seqs


@dataclass(slots=True, frozen=True)
class CoopDataFrame(Frame):
    """A buffered packet relayed by a cooperator during recovery."""

    flow_dst: NodeId = BROADCAST
    seq: int = 0
    relayer: NodeId = BROADCAST


@dataclass(slots=True, frozen=True)
class NackFrame(Frame):
    """Cumulative NACK — the ARQ baseline's in-coverage feedback."""

    missing: tuple[int, ...] = ()

    @staticmethod
    def size_for(n_seqs: int) -> int:
        """Header + 4 B per NACKed sequence number."""
        return MAC_OVERHEAD_BYTES + 8 + 4 * n_seqs


@dataclass(slots=True, frozen=True)
class SummaryFrame(Frame):
    """Epidemic-baseline summary vector: which packets the sender holds.

    ``holdings`` lists ``(flow_dst, seq)`` pairs — the classic epidemic
    routing anti-entropy advertisement [6].
    """

    holdings: tuple[tuple[NodeId, int], ...] = field(default_factory=tuple)

    @staticmethod
    def size_for(n_entries: int) -> int:
        """Header + 6 B per advertised (flow, seq) pair."""
        return MAC_OVERHEAD_BYTES + 8 + 6 * n_entries
