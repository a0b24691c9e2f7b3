"""Bounded packet storage.

Cars store two kinds of packets: their *own* flow (the download) and
packets buffered *for cooperation partners*.  Both use this structure.
Capacity may be bounded with FIFO eviction — a real in-car device has
finite memory — and no scenario sets one by default, so eviction runs in
the capacity-pressure tests and in rounds that set
``carq.buffer_capacity``.

A stored packet is one entry of its flow's insertion-ordered
``{seq: size in bytes}`` dict; the size is all a responder reads back
when it answers a REQUEST.  Keeping the packets grouped by flow makes
``seqs_for_flow`` / ``flow_range`` / ``flows`` cheap — every HELLO
beacon advertises the buffered range of every flow — and a buffer with a
capacity also keeps a queue of its ``(flow, seq)`` keys in arrival
order.  That queue is exact because a packet leaves only by eviction or
:meth:`PacketBuffer.clear`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.errors import ConfigurationError
from repro.mac.frames import NodeId
from repro.obs.probes import buffer_probes


class PacketBuffer:
    """Packets keyed by ``(flow destination, sequence number)``.

    Parameters
    ----------
    capacity:
        Maximum number of stored packets; ``None`` means unbounded.
        When full, the oldest packet (arrival order) is evicted.
    """

    __slots__ = (
        "_capacity",
        "_flows",
        "_arrivals",
        "_flow_bounds",
        "evictions",
        "_obs",
    )

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"buffer capacity must be positive, got {capacity!r}")
        self._capacity = capacity
        # flow destination → {seq: size in bytes}; a flow whose last
        # packet left is dropped, so flows() stays exact.
        self._flows: dict[NodeId, dict[int, int]] = {}
        # (flow, seq) keys in arrival order, for FIFO eviction; only a
        # buffer with a capacity evicts, so only it pays for the queue.
        self._arrivals: deque[tuple[NodeId, int]] | None = (
            None if capacity is None else deque()
        )
        # flow destination → cached (min, max) stored seq, or None when
        # a boundary packet was evicted and the bounds must be
        # recomputed on the next flow_range query.  Every HELLO beacon
        # advertises the range of every buffered flow, so the add path
        # keeps this O(1) instead of min()+max() over the flow's seqs.
        self._flow_bounds: dict[NodeId, tuple[int, int] | None] = {}
        #: Number of entries evicted due to capacity pressure.
        self.evictions = 0
        # Hit/miss/eviction telemetry (None while repro.obs is disabled).
        self._obs = buffer_probes()

    def __len__(self) -> int:
        return sum(len(seqs) for seqs in self._flows.values())

    def __contains__(self, key: tuple[NodeId, int]) -> bool:
        seqs = self._flows.get(key[0])
        return seqs is not None and key[1] in seqs

    def __iter__(self) -> Iterator[tuple[NodeId, int]]:
        """The stored ``(flow, seq)`` keys, flow by flow, each flow's in
        arrival order."""
        return (
            (flow_dst, seq) for flow_dst, seqs in self._flows.items() for seq in seqs
        )

    def add(self, flow_dst: NodeId, seq: int, size_bytes: int) -> bool:
        """Store a packet; returns ``False`` if it was already present.

        Duplicates do not refresh arrival order (re-hearing an old packet
        must not protect it from eviction forever).
        """
        seqs = self._flows.get(flow_dst)
        if seqs is not None and seq in seqs:
            return False
        arrivals = self._arrivals
        if arrivals is not None:
            if len(arrivals) >= self._capacity:
                self._evict(*arrivals.popleft())
                seqs = self._flows.get(flow_dst)
            arrivals.append((flow_dst, seq))
        if seqs is None:
            self._flows[flow_dst] = {seq: size_bytes}
            self._flow_bounds[flow_dst] = (seq, seq)
            return True
        seqs[seq] = size_bytes
        bounds = self._flow_bounds[flow_dst]
        if bounds is not None:
            lo, hi = bounds
            if seq < lo:
                self._flow_bounds[flow_dst] = (seq, hi)
            elif seq > hi:
                self._flow_bounds[flow_dst] = (lo, seq)
        return True

    def _evict(self, flow_dst: NodeId, seq: int) -> None:
        seqs = self._flows[flow_dst]
        del seqs[seq]
        if not seqs:
            del self._flows[flow_dst]
            del self._flow_bounds[flow_dst]
        else:
            bounds = self._flow_bounds[flow_dst]
            if bounds is not None and (seq == bounds[0] or seq == bounds[1]):
                # A boundary left: mark dirty, recompute lazily on demand
                # (interior evictions keep the cached bounds exact).
                self._flow_bounds[flow_dst] = None
        self.evictions += 1
        if self._obs is not None:
            self._obs.evictions.value += 1

    def has(self, flow_dst: NodeId, seq: int) -> bool:
        """Whether the packet is stored."""
        seqs = self._flows.get(flow_dst)
        found = seqs is not None and seq in seqs
        if self._obs is not None:
            if found:
                self._obs.hits.value += 1
            else:
                self._obs.misses.value += 1
        return found

    def size_of(self, flow_dst: NodeId, seq: int) -> int | None:
        """The stored packet's size in bytes, or ``None``."""
        seqs = self._flows.get(flow_dst)
        size = None if seqs is None else seqs.get(seq)
        if self._obs is not None:
            if size is not None:
                self._obs.hits.value += 1
            else:
                self._obs.misses.value += 1
        return size

    def seqs_for_flow(self, flow_dst: NodeId) -> set[int]:
        """All stored sequence numbers of one flow (a copy)."""
        return set(self._flows.get(flow_dst, ()))

    def flow_range(self, flow_dst: NodeId) -> tuple[int, int] | None:
        """``(min, max)`` stored sequence numbers of a flow, or ``None``.

        O(1) for the steady state (bounds are maintained incrementally
        by the add path); only the first query after a boundary packet
        was evicted pays a recompute.
        """
        bounds = self._flow_bounds.get(flow_dst)
        if bounds is None:
            seqs = self._flows.get(flow_dst)
            if not seqs:
                return None
            bounds = (min(seqs), max(seqs))
            self._flow_bounds[flow_dst] = bounds
        return bounds

    def flows(self) -> set[NodeId]:
        """All flow destinations with at least one stored packet."""
        return set(self._flows)

    def clear(self) -> None:
        """Drop everything (eviction counter is preserved)."""
        self._flows.clear()
        self._flow_bounds.clear()
        if self._arrivals is not None:
            self._arrivals.clear()
