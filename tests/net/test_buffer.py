"""Packet buffer: storage, queries, capacity eviction."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.mac.frames import NodeId
from repro.net.buffer import PacketBuffer
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round


def add(buffer, flow, seq, size_bytes=1062):
    return buffer.add(NodeId(flow), seq, size_bytes)


class TestBasics:
    def test_add_and_has(self):
        buffer = PacketBuffer()
        assert add(buffer, 1, 5)
        assert buffer.has(NodeId(1), 5)
        assert not buffer.has(NodeId(1), 6)
        assert not buffer.has(NodeId(2), 5)

    def test_duplicate_add_returns_false(self):
        buffer = PacketBuffer()
        add(buffer, 1, 5)
        assert not add(buffer, 1, 5, size_bytes=40)
        assert len(buffer) == 1
        assert buffer.size_of(NodeId(1), 5) == 1062

    def test_size_of(self):
        buffer = PacketBuffer()
        add(buffer, 1, 5, size_bytes=1062)
        add(buffer, 1, 6, size_bytes=40)
        assert buffer.size_of(NodeId(1), 5) == 1062
        assert buffer.size_of(NodeId(1), 6) == 40
        assert buffer.size_of(NodeId(1), 7) is None
        assert buffer.size_of(NodeId(2), 5) is None

    def test_contains_protocol(self):
        buffer = PacketBuffer()
        add(buffer, 1, 5)
        assert (NodeId(1), 5) in buffer
        assert (NodeId(1), 6) not in buffer
        assert (NodeId(2), 5) not in buffer

    def test_clear_preserves_eviction_count(self):
        buffer = PacketBuffer(capacity=1)
        add(buffer, 1, 1)
        add(buffer, 1, 2)
        assert buffer.evictions == 1
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.evictions == 1
        # The arrival queue went with the packets: a full buffer again
        # evicts what came after the clear.
        add(buffer, 1, 3)
        add(buffer, 1, 4)
        assert list(buffer) == [(NodeId(1), 4)]
        assert buffer.evictions == 2


class TestFlowQueries:
    def test_seqs_for_flow(self):
        buffer = PacketBuffer()
        for seq in (3, 7, 5):
            add(buffer, 1, seq)
        add(buffer, 2, 99)
        assert buffer.seqs_for_flow(NodeId(1)) == {3, 5, 7}
        assert buffer.seqs_for_flow(NodeId(3)) == set()

    def test_flow_range(self):
        buffer = PacketBuffer()
        for seq in (3, 7, 5):
            add(buffer, 1, seq)
        assert buffer.flow_range(NodeId(1)) == (3, 7)

    def test_flow_range_empty(self):
        assert PacketBuffer().flow_range(NodeId(1)) is None

    def test_flows(self):
        buffer = PacketBuffer()
        add(buffer, 1, 1)
        add(buffer, 2, 1)
        assert buffer.flows() == {NodeId(1), NodeId(2)}

    def test_entries_in_insertion_order(self):
        buffer = PacketBuffer()
        add(buffer, 1, 2)
        add(buffer, 1, 1)
        assert list(buffer) == [(NodeId(1), 2), (NodeId(1), 1)]


class TestCapacity:
    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            PacketBuffer(capacity=0)

    def test_fifo_eviction(self):
        buffer = PacketBuffer(capacity=2)
        add(buffer, 1, 1)
        add(buffer, 1, 2)
        add(buffer, 1, 3)
        assert not buffer.has(NodeId(1), 1)
        assert buffer.has(NodeId(1), 2)
        assert buffer.has(NodeId(1), 3)
        assert buffer.evictions == 1

    def test_duplicates_do_not_refresh_age(self):
        buffer = PacketBuffer(capacity=2)
        add(buffer, 1, 1)
        add(buffer, 1, 2)
        add(buffer, 1, 1)  # duplicate — must not move to back
        add(buffer, 1, 3)
        assert not buffer.has(NodeId(1), 1)

    def test_evicted_packet_heard_again_goes_to_the_back(self):
        buffer = PacketBuffer(capacity=2)
        add(buffer, 1, 1)
        add(buffer, 1, 2)
        add(buffer, 1, 3)  # evicts 1
        assert add(buffer, 1, 1)  # heard again: evicts 2, queues behind 3
        assert not buffer.has(NodeId(1), 2)
        add(buffer, 1, 4)  # evicts 3, the oldest arrival, not 1
        assert not buffer.has(NodeId(1), 3)
        assert buffer.has(NodeId(1), 1)
        assert buffer.has(NodeId(1), 4)
        assert buffer.evictions == 3

    def test_flow_whose_last_packet_is_evicted_is_forgotten(self):
        buffer = PacketBuffer(capacity=2)
        add(buffer, 1, 1)
        add(buffer, 2, 1)
        add(buffer, 2, 2)  # evicts flow 1's only packet
        assert buffer.flows() == {NodeId(2)}
        assert buffer.flow_range(NodeId(1)) is None
        add(buffer, 1, 7)  # evicts (2, 1); flow 1 starts afresh
        assert buffer.flow_range(NodeId(1)) == (7, 7)
        assert buffer.flow_range(NodeId(2)) == (2, 2)

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=3), st.integers(0, 12)),
            max_size=80,
        ),
    )
    def test_matches_a_list_of_arrivals(self, capacity, packets):
        """Every query agrees with a plain FIFO list of arrivals."""
        buffer = PacketBuffer(capacity=capacity)
        arrivals: list[tuple[int, int]] = []
        evictions = 0
        for flow, seq in packets:
            fresh = (flow, seq) not in arrivals
            assert add(buffer, flow, seq) is fresh
            if fresh:
                if len(arrivals) >= capacity:
                    arrivals.pop(0)
                    evictions += 1
                arrivals.append((flow, seq))
            assert buffer.evictions == evictions
            assert sorted(buffer) == sorted(arrivals)
            assert buffer.flows() == {f for f, _ in arrivals}
            for f in (1, 2, 3):
                seqs = [s for g, s in arrivals if g == f]
                expected = (min(seqs), max(seqs)) if seqs else None
                assert buffer.flow_range(NodeId(f)) == expected

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    def test_never_exceeds_capacity(self, seqs):
        buffer = PacketBuffer(capacity=10)
        for seq in seqs:
            add(buffer, 1, seq)
        assert len(buffer) <= 10

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100))
    def test_unbounded_keeps_all_distinct(self, seqs):
        buffer = PacketBuffer()
        for seq in seqs:
            add(buffer, 1, seq)
        assert len(buffer) == len(set(seqs))


class TestMemory:
    def test_holds_at_most_64_bytes_per_buffered_packet(self):
        """After a default urban round, what the cars' cooperative
        buffers still hold is one dict entry per packet: no per-packet
        object, key tuple or index entry besides it."""
        tracemalloc.start()
        try:
            ctx = build_urban_round(UrbanScenarioConfig(), 0)
            ctx.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, "*/repro/net/buffer.py")]
            ).statistics("filename")
        )
        packets = sum(len(car.protocol.coop_buffer) for car in ctx.cars.values())
        assert packets >= 500  # the round really buffers for partners
        assert held <= 64 * packets
