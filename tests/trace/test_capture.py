"""Trace collector: first-delivery capture and queries."""

import tracemalloc

from repro.mac.frames import DataFrame, HelloFrame, NodeId
from repro.mac.medium import LossCause
from repro.radio.modulation import rate_by_name
from repro.scenarios.multi_ap import MultiApConfig, build_multi_ap_round
from repro.trace.capture import TraceCollector

from tests.trace.recording import RecordingCollector

RATE = rate_by_name("dsss-1")
AP, CAR1, CAR2 = NodeId(100), NodeId(1), NodeId(2)


def data(seq, flow=CAR1):
    return DataFrame(src=AP, dst=flow, size_bytes=1062, flow_dst=flow, seq=seq)


class TestRecording:
    def test_tx_recorded(self):
        trace = RecordingCollector()
        trace.on_tx(1.0, AP, data(1), RATE)
        assert len(trace.tx_records) == 1
        # Putting a frame on the air delivers it nowhere.
        assert trace.delivered_seqs(CAR1, CAR1) == set()
        assert trace.delivery_time(CAR1, CAR1, 1) is None

    def test_rx_delivered_recorded(self):
        trace = TraceCollector()
        trace.on_rx(1.1, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        assert trace.delivered_seqs(CAR1, CAR1) == {1}

    def test_rx_loss_not_counted_as_delivery(self):
        trace = RecordingCollector()
        trace.on_rx(1.1, CAR1, data(1), LossCause.CHANNEL, -5.0, -95.0)
        assert trace.delivered_seqs(CAR1, CAR1) == set()
        assert len(trace.rx_records) == 1

    def test_first_delivery_time_kept(self):
        trace = TraceCollector()
        trace.on_rx(1.0, CAR1, data(4), LossCause.DELIVERED, 10.0, -80.0)
        trace.on_rx(9.0, CAR1, data(4), LossCause.DELIVERED, 10.0, -80.0)
        assert trace.delivery_time(CAR1, CAR1, 4) == 1.0

    def test_delivery_time_missing(self):
        assert TraceCollector().delivery_time(CAR1, CAR1, 9) is None

    def test_non_data_frames_not_in_flow_queries(self):
        trace = RecordingCollector()
        hello = HelloFrame(src=CAR1, dst=NodeId(-1), size_bytes=50)
        trace.on_tx(0.0, CAR1, hello, RATE)
        trace.on_rx(0.1, CAR2, hello, LossCause.DELIVERED, 20.0, -60.0)
        assert trace.delivered_seqs(CAR2, CAR1) == set()
        assert trace.delivered_seqs(CAR2, CAR2) == set()
        assert len(trace.tx_records) == 1
        assert [record.delivered for record in trace.rx_records] == [True]

    def test_flows_separated(self):
        trace = TraceCollector()
        trace.on_rx(1.0, CAR1, data(1, flow=CAR1), LossCause.DELIVERED, 10.0, -80.0)
        trace.on_rx(1.2, CAR1, data(1, flow=CAR2), LossCause.DELIVERED, 10.0, -80.0)
        assert trace.delivered_seqs(CAR1, CAR1) == {1}
        assert trace.delivered_seqs(CAR1, CAR2) == {1}

    def test_queries_on_unseen_pairs_keep_nothing(self):
        trace = TraceCollector()
        trace.on_rx(1.0, CAR1, data(1), LossCause.DELIVERED, 10.0, -80.0)
        for node in range(50):
            assert trace.delivered_seqs(NodeId(node), CAR2) == set()
            assert trace.delivery_time(NodeId(node), CAR2, 1) is None
        assert list(trace._deliveries) == [(CAR1, CAR1)]


class TestSlots:
    def test_collector_has_no_instance_dict(self):
        # Touched on every TX/RX: slotted like the other hot-path objects.
        assert not hasattr(TraceCollector(), "__dict__")

    def test_collector_is_smaller_than_dict_control(self):
        import sys
        from collections import defaultdict

        class DictCollector:  # same shape, no __slots__ — the control
            def __init__(self):
                self._deliveries = defaultdict(dict)

        slotted = TraceCollector()
        control = DictCollector()
        assert sys.getsizeof(slotted) < (
            sys.getsizeof(control) + sys.getsizeof(control.__dict__)
        )


class TestMemory:
    def test_holds_bytes_per_delivered_packet_not_per_frame(self):
        """A 2.4 km multi-AP round puts thousands of frames on the air;
        what the collector still holds afterwards scales with the
        distinct (car, flow, seq) deliveries, not with the frames."""
        cfg = MultiApConfig(seed=13, road_length_m=2400, file_blocks=60)
        tracemalloc.start()
        try:
            ctx = build_multi_ap_round(cfg, 0)
            ctx.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, "*/repro/trace/capture.py")]
            ).statistics("filename")
        )
        deliveries = sum(
            len(ctx.capture.delivered_seqs(car, flow))
            for car in ctx.cars
            for flow in ctx.cars
        )
        assert deliveries >= 100  # the round really delivers
        assert held <= 256 * deliveries
