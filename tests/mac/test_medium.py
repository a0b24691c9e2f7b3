"""Shared-medium behaviour: delivery, interference, half-duplex, sensing."""

import numpy as np
import pytest

from repro import obs
from repro.geom import Polyline, Vec2
from repro.mac.frames import DataFrame, NodeId
from repro.mac.interface import NetworkInterface
from repro.mac.medium import LossCause, Medium
from repro.mac.timing import frame_airtime
from repro.mobility.base import MobilityModel, TraceMobility
from repro.mobility.path import PathMobility
from repro.mobility.static import StaticMobility
from repro.radio.channel import Channel
from repro.radio.modulation import rate_by_name
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.phy import RadioConfig
from repro.sim import Simulator

from tests.trace.recording import RecordingCollector

RATE = rate_by_name("dsss-1")


def plain_channel(sim):
    """Log-distance path loss only: no shadowing, no fading."""
    return Channel(
        pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
        rng=sim.streams.get("channel"),
    )


def make_net(models, *, trace=None, seed=0, fast_path=True, channel=plain_channel):
    """A sim + a medium over ``channel(sim)`` + :func:`attach_radios`."""
    sim = Simulator(seed=seed)
    medium = Medium(sim, channel(sim), trace=trace, fast_path=fast_path)
    return sim, medium, attach_radios(sim, medium, models)


def attach_radios(sim, medium, models, *, first=0):
    """One interface per mobility model; a bare position is a static mount.

    Radio ``first + i`` gets node id ``first + i + 1`` and its own
    back-off stream.
    """
    return [
        NetworkInterface(
            sim,
            medium,
            NodeId(first + i + 1),
            model if isinstance(model, MobilityModel) else StaticMobility(model),
            RadioConfig(),
            sim.streams.get(f"mac-{first + i}"),
            name=f"if{first + i + 1}",
        )
        for i, model in enumerate(models)
    ]


def data_frame(src, dst, seq=1, size=500):
    return DataFrame(src=src, dst=dst, size_bytes=size, flow_dst=dst, seq=seq)


class TestDelivery:
    def test_nearby_frame_delivered(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append((frame, info)))
        a.send(data_frame(a.node_id, b.node_id))
        sim.run()
        assert len(received) == 1
        frame, info = received[0]
        assert frame.seq == 1
        assert info.snr_db > 20.0

    def test_promiscuous_reception(self):
        """Frames addressed to others are still delivered (monitor mode)."""
        sim, _, (a, b, c) = make_net([Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)])
        at_c = []
        c.add_receive_callback(lambda frame, info: at_c.append(frame))
        a.send(data_frame(a.node_id, b.node_id))
        sim.run()
        assert len(at_c) == 1

    def test_far_node_hears_nothing(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(50_000, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        a.send(data_frame(a.node_id, b.node_id))
        sim.run()
        assert received == []

    def test_delivery_happens_after_airtime(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        times = []
        b.add_receive_callback(lambda frame, info: times.append(sim.now))
        a.send(data_frame(a.node_id, b.node_id, size=1062))
        sim.run()
        assert len(times) == 1
        assert times[0] >= frame_airtime(1062, RATE)

    def test_counters(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        a.send(data_frame(a.node_id, b.node_id, size=500))
        sim.run()
        assert a.frames_sent == 1
        assert a.bytes_sent == 500
        assert b.frames_received == 1


class TestInterference:
    def test_simultaneous_transmissions_collide(self):
        sim, medium, (a, b, c) = make_net([Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        # Bypass CSMA: both frames hit the air at the same instant.
        sim.schedule(0.0, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE)
        sim.schedule(0.0, medium.transmit, c, data_frame(c.node_id, b.node_id, 2), RATE)
        sim.run()
        assert received == []

    def test_collision_recorded_as_interference(self):
        trace = RecordingCollector()
        sim, medium, (a, b, c) = make_net(
            [Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)], trace=trace
        )
        sim.schedule(0.0, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE)
        sim.schedule(0.0, medium.transmit, c, data_frame(c.node_id, b.node_id, 2), RATE)
        sim.run()
        causes = {record.cause for record in trace.rx_records if record.node == b.node_id}
        assert causes == {LossCause.INTERFERENCE}

    def test_csma_avoids_the_collision(self):
        """The same two senders using the MAC queue do NOT collide."""
        sim, _, (a, b, c) = make_net([Vec2(0, 0), Vec2(20, 0), Vec2(40, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        a.send(data_frame(a.node_id, b.node_id, 1))
        c.send(data_frame(c.node_id, b.node_id, 2))
        sim.run()
        assert len(received) == 2


class TestHalfDuplex:
    def test_receiver_transmitting_loses_arrival(self):
        trace = RecordingCollector()
        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)], trace=trace)
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame))
        # B starts a long transmission; A's frame arrives mid-burst.
        b.send(data_frame(b.node_id, a.node_id, 9, size=2000))
        sim.schedule(
            0.005, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE
        )
        sim.run()
        assert received == []
        b_losses = [
            record.cause
            for record in trace.rx_records
            if record.node == b.node_id and record.frame.seq == 1
        ]
        assert b_losses == [LossCause.HALF_DUPLEX]


class TestCarrierSense:
    def test_medium_busy_during_transmission(self):
        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        samples = []
        a.send(data_frame(a.node_id, b.node_id, size=2000))
        sim.schedule(0.008, lambda: samples.append(medium.busy(b)))
        sim.run()
        assert samples == [True]

    def test_medium_idle_when_quiet(self):
        _, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        assert not medium.busy(a)
        assert not medium.busy(b)

    def test_own_transmission_is_busy(self):
        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        samples = []
        a.send(data_frame(a.node_id, b.node_id, size=2000))
        sim.schedule(0.008, lambda: samples.append(medium.busy(a)))
        sim.run()
        assert samples == [True]


class TestQueue:
    def test_fifo_order(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        received = []
        b.add_receive_callback(lambda frame, info: received.append(frame.seq))
        for seq in range(1, 6):
            a.send(data_frame(a.node_id, b.node_id, seq))
        sim.run()
        assert received == [1, 2, 3, 4, 5]

    def test_flush_drops_pending(self):
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        for seq in range(1, 6):
            a.send(data_frame(a.node_id, b.node_id, seq))
        dropped = a.flush()
        assert dropped == 5 or dropped == 4  # first may already be contending
        sim.run()
        assert a.frames_sent <= 1

    def test_src_mismatch_rejected(self):
        from repro.errors import MacError

        _, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        with pytest.raises(MacError):
            a.send(data_frame(b.node_id, a.node_id))

    def test_double_attach_rejected(self):
        from repro.errors import MacError

        sim, medium, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)])
        with pytest.raises(MacError):
            medium.attach(a)


class TestTraceHooks:
    def test_tx_and_rx_recorded(self):
        trace = RecordingCollector()
        sim, _, (a, b) = make_net([Vec2(0, 0), Vec2(20, 0)], trace=trace)
        a.send(data_frame(a.node_id, b.node_id, 7))
        sim.run()
        assert len(trace.tx_records) == 1
        assert trace.tx_records[0].node == a.node_id
        delivered = [r for r in trace.rx_records if r.delivered]
        assert [r.frame.seq for r in delivered] == [7]


class TestCarrierSenseAggregation:
    """Concurrent arrivals add up in the energy detector (dbm_sum)."""

    def test_two_subthreshold_arrivals_sense_busy_together(self):
        # With exponent 3 / 40 dB reference loss / 15 dBm EIRP, the mean
        # power at 251 m is ≈ -97.2 dBm: individually below the -96 dBm
        # carrier-sense threshold, but two of them sum to ≈ -94.2 dBm.
        sim, medium, (listener, left, right) = make_net(
            [Vec2(0, 0), Vec2(-251, 0), Vec2(251, 0)]
        )
        samples = []
        sim.schedule(
            0.0, medium.transmit, left, data_frame(left.node_id, listener.node_id, 1), RATE
        )
        sim.schedule(0.001, lambda: samples.append(medium.busy(listener)))
        sim.schedule(
            0.002, medium.transmit, right, data_frame(right.node_id, listener.node_id, 2), RATE
        )
        sim.schedule(0.003, lambda: samples.append(medium.busy(listener)))
        sim.run()
        assert samples == [False, True]


class TestReceptionFastPath:
    """The culling fast path must match the exhaustive path bit for bit."""

    def run_grid(self, *, fast_path):
        """A 30-node line network: one broadcast from the west end."""
        trace = RecordingCollector()
        sim, _, ifaces = make_net(
            [Vec2(60.0 * index, 0.0) for index in range(30)],
            trace=trace, seed=7, fast_path=fast_path,
        )
        ifaces[0].send(data_frame(ifaces[0].node_id, ifaces[-1].node_id))
        sim.run()
        return [(r.node, r.cause, r.snr_db, r.rx_power_dbm) for r in trace.rx_records]

    def test_fast_and_exhaustive_records_identical(self):
        records = self.run_grid(fast_path=True)
        # The log must hold the broadcast's arrivals, deliveries included.
        assert LossCause.DELIVERED in {cause for _, cause, *_ in records}
        assert records == self.run_grid(fast_path=False)

    def test_fast_path_culls_far_receivers(self):
        records = self.run_grid(fast_path=True)
        assert records  # near receivers hear the frame...
        heard = {node for node, *_ in records}
        assert NodeId(30) not in heard  # ...the far end of the line does not

    def test_far_node_culled_without_perturbing_near_links(self):
        """Removing a distant interface must not change near outcomes."""

        def run(with_far_node):
            trace = RecordingCollector()
            positions = [Vec2(0, 0), Vec2(30, 0)]
            if with_far_node:
                positions.append(Vec2(80_000, 0))
            sim, _, ifaces = make_net(positions, trace=trace, seed=3)
            ifaces[0].send(data_frame(ifaces[0].node_id, ifaces[1].node_id))
            sim.run()
            return [(r.node, r.snr_db, r.rx_power_dbm) for r in trace.rx_records]

        near = run(False)
        assert [node for node, *_ in near] == [NodeId(2)]  # the near link's arrival
        assert run(True) == near


class TestBatchKernel:
    """The production path (batch kernel on) vs the scalar oracle."""

    def _storm_records(self, *, fast_path, positions=None, broadcasts=120):
        from repro.radio.fading import RicianFading
        from repro.radio.shadowing import (
            CompositeShadowing,
            GudmundsonShadowing,
            TemporalTxShadowing,
        )

        def storm_channel(sim):
            return Channel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                shadowing=CompositeShadowing(
                    [
                        GudmundsonShadowing(
                            sim.streams.get("shadowing"),
                            sigma_db=4.0,
                            decorrelation_distance_m=20.0,
                        ),
                        TemporalTxShadowing(
                            sim.streams.get("shadowing-common"),
                            sigma_db=3.0,
                            tau_s=2.0,
                            hub=NodeId(1),
                        ),
                    ]
                ),
                fading=RicianFading(sim.streams.get("fading"), k_factor=4.0),
                rng=sim.streams.get("channel"),
            )

        trace = RecordingCollector()
        rate = rate_by_name("dsss-11")
        if positions is None:
            positions = [Vec2(55.0 * i, (i % 3) * 7.0) for i in range(30)]
        n_nodes = len(positions)
        sim, medium, ifaces = make_net(
            positions, trace=trace, seed=42, fast_path=fast_path,
            channel=storm_channel,
        )
        for k in range(broadcasts):
            tx = ifaces[k % n_nodes]
            frame = data_frame(tx.node_id, ifaces[(k + 1) % n_nodes].node_id, seq=k)
            sim.schedule(k * 1.7e-3, medium.transmit, tx, frame, rate)
        sim.run()
        return [
            (r.time, int(r.node), r.frame.seq, r.cause, r.snr_db, r.rx_power_dbm)
            for r in trace.rx_records
        ]

    def test_batch_bit_identical_to_oracle(self):
        batch = self._storm_records(fast_path=True)
        assert batch  # the topology must actually produce receptions
        assert batch == self._storm_records(fast_path=False)

    def test_sparse_passes_draw_per_lane_and_match_oracle(self, monkeypatch):
        """Every pass of the 30-node storm has 22–29 survivors, above the
        kernel's draw crossover.  Here 12 radios in pairs 30 m apart,
        1 km between pairs, give each pass 11 candidate lanes
        (batch-sized) of which the cull keeps only a few: the kernel
        draws those per lane, never vectorized, and the records equal
        the oracle's.  The radios creep at 0.01 m/s: fixed ones would
        leave the unreachable pairs out of the candidates altogether
        (see ``TestStaticPairs``)."""
        from repro.mac import medium as medium_module
        from repro.radio.batch import DRAW_CROSSOVER

        lanes = []
        draws = []
        kernel = medium_module.broadcast_samples
        scalar_sample = Channel.sample

        def spy(channel, tx_id, rx_ids, *args):
            lanes.append(len(rx_ids))
            return kernel(channel, tx_id, rx_ids, *args)

        def counted_sample(self, *args, **kwargs):
            draws.append(args[1])
            return scalar_sample(self, *args, **kwargs)

        def no_vectorized_draw(*args, **kwargs):
            raise AssertionError("vectorized draw below the crossover")

        monkeypatch.setattr(medium_module, "broadcast_samples", spy)
        monkeypatch.setattr(Channel, "sample", counted_sample)
        monkeypatch.setattr(Channel, "sample_batch", no_vectorized_draw)
        track = Polyline([Vec2(0, 0), Vec2(6000, 0)])
        pairs = [
            PathMobility(
                track, 0.01, start_arc_length=1000.0 * (i // 2) + 30.0 * (i % 2)
            )
            for i in range(12)
        ]
        production = self._storm_records(fast_path=True, positions=pairs)
        monkeypatch.undo()
        assert len(lanes) == 120
        assert min(lanes) >= 8 and max(lanes) < DRAW_CROSSOVER
        assert 0 < len(draws) < sum(lanes) // 2  # the cull keeps a few lanes
        assert LossCause.DELIVERED in {row[3] for row in production}
        assert production == self._storm_records(fast_path=False, positions=pairs)

    def test_small_candidate_sets_use_scalar_loop(self):
        # Below BATCH_MIN_CANDIDATES the scalar loop runs — delivery
        # still works end to end.
        trace = RecordingCollector()
        sim, medium, ifaces = make_net([Vec2(0, 0), Vec2(30, 0)], trace=trace)
        ifaces[0].send(data_frame(ifaces[0].node_id, ifaces[1].node_id))
        sim.run()
        assert any(r.cause is LossCause.DELIVERED for r in trace.rx_records)

    def test_batch_frame_end_actually_delivers_to_interfaces(self):
        """Regression: dense frame-ends must reach ``iface.deliver``.

        A frame end classifies via trace-visible records, so a bug that
        drops the *delivery dispatch* while still writing trace rows is
        invisible to the record-comparison pins above.
        Pin ``frames_received`` — the interface-side evidence — equal
        between the production path and the oracle on a dense topology.
        """

        def received_counts(*, fast_path):
            trace = RecordingCollector()
            sim, medium, ifaces = make_net(
                [Vec2(12.0 * i, 0.0) for i in range(12)], trace=trace,
                fast_path=fast_path,
            )
            rate = rate_by_name("dsss-11")
            for k in range(10):
                tx = ifaces[k % 3]
                frame = data_frame(tx.node_id, ifaces[-1].node_id, seq=k)
                sim.schedule(k * 2e-3, medium.transmit, tx, frame, rate)
            sim.run()
            delivered_rows = sum(
                1 for r in trace.rx_records if r.cause is LossCause.DELIVERED
            )
            return [i.frames_received for i in ifaces], delivered_rows

        batch_counts, batch_rows = received_counts(fast_path=True)
        scalar_counts, scalar_rows = received_counts(fast_path=False)
        assert batch_rows == scalar_rows > 0
        assert batch_counts == scalar_counts
        # The interface counters must agree with the trace's verdicts.
        assert sum(batch_counts) == batch_rows

    def test_batched_mobility_groups_match_per_candidate_queries(self, monkeypatch):
        # Radios on one shared-track PathMobility: the production batch
        # gather positions them with one grouped query; the oracle
        # queries each model per candidate.  Records must match bit for
        # bit.
        def records(fast_path):
            trace = RecordingCollector()
            track = Polyline([Vec2(0, 0), Vec2(8000, 0)])
            sim, medium, ifaces = make_net(
                [
                    PathMobility(track, 10.0 + i, start_arc_length=60.0 * i)
                    for i in range(12)
                ],
                trace=trace, seed=3, fast_path=fast_path,
            )
            rate = rate_by_name("dsss-11")
            for k in range(40):
                tx = ifaces[k % 12]
                frame = data_frame(tx.node_id, ifaces[(k + 1) % 12].node_id, seq=k)
                sim.schedule(k * 2.3e-3, medium.transmit, tx, frame, rate)
            sim.run()
            return _rx_rows(trace)

        group_sizes = []
        grouped_query = PathMobility.positions_at_time

        def spy(models, time):
            group_sizes.append(len(models))
            return grouped_query(models, time)

        monkeypatch.setattr(PathMobility, "positions_at_time", staticmethod(spy))
        grouped = records(True)
        monkeypatch.undo()
        assert group_sizes and min(group_sizes) == 11  # every pass grouped
        assert grouped
        assert grouped == records(False)

    def test_same_end_broadcasts_deliver_in_tx_order(self):
        """Broadcasts that end at the same instant deliver in tx order
        (receivers in arrival order within each), with per-interface
        ``frames_received`` intact — on the production path and the
        oracle alike (the PR 7 ``_finish_batch`` accumulator bug class).
        """

        def delivery_log(fast_path):
            sim, medium, ifaces = make_net(
                [Vec2(30.0 * i, 0.0) for i in range(9)], seed=5,
                fast_path=fast_path,
            )
            log = []
            for iface in ifaces:
                iface.add_receive_callback(
                    (lambda me: lambda frame, info: log.append(
                        (sim.now, int(me.node_id), frame.seq)
                    ))(iface)
                )
            # Three same-instant transmissions with equal airtimes: all
            # three frame-ends land on the same instant.  A fourth,
            # larger frame ends later.
            for k, tx in enumerate(ifaces[:3]):
                frame = data_frame(tx.node_id, ifaces[4].node_id, seq=k, size=400)
                sim.schedule(0.0, medium.transmit, tx, frame, RATE)
            big = data_frame(ifaces[5].node_id, ifaces[4].node_id, seq=9, size=800)
            sim.schedule(0.0, medium.transmit, ifaces[5], big, RATE)
            sim.run()
            return log, [i.frames_received for i in ifaces]

        log, counts = delivery_log(True)
        assert log  # the topology must actually deliver
        assert (log, counts) == delivery_log(False)
        same_end = [seq for _, _, seq in log if seq != 9]
        assert same_end == sorted(same_end)
        assert sum(counts) == len(log)

    def test_transmission_killed_mid_slot_matches_scalar(self):
        """A receiver that starts transmitting in the same instant as an
        incoming broadcast (direct transmit, CSMA bypassed) loses the
        arrival to half-duplex: its own transmit's kill loop cancels it
        mid-flight, on the production path and the oracle alike."""

        def causes(fast_path):
            trace = RecordingCollector()
            sim, medium, (a, b, c) = make_net(
                [Vec2(25.0 * i, 0.0) for i in range(3)], trace=trace, seed=2,
                fast_path=fast_path,
            )
            sim.schedule(
                0.0, medium.transmit, a, data_frame(a.node_id, b.node_id, 1), RATE
            )
            sim.schedule(
                0.0, medium.transmit, b, data_frame(b.node_id, c.node_id, 2), RATE
            )
            sim.run()
            return [
                (r.time, int(r.node), r.frame.seq, r.cause)
                for r in trace.rx_records
            ]

        production = causes(True)
        assert production == causes(False)
        assert any(
            cause is LossCause.HALF_DUPLEX
            for _, node, seq, cause in production
            if node == 2 and seq == 1
        )

    def test_scripted_channel_subclass_survives_batch_path(self, monkeypatch):
        # A Channel subclass that scripts sample() must keep its
        # behaviour even when the candidate set is batch-sized and more
        # lanes survive the cull than the draw crossover: the batch
        # kernel draws such a channel per lane through the override.
        from repro.mac import medium as medium_module
        from repro.radio.batch import DRAW_CROSSOVER
        from repro.radio.channel import LinkSample

        class ScriptedChannel(Channel):
            def sample(self, tx_id, rx_id, tx_pos, rx_pos, tx_power_dbm,
                       rx_gain_db=0.0, time=0.0, *, tx_seq, budget=None):
                return LinkSample(-60.0, -60.0, 10.0)

        def scripted_channel(sim):
            return ScriptedChannel(
                pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
                rng=sim.streams.get("channel"),
            )

        def records(fast_path):
            trace = RecordingCollector()
            sim, medium, ifaces = make_net(
                [Vec2(10.0 * i, 0.0) for i in range(n_radios)], trace=trace,
                seed=9, fast_path=fast_path, channel=scripted_channel,
            )
            for k in range(20):
                tx = ifaces[k % n_radios]
                frame = data_frame(
                    tx.node_id, ifaces[(k + 1) % n_radios].node_id, seq=k
                )
                sim.schedule(k * 2e-3, medium.transmit, tx, frame, rate_by_name("dsss-11"))
            sim.run()
            return [
                (r.time, int(r.node), r.frame.seq, r.cause, r.rx_power_dbm)
                for r in trace.rx_records
            ]

        n_radios = DRAW_CROSSOVER + 8
        survivors = []
        kernel = medium_module.broadcast_samples

        def spy(*args):
            result = kernel(*args)
            survivors.append(len(result))
            return result

        monkeypatch.setattr(medium_module, "broadcast_samples", spy)
        batched = records(True)
        monkeypatch.undo()
        scalar = records(False)
        assert batched
        assert survivors and min(survivors) > DRAW_CROSSOVER
        # Scripted power must be visible on every record in both modes.
        assert all(r[-1] == -60.0 for r in batched)
        assert batched == scalar


def _rx_rows(trace):
    return [
        (r.time, int(r.node), r.frame.seq, r.cause, r.snr_db, r.rx_power_dbm)
        for r in trace.rx_records
    ]


class TestReachHorizon:
    """Step 0: broadcasts before the transmitter's reach horizon skip
    the receiver lookup, and stay bit-identical to the oracle."""

    def _approach(self, *, fast_path):
        """A lone static beacon; a receiver drives in from 5 km at
        100 m/s, the speed bound.  Returns (rx rows, unheard broadcasts)."""
        with obs.instrumented():
            trace = RecordingCollector()
            road = Polyline([Vec2(5000, 0), Vec2(20, 0)])
            sim, medium, (beacon, _) = make_net(
                [Vec2(0, 0), PathMobility(road, 100.0)], trace=trace, seed=4,
                fast_path=fast_path,
            )
            for k in range(550):
                frame = data_frame(beacon.node_id, NodeId(2), seq=k)
                sim.schedule(k * 0.1, medium.transmit, beacon, frame, RATE)
            sim.run()
            unheard = obs.registry().counter("medium.unheard_broadcasts").value
        return _rx_rows(trace), unheard

    def test_approaching_receiver_matches_oracle(self):
        production, unheard = self._approach(fast_path=True)
        oracle, oracle_unheard = self._approach(fast_path=False)
        assert production == oracle
        # The first heard broadcast is the same on both paths, and the
        # receiver started out of reach, so the horizon skipped some.
        assert production and production[0][2] == oracle[0][2] > 0
        assert unheard > 0
        assert oracle_unheard == 0  # the oracle never consults the horizon

    def test_radio_attached_mid_run_is_heard_by_next_broadcast(self):
        def run(fast_path):
            with obs.instrumented():
                trace = RecordingCollector()
                sim, medium, (beacon,) = make_net(
                    [Vec2(0, 0)], trace=trace, fast_path=fast_path
                )
                for k in range(20):
                    frame = data_frame(beacon.node_id, NodeId(2), seq=k)
                    sim.schedule(k * 0.1, medium.transmit, beacon, frame, RATE)
                sim.schedule(
                    1.02, lambda: attach_radios(sim, medium, [Vec2(20, 0)], first=1)
                )
                sim.run()
                unheard = obs.registry().counter("medium.unheard_broadcasts").value
            return _rx_rows(trace), unheard

        production, unheard = run(True)
        # Alone on the air, the beacon's first 11 broadcasts are unheard;
        # the attach drops its horizon, so broadcast 11 (t=1.1) is heard.
        assert unheard == 11
        assert [row[2] for row in production] == list(range(11, 20))
        assert production == run(False)[0]


class _HiddenTopSpeed(MobilityModel):
    """Moves exactly like *inner* but reports no top speed (``None``)."""

    def __init__(self, inner):
        self._inner = inner

    def position(self, time):
        return self._inner.position(time)


class TestSpeedBoundFromMobility:
    """The medium's speed bound comes from the attached models.

    A recorded 6 km leg in 0.5 s (12 km/s) passes a line of static
    beacons.  Under a bound below that, such as a fixed 100 m/s guess,
    the beacons' reach horizons would miss the mover, whether it passes
    one beacon (2 radios) or sixteen (17 radios).  A model that hides
    its top speed counts as unbounded, so it cannot be missed either.
    """

    def _pass_records(self, n_static, hide_speed, *, fast_path):
        trace = RecordingCollector()
        xs = [1500.0] if n_static == 1 else [200.0 * i for i in range(n_static)]
        road = Polyline([Vec2(-1500, 30), Vec2(4500, 30)])
        leg = TraceMobility(road, [0.0, 10.0, 10.5, 20.0], [0.0, 0.0, 6000.0, 6000.0])
        sim, medium, (*beacons, mover) = make_net(
            [Vec2(x, 0) for x in xs] + [_HiddenTopSpeed(leg) if hide_speed else leg],
            trace=trace, seed=6, fast_path=fast_path,
        )
        rate = rate_by_name("dsss-11")
        for k in range(70):
            for i, beacon in enumerate(beacons):
                frame = data_frame(beacon.node_id, mover.node_id, seq=k, size=100)
                sim.schedule(9.9 + 0.01 * k + 3e-4 * i, medium.transmit, beacon, frame, rate)
        sim.run()
        rows = _rx_rows(trace)
        return rows, sum(1 for row in rows if row[1] == int(mover.node_id))

    @pytest.mark.parametrize(
        "n_static, hide_speed",
        [(1, False), (16, False), (1, True), (16, True)],
        ids=["lone", "17-radios", "lone-hidden-speed", "17-radios-hidden-speed"],
    )
    def test_production_matches_oracle(self, n_static, hide_speed):
        production, at_mover = self._pass_records(n_static, hide_speed, fast_path=True)
        oracle, oracle_at_mover = self._pass_records(n_static, hide_speed, fast_path=False)
        assert oracle_at_mover > 0  # the mover really passes within reach
        assert at_mover == oracle_at_mover
        assert production == oracle


class TestStaticPairs:
    """A fixed transmitter bounds each fixed receiver once per topology.

    A radio whose model reports a top speed of 0 never moves, so the
    reachability bound between two such radios is the same on every
    broadcast.  The production path evaluates it once, leaves the
    receivers that fail it out of the transmitter's candidates, and
    drops that verdict at every attach.  The plain channel's bound
    reaches about 1.2 km, so at 800 m spacing each fixed radio reaches
    its neighbours on the line and no one further.
    """

    SPACING_M = 800.0
    ROUNDS = 100

    def _corridor(self, n_fixed, *, fast_path):
        """Fixed radios on a line and two cars driving past, each way
        once, while every radio broadcasts every 0.4 s.  Returns the rx
        rows with each frame's sender."""
        trace = RecordingCollector()
        # The cars start 1.5 km beyond either end of the line, out of
        # every fixed radio's reach.
        far = self.SPACING_M * (n_fixed - 1) + 1500.0
        speed = (far + 1500.0) / (0.4 * self.ROUNDS)
        sim, medium, ifaces = make_net(
            [Vec2(self.SPACING_M * i, 0.0) for i in range(n_fixed)]
            + [
                PathMobility(Polyline([Vec2(-1500, 10), Vec2(far, 10)]), speed),
                PathMobility(Polyline([Vec2(far, -10), Vec2(-1500, -10)]), speed),
            ],
            trace=trace, seed=21, fast_path=fast_path,
        )
        rate = rate_by_name("dsss-11")
        for k in range(self.ROUNDS):
            for i, tx in enumerate(ifaces):
                dst = ifaces[(i + 1) % len(ifaces)].node_id
                frame = data_frame(tx.node_id, dst, seq=k, size=100)
                sim.schedule(0.4 * k + 1e-3 * i, medium.transmit, tx, frame, rate)
        sim.run()
        return [
            (r.time, int(r.node), int(r.frame.src), r.frame.seq, r.cause,
             r.snr_db, r.rx_power_dbm)
            for r in trace.rx_records
        ]

    @pytest.mark.parametrize("n_fixed", [6, 16], ids=["attach-order", "index"])
    def test_failing_fixed_pairs_are_bounded_once(self, n_fixed, monkeypatch):
        """With 6 fixed radios, or 16 (the size at which a spatial index
        once took over discovery), a fixed pair that fails the bound is
        evaluated once; one that passes is evaluated on every broadcast
        as well.  The rows equal the oracle's."""
        bounded = {}
        scalar_budget = Channel.link_budget
        batch_budget = Channel.link_budget_batch

        def count(tx_pos, rx_pos):
            key = (tx_pos, rx_pos)
            bounded[key] = bounded.get(key, 0) + 1

        def counted_scalar(self, tx_pos, rx_pos):
            count(tx_pos, rx_pos)
            return scalar_budget(self, tx_pos, rx_pos)

        def counted_batch(self, tx_pos, rx_xs, rx_ys):
            for x, y in zip(rx_xs.tolist(), rx_ys.tolist()):
                count(tx_pos, Vec2(x, y))
            return batch_budget(self, tx_pos, rx_xs, rx_ys)

        monkeypatch.setattr(Channel, "link_budget", counted_scalar)
        monkeypatch.setattr(Channel, "link_budget_batch", counted_batch)
        production = self._corridor(n_fixed, fast_path=True)
        monkeypatch.undo()
        assert production == self._corridor(n_fixed, fast_path=False)
        # The cars pass within reach of every fixed radio.
        car_ids = {n_fixed + 1, n_fixed + 2}
        heard = {src for _, node, src, *_ in production if node in car_ids}
        assert set(range(1, n_fixed + 1)) <= heard
        fixed = [Vec2(self.SPACING_M * i, 0.0) for i in range(n_fixed)]
        failing = set()
        for i, tx_pos in enumerate(fixed):
            for j, rx_pos in enumerate(fixed):
                count = bounded.get((tx_pos, rx_pos), 0)
                if abs(i - j) == 1:
                    assert count == 1 + self.ROUNDS, (i, j)
                elif i != j:
                    failing.add(count)
        assert failing == {1}

    def test_fixed_radio_attached_mid_run_is_heard_by_next_broadcast(self):
        """A fixed neighbour 50 m away keeps the beacon on the full
        path, so the beacon holds a verdict (which leaves out a radio
        5 km away) when a third fixed radio is attached 20 m from it.
        The attach drops the verdict, and the next broadcast reaches the
        new radio."""

        def run(fast_path):
            trace = RecordingCollector()
            sim, medium, (beacon, *_) = make_net(
                [Vec2(0, 0), Vec2(50, 0), Vec2(5000, 0)], trace=trace,
                fast_path=fast_path,
            )
            for k in range(20):
                frame = data_frame(beacon.node_id, NodeId(2), seq=k)
                sim.schedule(k * 0.1, medium.transmit, beacon, frame, RATE)
            sim.schedule(
                1.02, lambda: attach_radios(sim, medium, [Vec2(20, 0)], first=3)
            )
            sim.run()
            return _rx_rows(trace)

        production = run(True)
        assert [row[2] for row in production if row[1] == 2] == list(range(20))
        assert [row[2] for row in production if row[1] == 4] == list(range(11, 20))
        assert production == run(False)
