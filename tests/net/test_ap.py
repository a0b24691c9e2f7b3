"""Access-point application: flows, rates, file mode, retransmission hook."""

import copy

import numpy as np
import pytest

from repro.core.retransmission import FixedRetransmission
from repro.errors import ConfigurationError
from repro.geom import Vec2
from repro.mac.frames import DataFrame, NodeId
from repro.mac.medium import Medium
from repro.mobility.static import StaticMobility
from repro.net.ap import AccessPoint, FlowConfig
from repro.radio.channel import Channel
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.phy import RadioConfig
from repro.sim import Simulator

from tests.trace.recording import RecordingCollector

AP = NodeId(100)
CAR1, CAR2 = NodeId(1), NodeId(2)


class DelayLog(Simulator):
    """A simulator that logs every delay the AP's sender asks for."""

    def __init__(self, seed):
        super().__init__(seed=seed)
        self.tick_delays = []

    def schedule(self, delay, callback, *args, **kwargs):
        if callback.__name__ == "tick":
            self.tick_delays.append(delay)
        return super().schedule(delay, callback, *args, **kwargs)


class CallLog:
    """Forwards the calls a node makes on its generator, in order."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def random(self):
        self.calls.append(("random", ()))
        return self.rng.random()

    def integers(self, *args):
        self.calls.append(("integers", args))
        return self.rng.integers(*args)


def make_ap(flows, *, jitter=0.0, retx=None, seed=0, sim=None, rng=None):
    sim = sim if sim is not None else Simulator(seed=seed)
    trace = RecordingCollector()
    channel = Channel(
        pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
        rng=sim.streams.get("channel"),
    )
    medium = Medium(sim, channel, trace=trace)
    ap = AccessPoint(
        sim,
        medium,
        AP,
        StaticMobility(Vec2(0, 0)),
        RadioConfig(),
        rng if rng is not None else sim.streams.get("ap"),
        flows,
        jitter_fraction=jitter,
        retransmission_policy=retx,
    )
    return sim, trace, ap


class TestValidation:
    def test_needs_flows(self):
        with pytest.raises(ConfigurationError):
            make_ap([])

    def test_duplicate_destinations_rejected(self):
        with pytest.raises(ConfigurationError):
            make_ap([FlowConfig(destination=CAR1), FlowConfig(destination=CAR1)])

    def test_flow_validation(self):
        with pytest.raises(ConfigurationError):
            FlowConfig(destination=CAR1, packet_rate_hz=0.0)
        for rate in (float("nan"), float("inf")):
            # An infinite rate is a 0 s interval: the clock never moves.
            with pytest.raises(ConfigurationError, match=f"packet_rate_hz={rate!r}"):
                FlowConfig(destination=CAR1, packet_rate_hz=rate)
        with pytest.raises(ConfigurationError):
            FlowConfig(destination=CAR1, payload_bytes=0)
        with pytest.raises(ConfigurationError):
            FlowConfig(destination=CAR1, blocks=0)

    def test_double_start_rejected(self):
        _, _, ap = make_ap([FlowConfig(destination=CAR1)])
        ap.start()
        with pytest.raises(ConfigurationError):
            ap.start()


class TestStreaming:
    def test_packet_rate(self):
        sim, trace, ap = make_ap(
            [FlowConfig(destination=CAR1, packet_rate_hz=5.0)]
        )
        ap.start()
        sim.run(until=10.0)
        sent = [t for t in trace.tx_records if isinstance(t.frame, DataFrame)]
        assert len(sent) == pytest.approx(50, abs=2)

    def test_sequences_increment_from_first_seq(self):
        sim, trace, ap = make_ap(
            [FlowConfig(destination=CAR1, packet_rate_hz=10.0, first_seq=100)]
        )
        ap.start()
        sim.run(until=1.0)
        seqs = [t.frame.seq for t in trace.tx_records if isinstance(t.frame, DataFrame)]
        assert len(seqs) >= 9  # one second at 10 Hz
        assert seqs == list(range(100, 100 + len(seqs)))

    def test_two_flows_independent(self):
        sim, trace, ap = make_ap(
            [
                FlowConfig(destination=CAR1, packet_rate_hz=5.0),
                FlowConfig(destination=CAR2, packet_rate_hz=10.0),
            ]
        )
        ap.start()
        sim.run(until=4.0)
        per_flow = {CAR1: 0, CAR2: 0}
        for record in trace.tx_records:
            if isinstance(record.frame, DataFrame):
                per_flow[record.frame.flow_dst] += 1
        assert per_flow[CAR1] >= 18  # four seconds at 5 Hz
        assert per_flow[CAR2] == pytest.approx(2 * per_flow[CAR1], abs=3)

    def test_jitter_keeps_intervals_near_nominal(self):
        sim, trace, ap = make_ap(
            [FlowConfig(destination=CAR1, packet_rate_hz=5.0)], jitter=0.1
        )
        ap.start()
        sim.run(until=20.0)
        times = [
            t.time for t in trace.tx_records if isinstance(t.frame, DataFrame)
        ]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) >= 95  # twenty seconds at 5 Hz
        assert all(0.15 <= gap <= 0.25 for gap in gaps)

    @pytest.mark.parametrize(
        "rate, jitter", [(5.0, 0.05), (10.0, 0.05), (10.0, 0.0)]
    )
    def test_delays_equal_generator_uniform_on_a_twin(self, rate, jitter):
        # The sender writes uniform(-j, j) out from one random() draw.  A
        # twin generator that replays the node's calls in order, the
        # MAC's back-off draws included, but calls Generator.uniform for
        # each jitter must give the same delays bit for bit.
        sim = DelayLog(seed=3)
        rng = CallLog(sim.streams.get("ap"))
        twin = copy.deepcopy(rng.rng)
        _, _, ap = make_ap(
            [FlowConfig(destination=CAR1, packet_rate_hz=rate)],
            jitter=jitter, sim=sim, rng=rng,
        )
        ap.start()
        sim.run(until=40.0)

        interval = 1.0 / rate
        expected = []
        for name, args in rng.calls:
            if name == "integers":
                twin.integers(*args)
            else:
                j = jitter * interval
                expected.append(interval + float(twin.uniform(-j, j)))
        kick, *delays = sim.tick_delays
        assert kick == 0.0
        assert len(delays) >= 40.0 * rate - 1
        if jitter == 0.0:
            assert expected == []
            assert set(delays) == {interval}
        else:
            assert np.array(delays).tobytes() == np.array(expected).tobytes()
        assert twin.bit_generator.state == rng.rng.bit_generator.state

    def test_last_seq_sent_tracked(self):
        sim, _, ap = make_ap([FlowConfig(destination=CAR1, packet_rate_hz=10.0)])
        ap.start()
        sim.run(until=2.05)
        assert ap.last_seq_sent[CAR1] >= 20


class TestFileMode:
    def test_sequences_wrap_at_blocks(self):
        sim, trace, ap = make_ap(
            [FlowConfig(destination=CAR1, packet_rate_hz=10.0, blocks=5)]
        )
        ap.start()
        sim.run(until=2.0)
        seqs = [t.frame.seq for t in trace.tx_records if isinstance(t.frame, DataFrame)]
        assert set(seqs) == {1, 2, 3, 4, 5}
        assert seqs[:6] == [1, 2, 3, 4, 5, 1]

    @pytest.mark.parametrize("retx", [None, FixedRetransmission(2)])
    def test_one_frame_object_per_block_across_cycles(self, retx):
        blocks = 7
        sim, trace, ap = make_ap(
            [FlowConfig(destination=CAR1, packet_rate_hz=10.0, first_seq=40,
                        payload_bytes=500, blocks=blocks)],
            jitter=0.05, retx=retx,
        )
        ap.start()
        sim.run(until=3.0)
        sent = [t.frame for t in trace.tx_records if isinstance(t.frame, DataFrame)]
        copies = 1 if retx is None else 2
        ticks = len(sent) // copies
        assert ticks > 3 * blocks
        assert [f.seq for f in sent[::copies]] == [
            40 + k % blocks for k in range(ticks)
        ]
        by_seq = {}
        for frame in sent:
            by_seq.setdefault(frame.seq, set()).add(id(frame))
        assert all(len(ids) == 1 for ids in by_seq.values())
        assert len({id(frame) for frame in sent}) == blocks
        size = DataFrame.size_for_payload(500)
        assert {(f.src, f.dst, f.size_bytes, f.flow_dst) for f in sent} == {
            (AP, CAR1, size, CAR1)
        }
        assert ap.frames_sent_per_flow[CAR1] == len(sent)
        assert ap.last_seq_sent[CAR1] == sent[-1].seq == 40 + (ticks - 1) % blocks


class TestRetransmissionPolicy:
    def test_fixed_policy_duplicates_frames(self):
        sim, trace, ap = make_ap(
            [FlowConfig(destination=CAR1, packet_rate_hz=2.0)],
            retx=FixedRetransmission(3),
        )
        ap.start()
        sim.run(until=2.4)
        seqs = [t.frame.seq for t in trace.tx_records if isinstance(t.frame, DataFrame)]
        assert set(seqs) == {1, 2, 3, 4, 5}  # 2.4 s at 2 Hz
        for seq in set(seqs):
            assert seqs.count(seq) == 3
