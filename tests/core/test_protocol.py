"""C-ARQ protocol behaviour on scripted micro-scenarios.

A :class:`ScriptedChannel` delivers everything perfectly except for
explicitly injected drop rules, so each protocol mechanism (buffering,
recovery, ordering, suppression, range discovery, phase switching) can be
exercised deterministically.  The platoon is parked near the AP; "leaving
coverage" is scripted as a blackout of AP data frames after a chosen
instant.
"""

import numpy as np
import pytest

from repro.core.config import CarqConfig
from repro.core.state import Phase
from repro.core.vehicle import VehicleNode
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


class ScriptedChannel(Channel):
    """Perfect delivery except where a drop rule matches."""

    def __init__(self, sim):
        super().__init__(
            pathloss=LogDistancePathLoss(exponent=2.0, reference_loss_db=40.0),
            rng=np.random.default_rng(0),
        )
        self._sim = sim
        self.rules = []

    def frame_delivered(self, sample, rate, frame, noise, rx_id=None):
        for rule in self.rules:
            if rule(frame, rx_id, self._sim.now):
                return False
        return True

    # -- rule helpers -------------------------------------------------------

    def drop_ap_data(self, rx, flow, seqs):
        seqs = set(seqs)

        def rule(frame, rx_id, now):
            return (
                isinstance(frame, DataFrame)
                and frame.src == AP
                and rx_id == rx
                and frame.flow_dst == flow
                and frame.seq in seqs
            )

        self.rules.append(rule)

    def blackout_ap_after(self, t0, t1=float("inf")):
        def rule(frame, rx_id, now):
            return (
                isinstance(frame, DataFrame)
                and frame.src == AP
                and t0 <= now < t1
            )

        self.rules.append(rule)


def fast_config(**overrides):
    defaults = dict(
        hello_period_s=0.5,
        hello_jitter_fraction=0.1,
        coverage_timeout_s=2.0,
        responder_slot_s=0.012,
        request_guard_s=0.012,
        max_stagnant_passes=2,
    )
    defaults.update(overrides)
    return CarqConfig(**defaults)


def make_testbed(n_cars=3, config=None, payload=200, rate_hz=5.0, seed=1):
    sim = Simulator(seed=seed)
    channel = ScriptedChannel(sim)
    capture = RecordingCollector()
    medium = Medium(sim, channel, trace=capture)
    car_ids = [NodeId(i + 1) for i in range(n_cars)]
    flows = [
        FlowConfig(destination=car, packet_rate_hz=rate_hz, payload_bytes=payload)
        for car in car_ids
    ]
    ap = AccessPoint(
        sim,
        medium,
        AP,
        StaticMobility(Vec2(0, 0)),
        RadioConfig(),
        sim.streams.get("ap"),
        flows,
        jitter_fraction=0.0,
    )
    cars = {}
    for index, car_id in enumerate(car_ids):
        cars[car_id] = VehicleNode(
            sim,
            medium,
            car_id,
            StaticMobility(Vec2(5.0 + 5.0 * index, 0.0)),
            RadioConfig(),
            sim.streams.get(f"car-{car_id}"),
            AP,
            config if config is not None else fast_config(),
            name=f"car-{car_id}",
        )
    ap.start()
    for car in cars.values():
        car.start()
    return sim, channel, capture, ap, cars


CAR1, CAR2, CAR3 = NodeId(1), NodeId(2), NodeId(3)


class TestHelloConvergence:
    def test_tables_converge_to_full_platoon(self):
        sim, _, _, _, cars = make_testbed()
        sim.run(until=3.0)
        for car_id, car in cars.items():
            others = {c for c in cars if c != car_id}
            assert set(car.protocol.table.my_cooperators()) == others
            assert car.protocol.table.cooperating_for() == others

    def test_orders_assigned_and_learned(self):
        sim, _, _, _, cars = make_testbed()
        sim.run(until=3.0)
        for car_id, car in cars.items():
            for other_id, other in cars.items():
                if other_id == car_id:
                    continue
                my_order_at_other = other.protocol.table.order_of(car_id)
                learned = car.protocol.table.my_order_for(other_id)
                assert learned == my_order_at_other

    def test_hellos_counted(self):
        sim, _, _, _, cars = make_testbed()
        sim.run(until=3.0)
        for car in cars.values():
            assert car.protocol.stats.hellos_sent >= 4


class TestReceptionPhase:
    def test_association_on_first_frame(self):
        sim, _, _, _, cars = make_testbed()
        assert cars[CAR1].protocol.phase is Phase.IDLE
        sim.run(until=1.0)
        assert cars[CAR1].protocol.phase is Phase.RECEPTION

    def test_own_flow_recorded(self):
        sim, _, _, _, cars = make_testbed()
        sim.run(until=5.0)
        assert len(cars[CAR1].protocol.state.received) >= 20

    def test_buffers_for_partners(self):
        sim, _, _, _, cars = make_testbed()
        sim.run(until=5.0)
        buffered_flows = cars[CAR1].protocol.coop_buffer.flows()
        assert {CAR2, CAR3} <= buffered_flows

    def test_no_buffering_before_partnership(self):
        """Packets sent before the first HELLO exchange are not buffered."""
        sim, _, _, _, cars = make_testbed()
        sim.run(until=0.05)  # before any HELLO
        assert len(cars[CAR1].protocol.coop_buffer) == 0


class TestRecovery:
    def test_missing_packet_recovered_in_dark_area(self):
        sim, channel, _, _, cars = make_testbed()
        channel.drop_ap_data(CAR1, CAR1, {3})
        channel.blackout_ap_after(5.0)
        sim.run(until=12.0)
        protocol = cars[CAR1].protocol
        assert protocol.phase is Phase.RECOVERY
        assert 3 in protocol.state.recovered
        assert 3 not in protocol.state.missing()
        assert protocol.stats.request_frames_sent >= 1

    def test_jointly_lost_packet_stays_missing(self):
        sim, channel, _, _, cars = make_testbed()
        for car in (CAR1, CAR2, CAR3):
            channel.drop_ap_data(car, CAR1, {4})
        channel.blackout_ap_after(5.0)
        sim.run(until=14.0)
        protocol = cars[CAR1].protocol
        assert 4 in protocol.state.missing()
        # The loop gave up after max_stagnant_passes rather than forever.
        assert protocol.stats.recovery_passes <= fast_config().max_stagnant_passes + 2

    def test_recovery_completion_recorded(self):
        sim, channel, _, _, cars = make_testbed()
        channel.drop_ap_data(CAR1, CAR1, {3, 6})
        channel.blackout_ap_after(5.0)
        sim.run(until=14.0)
        stats = cars[CAR1].protocol.stats
        assert stats.recovery_started_at is not None
        assert stats.recovery_completed_at is not None
        assert stats.recovery_completed_at > stats.recovery_started_at

    def test_no_requests_without_cooperators(self):
        sim, channel, _, _, cars = make_testbed(n_cars=1)
        channel.drop_ap_data(CAR1, CAR1, {3})
        channel.blackout_ap_after(5.0)
        sim.run(until=12.0)
        assert cars[CAR1].protocol.stats.request_frames_sent == 0

    def test_after_coop_subset_of_joint(self):
        """Recovery never invents packets nobody received."""
        sim, channel, capture, _, cars = make_testbed()
        channel.drop_ap_data(CAR1, CAR1, set(range(2, 12)))
        channel.drop_ap_data(CAR2, CAR1, {5, 6})
        channel.drop_ap_data(CAR3, CAR1, set(range(2, 9)))
        channel.blackout_ap_after(5.0)
        sim.run(until=15.0)
        protocol = cars[CAR1].protocol
        joint = set().union(
            *(capture.delivered_seqs(car, CAR1) for car in (CAR1, CAR2, CAR3))
        )
        held = protocol.state.received | set(protocol.state.recovered)
        assert held <= joint


class TestResponderOrdering:
    def test_duplicate_responses_suppressed(self):
        sim, channel, _, _, cars = make_testbed()
        channel.drop_ap_data(CAR1, CAR1, {3})
        channel.blackout_ap_after(5.0)
        sim.run(until=12.0)
        responses = sum(
            cars[c].protocol.stats.responses_sent for c in (CAR2, CAR3)
        )
        suppressed = sum(
            cars[c].protocol.stats.responses_suppressed for c in (CAR2, CAR3)
        )
        # One cooperator answers; the other overhears and stays silent.
        assert responses == 1
        assert suppressed == 1

    def test_only_listed_cooperators_respond(self):
        """A car that is not in the requester's list never answers."""
        config = fast_config()
        sim, channel, _, _, cars = make_testbed(config=config)
        channel.drop_ap_data(CAR1, CAR1, {3})
        channel.blackout_ap_after(5.0)

        # Surgically remove CAR3 from CAR1's cooperator table just before
        # recovery starts (simulates CAR3 never having been heard).
        def drop_car3():
            table = cars[CAR1].protocol.table
            table._my_cooperators = [
                e for e in table._my_cooperators if e.node != CAR3
            ]
            cars[CAR3].protocol.table.forget_partner(CAR1)

        sim.schedule(6.5, drop_car3)
        sim.run(until=12.0)
        assert cars[CAR3].protocol.stats.responses_sent == 0
        assert 3 in cars[CAR1].protocol.state.recovered


class TestBatchedRequests:
    def test_batched_recovers_with_fewer_frames(self):
        # Drops start at seq 8 (~1.4 s in): cooperation relationships are
        # established by then, so every dropped packet is buffered somewhere.
        losses = set(range(8, 28))
        frames_used = {}
        for max_batch in (1, 64):
            sim, channel, _, _, cars = make_testbed(
                config=fast_config(max_batch=max_batch), seed=7,
            )
            channel.drop_ap_data(CAR1, CAR1, losses)
            channel.blackout_ap_after(6.0)
            sim.run(until=16.0)
            protocol = cars[CAR1].protocol
            assert losses <= set(protocol.state.recovered)
            frames_used[max_batch] = protocol.stats.request_frames_sent
        assert frames_used[64] < frames_used[1] / 3


class TestRecoveryRange:
    def test_platoon_mode_learns_unseen_range(self):
        """Packets before the destination's own association are recovered.

        CAR2 misses seqs 8–17 of its own flow entirely (association starts
        at 18), but its cooperators buffered them and advertise the range
        in HELLOs, so platoon mode recovers all of them.
        """
        sim, channel, _, _, cars = make_testbed()
        channel.drop_ap_data(CAR2, CAR2, set(range(8, 18)))
        channel.blackout_ap_after(6.0)
        sim.run(until=16.0)
        recovered = set(cars[CAR2].protocol.state.recovered)
        assert set(range(8, 18)) <= recovered

    def test_self_mode_limits_to_own_window(self):
        """In 'self' mode a car only recovers inside [first, last] own rx.

        CAR2 misses the early seqs 1–10: with recovery_range='self' its
        known range starts at its own first direct reception, so those
        early packets are never requested.
        """
        sim, channel, _, _, cars = make_testbed(
            config=fast_config(recovery_range="self")
        )
        channel.drop_ap_data(CAR2, CAR2, set(range(1, 11)))
        channel.blackout_ap_after(6.0)
        sim.run(until=16.0)
        protocol = cars[CAR2].protocol
        assert protocol.state.known_lo >= 11
        assert not (set(range(1, 11)) & set(protocol.state.recovered))


class TestPhaseTransitions:
    def test_ap_reappearance_interrupts_recovery(self):
        sim, channel, _, _, cars = make_testbed()
        channel.drop_ap_data(CAR1, CAR1, {3})
        channel.blackout_ap_after(5.0, 10.0)  # dark window only
        sim.run(until=9.0)
        assert cars[CAR1].protocol.phase is Phase.RECOVERY
        sim.run(until=12.0)
        assert cars[CAR1].protocol.phase is Phase.RECEPTION

    def test_double_start_rejected(self):
        from repro.errors import ProtocolError

        _, _, _, _, cars = make_testbed()
        with pytest.raises(ProtocolError):
            cars[CAR1].protocol.start()

    def test_loss_accounting_helpers(self):
        sim, channel, _, _, cars = make_testbed()
        channel.drop_ap_data(CAR1, CAR1, {3, 5})
        channel.blackout_ap_after(5.0)
        sim.run(until=12.0)
        protocol = cars[CAR1].protocol
        assert set(protocol.lost_before_cooperation()) >= {3, 5}
        assert 3 not in protocol.lost_after_cooperation()
