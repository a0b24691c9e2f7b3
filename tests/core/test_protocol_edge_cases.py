"""Protocol edge cases: capacity pressure, TTL expiry, selection, flags."""

import pytest

from repro.core.state import Phase
from repro.core.selection import BestK
from repro.mac.frames import HelloFrame, NodeId

from tests.core.test_protocol import (
    CAR1,
    CAR2,
    CAR3,
    ScriptedChannel,
    fast_config,
    make_testbed,
)


class TestBufferCapacityPressure:
    def test_tiny_buffer_evicts_but_keeps_working(self):
        # 12 entries shared across two buffered flows: only the ~6 newest
        # packets per flow survive when the dark area begins at t = 8 s
        # (≈ seq 40 at 5 pkt/s).
        config = fast_config(buffer_capacity=12)
        sim, channel, _, _, cars = make_testbed(config=config)
        channel.drop_ap_data(CAR1, CAR1, {38})
        channel.blackout_ap_after(8.0)
        sim.run(until=16.0)
        # Old entries were evicted under pressure …
        assert cars[CAR2].protocol.coop_buffer.evictions > 0
        assert len(cars[CAR2].protocol.coop_buffer) <= 12
        # … but a recently-lost packet is still recoverable.
        assert 38 in cars[CAR1].protocol.state.recovered

    def test_evicted_packet_cannot_be_recovered(self):
        config = fast_config(buffer_capacity=4)
        sim, channel, _, _, cars = make_testbed(config=config)
        channel.drop_ap_data(CAR1, CAR1, {6})  # early packet, will be evicted
        channel.blackout_ap_after(8.0)
        sim.run(until=16.0)
        # Seq 6 fell out of the 4-entry cooperative buffers long before the
        # dark area began (≈40 fresher packets per flow arrived after it).
        assert 6 not in cars[CAR1].protocol.state.recovered


class TestCooperatorTtl:
    def test_silent_cooperator_expires_from_table(self):
        config = fast_config(cooperator_ttl_s=2.0)
        sim, channel, _, _, cars = make_testbed(config=config)

        sim.run(until=3.0)
        assert CAR3 in cars[CAR1].protocol.table.my_cooperators()

        # CAR3 goes completely silent: drop all its outgoing HELLOs.
        def mute_car3(frame, rx_id, now):
            return isinstance(frame, HelloFrame) and frame.src == CAR3 and now > 3.0

        channel.rules.append(mute_car3)
        sim.run(until=9.0)
        assert CAR3 not in cars[CAR1].protocol.table.my_cooperators()


class TestSelectionIntegration:
    def test_bestk_limits_advertised_cooperators(self):
        config = fast_config(selection=BestK(1))
        sim, _, capture, _, cars = make_testbed(config=config)
        sim.run(until=4.0)
        hellos = [
            record.frame
            for record in capture.tx_records
            if isinstance(record.frame, HelloFrame) and record.node == CAR1
        ]
        late_hellos = hellos[-2:]
        assert late_hellos
        for hello in late_hellos:
            assert len(hello.cooperators) <= 1


class TestOverhearingFlag:
    def test_overheard_responses_buffered_when_enabled(self):
        # Every cooperator buffers overheard responses for its partners
        # (the buffering rule of §3.2).
        sim, channel, _, _, cars = make_testbed(config=fast_config())
        # CAR1 misses seq 5; CAR3 also never got it from the AP but could
        # learn it from CAR2's coop response.
        channel.drop_ap_data(CAR1, CAR1, {5})
        channel.drop_ap_data(CAR3, CAR1, {5})
        channel.blackout_ap_after(5.0)
        sim.run(until=12.0)
        assert cars[CAR3].protocol.coop_buffer.has(CAR1, 5)


class TestHelloContents:
    def test_flow_ranges_advertised_for_buffered_flows(self):
        sim, channel, capture, _, cars = make_testbed()
        channel.blackout_ap_after(5.0)
        sim.run(until=8.0)
        hellos = [
            record.frame
            for record in capture.tx_records
            if isinstance(record.frame, HelloFrame) and record.node == CAR1
        ]
        last = hellos[-1]
        advertised_flows = {flow for flow, _lo, _hi in last.flow_ranges}
        assert {CAR2, CAR3} <= advertised_flows
        for _flow, lo, hi in last.flow_ranges:
            assert lo <= hi

    def test_phase_reaches_recovery_only_after_timeout(self):
        sim, channel, _, _, cars = make_testbed()
        channel.blackout_ap_after(5.0)
        sim.run(until=6.5)  # 1.5 s of silence < 2 s timeout
        assert cars[CAR1].protocol.phase is Phase.RECEPTION
        sim.run(until=7.5)  # 2.5 s of silence > timeout
        assert cars[CAR1].protocol.phase is Phase.RECOVERY
