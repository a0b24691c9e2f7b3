"""Baseline protocols on the same urban testbed.

A baseline is the urban scenario's ``mode`` field: the same builder,
the same seeds, only the protocol differs.
"""

from dataclasses import replace

from repro.mac.frames import NodeId
from repro.scenarios.common import collect_matrices
from repro.scenarios.urban import RoundContext, UrbanScenarioConfig, build_urban_round

CFG = UrbanScenarioConfig(seed=23)


def played_round(mode: str) -> RoundContext:
    """Round 0 of the testbed, run with *mode* in place of C-ARQ."""
    ctx = build_urban_round(replace(CFG, mode=mode), 0)
    ctx.run()
    return ctx


class TestNoCoop:
    def test_no_recovery_happens(self):
        ctx = played_round("nocoop")
        matrices = collect_matrices(ctx.capture, ctx.cars)
        for matrix in matrices.values():
            assert matrix.lost_after_coop == matrix.lost_before_coop

    def test_losses_match_carq_before_coop_statistically(self):
        ctx = played_round("nocoop")
        matrices = collect_matrices(ctx.capture, ctx.cars)
        for matrix in matrices.values():
            fraction = matrix.lost_before_coop / matrix.tx_by_ap
            assert 0.05 < fraction < 0.7


class TestArq:
    def test_ap_retransmits_on_nacks(self):
        ctx = played_round("arq")
        assert ctx.ap.retransmissions > 0
        nacks = sum(car.nacks_sent for car in ctx.cars.values())
        assert nacks > 0

    def test_retransmissions_consume_ap_airtime(self):
        """The ARQ AP sends more frames for the same fresh-data stream."""
        plain = played_round("nocoop")
        arq = played_round("arq")
        assert arq.ap.iface.frames_sent > plain.ap.iface.frames_sent


class TestEpidemic:
    def test_dark_area_exchange_recovers_packets(self):
        ctx = played_round("epidemic")
        matrices = collect_matrices(ctx.capture, ctx.cars)
        improved = sum(
            1
            for matrix in matrices.values()
            if matrix.lost_after_coop < matrix.lost_before_coop
        )
        assert improved >= 2  # at least two of three cars recovered data

    def test_summary_vectors_sent(self):
        ctx = played_round("epidemic")
        summaries = sum(car.summaries_sent for car in ctx.cars.values())
        assert summaries > 0

    def test_epidemic_nodes_buffer_all_flows(self):
        ctx = played_round("epidemic")
        car1 = ctx.cars[NodeId(1)]
        assert len(car1.buffer.flows()) >= 2

    def test_no_violations(self):
        ctx = played_round("epidemic")
        for matrix in collect_matrices(ctx.capture, ctx.cars).values():
            assert matrix.optimality_violations() == frozenset()
