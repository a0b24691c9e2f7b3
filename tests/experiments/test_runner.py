"""End-to-end urban rounds: the paper's claims as test invariants."""

import pytest

from repro.errors import AnalysisError
from repro.analysis.joint import optimality_gap
from repro.analysis.stats import compute_table1, flow_matrices
from repro.mac.frames import NodeId
from repro.scenarios.common import collect_matrices
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round

CARS = [NodeId(1), NodeId(2), NodeId(3)]


@pytest.fixture(scope="module")
def played():
    """Four rounds of the paper testbed (module-scoped: ~2 s).

    Per round: the flow matrices, and every car's protocol counters.
    """
    cfg = UrbanScenarioConfig(seed=11)
    rounds = []
    for index in range(4):
        ctx = build_urban_round(cfg, index)
        ctx.run()
        stats = {car_id: car.protocol.stats for car_id, car in ctx.cars.items()}
        rounds.append((collect_matrices(ctx.capture, ctx.cars), stats))
    return rounds


@pytest.fixture(scope="module")
def by_round(played):
    return [matrices for matrices, _ in played]


class TestStructure:
    def test_all_rounds_have_all_cars(self, by_round):
        for matrices in by_round:
            assert set(matrices) == set(CARS)

    def test_matrices_for_flow(self, by_round):
        assert len(flow_matrices(by_round, NodeId(1))) == 4

    def test_unknown_car_raises(self, by_round):
        with pytest.raises(AnalysisError):
            flow_matrices(by_round, NodeId(99))


class TestPaperClaims:
    def test_cooperation_reduces_losses(self, by_round):
        """The headline claim: cooperation roughly halves losses."""
        rows = compute_table1(by_round)
        for row in rows.values():
            assert row.lost_after_mean < row.lost_before_mean
            assert row.loss_reduction_pct > 30.0

    def test_losses_in_plausible_range(self, by_round):
        rows = compute_table1(by_round)
        for row in rows.values():
            assert 10.0 < row.lost_before_pct < 60.0

    def test_near_optimality(self, by_round):
        """After-coop ≈ joint (Figs 6–8: 'almost coincident')."""
        for car in CARS:
            gap = optimality_gap(flow_matrices(by_round, car))
            assert gap <= 0.02

    def test_no_optimality_violations(self, by_round):
        """Recovery never produces packets nobody received."""
        for matrices in by_round:
            for matrix in matrices.values():
                assert matrix.optimality_violations() == frozenset()

    def test_recovery_activity_happened(self, played):
        for _, stats in played:
            total_requests = sum(s.request_frames_sent for s in stats.values())
            total_responses = sum(s.responses_sent for s in stats.values())
            assert total_requests > 0
            assert total_responses > 0

    def test_window_length_near_testbed_scale(self, by_round):
        """Per-flow windows are in the ~100–250 packet range like Table 1."""
        rows = compute_table1(by_round)
        for row in rows.values():
            assert 80.0 <= row.tx_by_ap_mean <= 260.0
