"""Highway drive-thru and multi-AP download experiments."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.mac.frames import NodeId
from repro.scenarios import decode_matrix_rows, get_scenario
from repro.scenarios.highway import HighwayConfig
from repro.scenarios.multi_ap import (
    MultiApConfig,
    build_multi_ap_round,
    collect_download_outcomes,
)


class TestHighwayConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HighwayConfig(speed_ms=0.0)
        with pytest.raises(ConfigurationError):
            HighwayConfig(n_cars=0)
        with pytest.raises(ConfigurationError):
            HighwayConfig(gap_m=0.0)

    def test_duration_scales_with_speed(self):
        slow = HighwayConfig(speed_ms=10.0)
        fast = HighwayConfig(speed_ms=40.0)
        assert slow.round_duration_s > fast.round_duration_s


class TestHighwayRuns:
    @pytest.fixture(scope="class")
    def matrices(self):
        cfg = HighwayConfig(speed_ms=25.0, rounds=3, seed=5)
        highway = get_scenario("highway")
        return decode_matrix_rows(
            [highway.run_round(cfg, index) for index in range(cfg.rounds)]
        )

    def test_every_round_produces_matrices(self, matrices):
        assert len(matrices) == 3
        for round_matrices in matrices:
            assert len(round_matrices) >= 2

    def test_losses_nonzero_at_speed(self, matrices):
        fractions = [
            m.lost_before_coop / m.tx_by_ap
            for round_matrices in matrices
            for m in round_matrices.values()
        ]
        assert max(fractions) > 0.05

    def test_cooperation_helps_on_highway_too(self, matrices):
        before = sum(
            m.lost_before_coop
            for rm in matrices
            for m in rm.values()
        )
        after = sum(
            m.lost_after_coop
            for rm in matrices
            for m in rm.values()
        )
        assert after < before


class TestMultiAp:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MultiApConfig(road_length_m=100.0, ap_spacing_m=500.0)
        with pytest.raises(ConfigurationError):
            MultiApConfig(file_blocks=0)

    def test_ap_positions_spacing(self):
        cfg = MultiApConfig(road_length_m=4000.0, ap_spacing_m=1000.0)
        positions = cfg.ap_positions()
        assert len(positions) == 4
        assert positions[0].x == pytest.approx(500.0)
        assert positions[1].x - positions[0].x == pytest.approx(1000.0)

    @pytest.fixture(scope="class")
    def outcomes(self):
        cfg = MultiApConfig(
            road_length_m=4000.0,
            ap_spacing_m=800.0,
            file_blocks=60,
            speed_ms=15.0,
            rounds=1,
            seed=13,
        )
        ctx = build_multi_ap_round(cfg, 0)
        ctx.run()
        return collect_download_outcomes(ctx)

    def test_one_outcome_per_car(self, outcomes):
        assert {o.car for o in outcomes} == {NodeId(1), NodeId(2), NodeId(3)}

    def test_cooperation_never_hurts(self, outcomes):
        """Paired comparison: coop completion is never later than direct."""
        for outcome in outcomes:
            assert outcome.aps_visited_coop <= outcome.aps_visited_direct

    def test_completion_times_ordered(self, outcomes):
        for outcome in outcomes:
            if (
                outcome.completion_time_coop is not None
                and outcome.completion_time_direct is not None
            ):
                assert outcome.completion_time_coop <= outcome.completion_time_direct

    def test_somebody_completes(self, outcomes):
        assert any(math.isfinite(o.aps_visited_coop) for o in outcomes)
