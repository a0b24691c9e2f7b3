"""Protocol mode as a config field and a sweepable campaign axis."""

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.report import sweep_points
from repro.campaign.spec import CampaignSpec, config_to_dict
from repro.campaign.store import MemoryStore
from repro.errors import ConfigurationError
from repro.scenarios.highway import HighwayConfig
from repro.scenarios.modes import (
    BASELINE_MODES,
    PROTOCOL_MODES,
    ap_class,
    build_vehicle,
    reception_state,
    validate_mode,
)
from repro.scenarios.multi_ap import MultiApConfig
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round


class TestModeValidation:
    def test_protocol_modes_cover_baselines(self):
        assert set(BASELINE_MODES) < set(PROTOCOL_MODES)
        assert "carq" in PROTOCOL_MODES

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="teleportation"):
            validate_mode("teleportation")

    def test_urban_config_validates_mode(self):
        with pytest.raises(ConfigurationError):
            UrbanScenarioConfig(mode="bogus")

    def test_highway_config_validates_mode(self):
        with pytest.raises(ConfigurationError):
            HighwayConfig(mode="bogus")

    def test_multi_ap_is_carq_only(self):
        with pytest.raises(ConfigurationError, match="C-ARQ only"):
            MultiApConfig(mode="nocoop")

    def test_arq_mode_swaps_the_ap(self):
        from repro.baselines.arq import ArqAccessPoint
        from repro.net.ap import AccessPoint

        assert ap_class("arq") is ArqAccessPoint
        for mode in ("carq", "nocoop", "epidemic"):
            assert ap_class(mode) is AccessPoint


class TestModeAxisCampaign:
    """The paper's Table-1 comparison as one paired-seed campaign."""

    @pytest.fixture(scope="class")
    def executed(self):
        base = UrbanScenarioConfig(seed=23, round_duration_s=60.0)
        spec = CampaignSpec.from_dict(
            {
                "name": "modes",
                "scenario": "urban",
                "seed": base.seed,
                "rounds": 1,
                "base": config_to_dict(base),
                "axes": [
                    {
                        "name": "mode",
                        "points": [
                            {"label": m, "overrides": {"mode": m}}
                            for m in ("carq", "nocoop", "epidemic")
                        ],
                    }
                ],
            }
        )
        store = MemoryStore()
        run_campaign(spec, store, workers=1)
        return spec, store

    def test_arms_share_the_simulation_seed(self, executed):
        spec, _ = executed
        seeds = {task.labels: task.seed for task in spec.expand()}
        assert len(set(seeds.values())) == 1  # paired comparison

    def test_every_arm_reports_a_sweep_point(self, executed):
        spec, store = executed
        points = sweep_points(store, spec)
        assert [p.parameter for p in points] == ["carq", "nocoop", "epidemic"]

    def test_nocoop_arm_never_recovers(self, executed):
        spec, store = executed
        by_mode = {p.parameter: p for p in sweep_points(store, spec)}
        nocoop = by_mode["nocoop"]
        assert nocoop.lost_after_fraction == nocoop.lost_before_fraction

    def test_carq_arm_beats_its_before_loss(self, executed):
        spec, store = executed
        by_mode = {p.parameter: p for p in sweep_points(store, spec)}
        carq = by_mode["carq"]
        assert carq.lost_after_fraction < carq.lost_before_fraction


class TestModeWiring:
    def test_build_urban_round_honours_mode(self):
        cfg = UrbanScenarioConfig(seed=23, round_duration_s=40.0, mode="nocoop")
        ctx = build_urban_round(cfg, 0)
        assert ctx.mode == "nocoop"
        for car in ctx.cars.values():
            assert not hasattr(car, "protocol")
            assert reception_state(car) is car.state

    def test_build_vehicle_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            build_vehicle(
                "bogus", None, None, None, None, None, None, None, None
            )
