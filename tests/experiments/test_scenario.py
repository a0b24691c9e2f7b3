"""Scenario configuration and round wiring."""

import pytest

from repro.errors import ConfigurationError
from repro.mac.frames import NodeId
from repro.scenarios.common import AP_NODE_ID
from repro.scenarios.urban import (
    PlatoonConfig,
    RadioEnvironment,
    UrbanScenarioConfig,
    build_urban_round,
)


class TestConfigs:
    def test_defaults_valid(self):
        cfg = UrbanScenarioConfig()
        assert cfg.rounds == 30
        assert cfg.platoon.n_cars == 3
        assert cfg.car_ids() == [NodeId(1), NodeId(2), NodeId(3)]

    def test_round_validation(self):
        with pytest.raises(ConfigurationError):
            UrbanScenarioConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            UrbanScenarioConfig(round_duration_s=0.0)

    def test_platoon_validation(self):
        with pytest.raises(ConfigurationError):
            PlatoonConfig(n_cars=0)
        with pytest.raises(ConfigurationError):
            PlatoonConfig(driver_styles=("reckless",))

    def test_driver_profiles_cycle_styles(self):
        platoon = PlatoonConfig(n_cars=5)
        profiles = platoon.driver_profiles()
        assert len(profiles) == 5

    def test_followers_get_catch_up_speed(self):
        profiles = PlatoonConfig().driver_profiles()
        assert profiles[0].speed_factor == 1.0
        assert profiles[1].speed_factor == pytest.approx(1.2)

    def test_radio_configs(self):
        env = RadioEnvironment()
        assert env.ap_radio().tx_power_dbm == env.ap_tx_power_dbm
        assert env.car_radio().tx_power_dbm == env.car_tx_power_dbm
        assert env.ap_radio().rate.name == "dsss-1"


class TestRoundWiring:
    def test_structure(self):
        cfg = UrbanScenarioConfig()
        ctx = build_urban_round(cfg, 0)
        assert ctx.ap.node_id == AP_NODE_ID
        assert set(ctx.cars) == {NodeId(1), NodeId(2), NodeId(3)}
        assert len(ctx.ap.flows) == 3

    def test_cars_start_in_platoon_order(self):
        ctx = build_urban_round(UrbanScenarioConfig(), 0)
        track = ctx.testbed.track
        positions = {
            car_id: car.mobility.arc_length(0.0)
            for car_id, car in ctx.cars.items()
        }
        assert positions[NodeId(1)] > positions[NodeId(2)] > positions[NodeId(3)]

    def test_same_round_reproducible(self):
        cfg = UrbanScenarioConfig()
        results = []
        for _ in range(2):
            ctx = build_urban_round(cfg, 0)
            ctx.run()
            results.append(
                sorted(ctx.capture.delivered_seqs(NodeId(1), NodeId(1)))
            )
        assert results[0] == results[1]

    def test_different_rounds_differ(self):
        cfg = UrbanScenarioConfig()
        outcomes = []
        for round_index in (0, 1):
            ctx = build_urban_round(cfg, round_index)
            ctx.run()
            outcomes.append(
                sorted(ctx.capture.delivered_seqs(NodeId(1), NodeId(1)))
            )
        assert outcomes[0] != outcomes[1]
