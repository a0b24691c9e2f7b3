"""Campaign specs: expansion, serialisation, config materialisation."""

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    GridAxis,
    GridPoint,
    apply_override,
    axis,
    config_from_dict,
    config_to_dict,
)
from repro.core.config import CarqConfig
from repro.errors import CampaignError
from repro.scenarios.highway import HighwayConfig
from repro.scenarios.urban import UrbanScenarioConfig


def urban_spec(**kwargs) -> CampaignSpec:
    defaults = dict(
        name="t",
        scenario="urban",
        seed=7,
        rounds=2,
        base=config_to_dict(UrbanScenarioConfig()),
        axes=(axis("platoon.n_cars", [1, 2]),),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestConfigCodec:
    def test_round_trip_urban(self):
        cfg = UrbanScenarioConfig(seed=9, round_duration_s=41.5)
        assert config_from_dict(UrbanScenarioConfig, config_to_dict(cfg)) == cfg

    def test_round_trip_highway_preserves_nested_carq(self):
        cfg = HighwayConfig(speed_ms=22.0)
        rebuilt = config_from_dict(HighwayConfig, config_to_dict(cfg))
        assert rebuilt == cfg
        assert rebuilt.carq.batch_requests is True

    def test_tuple_fields_survive_json_shape(self):
        cfg = UrbanScenarioConfig()
        data = config_to_dict(cfg)
        assert isinstance(data["platoon"]["driver_styles"], list)
        rebuilt = config_from_dict(UrbanScenarioConfig, data)
        assert rebuilt.platoon.driver_styles == cfg.platoon.driver_styles

    def test_unknown_key_is_rejected(self):
        with pytest.raises(CampaignError, match="platon"):
            config_from_dict(UrbanScenarioConfig, {"platon": {"n_cars": 8}})

    def test_unknown_nested_key_is_rejected(self):
        with pytest.raises(CampaignError, match="n_carz"):
            config_from_dict(UrbanScenarioConfig, {"platoon": {"n_carz": 8}})

    def test_partial_base_takes_defaults(self):
        cfg = config_from_dict(UrbanScenarioConfig, {"seed": 5})
        assert cfg.seed == 5
        assert cfg.rounds == UrbanScenarioConfig().rounds

    def test_non_json_field_is_rejected(self):
        class FakeSelection:
            pass

        cfg = CarqConfig(selection=FakeSelection())
        with pytest.raises(CampaignError, match="selection"):
            config_to_dict(cfg)


class TestApplyOverride:
    def test_nested_path(self):
        cfg = apply_override(UrbanScenarioConfig(), "platoon.n_cars", 5)
        assert cfg.platoon.n_cars == 5

    def test_list_converts_for_tuple_field(self):
        cfg = apply_override(
            UrbanScenarioConfig(), "platoon.driver_styles", ["normal", "normal"]
        )
        assert cfg.platoon.driver_styles == ("normal", "normal")

    def test_unknown_path_raises(self):
        with pytest.raises(CampaignError, match="nonsense"):
            apply_override(UrbanScenarioConfig(), "nonsense", 1)

    def test_descending_into_leaf_raises(self):
        with pytest.raises(CampaignError, match="leaf"):
            apply_override(UrbanScenarioConfig(), "seed.deeper", 1)


class TestExpansion:
    def test_one_task_per_point_and_round(self):
        tasks = urban_spec().expand()
        assert len(tasks) == 4
        assert [(t.labels, t.round_index) for t in tasks] == [
            ((1,), 0),
            ((1,), 1),
            ((2,), 0),
            ((2,), 1),
        ]

    def test_multi_axis_product(self):
        spec = urban_spec(
            axes=(
                axis("platoon.n_cars", [1, 2]),
                axis("carq.hello_period_s", [0.5, 1.0]),
            ),
            rounds=1,
        )
        assert [t.labels for t in spec.expand()] == [
            (1, 0.5),
            (1, 1.0),
            (2, 0.5),
            (2, 1.0),
        ]

    def test_task_config_applies_overrides_and_seed(self):
        task = urban_spec(seed=123).expand()[-1]
        cfg = task.config()
        assert cfg.platoon.n_cars == 2
        assert cfg.seed == 123

    def test_task_id_is_stable_and_distinct(self):
        tasks_a = urban_spec().expand()
        tasks_b = urban_spec().expand()
        ids_a = [t.task_id() for t in tasks_a]
        assert ids_a == [t.task_id() for t in tasks_b]
        assert len(set(ids_a)) == len(ids_a)

    def test_task_id_ignores_campaign_name(self):
        renamed = urban_spec(name="other")
        assert [t.task_id() for t in urban_spec().expand()] == [
            t.task_id() for t in renamed.expand()
        ]

    def test_independent_seeds_differ_per_point(self):
        tasks = urban_spec(independent_seeds=True).expand()
        seeds = {t.labels: t.seed for t in tasks}
        assert seeds[(1,)] != seeds[(2,)]


class TestSerialisation:
    def test_json_round_trip(self):
        spec = urban_spec(independent_seeds=True)
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_save_load(self, tmp_path):
        spec = urban_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec

    def test_invalid_json_raises(self):
        with pytest.raises(CampaignError, match="JSON"):
            CampaignSpec.from_json("{nope")

    def test_missing_field_raises(self):
        with pytest.raises(CampaignError, match="missing"):
            CampaignSpec.from_dict({"name": "x"})


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(CampaignError, match="scenario"):
            urban_spec(scenario="martian")

    def test_zero_rounds_rejected(self):
        with pytest.raises(CampaignError, match="round"):
            urban_spec(rounds=0)

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError, match="points"):
            GridAxis(name="x", points=())

    def test_point_label_reaches_sweep_parameter(self):
        point = GridPoint(label="dsss-11", overrides={"radio.rate_name": "dsss-11"})
        assert GridPoint.from_dict(point.to_dict()) == point
