"""Parameter sweeps: structural behaviour on reduced configurations.

A sweep is a campaign in the shape of the urban presets, folded into
sweep points.
"""

import pytest

from repro.campaign import (
    CampaignSpec,
    GridAxis,
    MemoryStore,
    SweepPoint,
    axis,
    config_to_dict,
    run_campaign,
    sweep_points,
)
from repro.scenarios.urban import UrbanScenarioConfig, platoon_size_points


@pytest.fixture(scope="module")
def base():
    return UrbanScenarioConfig(seed=55)


def sweep(
    base: UrbanScenarioConfig, grid: GridAxis, *, rounds: int
) -> list[SweepPoint]:
    spec = CampaignSpec(
        name=grid.name,
        scenario="urban",
        seed=base.seed,
        rounds=rounds,
        base=config_to_dict(base),
        axes=(grid,),
    )
    store = MemoryStore()
    run_campaign(spec, store)
    return sweep_points(store, spec)


class TestSweepPoint:
    def test_reduction_fraction(self):
        point = SweepPoint("x", 100.0, 0.4, 0.1)
        assert point.reduction_fraction == pytest.approx(0.75)

    def test_zero_before_means_zero_reduction(self):
        point = SweepPoint("x", 100.0, 0.0, 0.0)
        assert point.reduction_fraction == 0.0


class TestPlatoonSizeSweep:
    @pytest.fixture(scope="class")
    def points(self, request):
        sizes = GridAxis.from_dict(
            {"name": "platoon.n_cars", "points": platoon_size_points([1, 3])}
        )
        return sweep(UrbanScenarioConfig(seed=55), sizes, rounds=3)

    def test_single_car_cannot_cooperate(self, points):
        solo = points[0]
        assert solo.parameter == 1
        assert solo.reduction_fraction == pytest.approx(0.0, abs=0.01)

    def test_three_cars_gain_substantially(self, points):
        trio = points[1]
        assert trio.reduction_fraction > 0.3

    def test_diversity_grows_with_size(self, points):
        # Diversity is visible in the *recovered share* of losses: a solo
        # car recovers nothing, three cooperators most.  (Absolute
        # residual loss is not comparable across sizes — each car adds a
        # flow, so bigger platoons also carry more in-window load.)
        assert points[1].reduction_fraction > points[0].reduction_fraction + 0.3


class TestBitrateSweep:
    def test_higher_rate_shrinks_window_and_raises_loss(self, base):
        rates = axis("radio.rate_name", ["dsss-1", "dsss-11"])
        one, eleven = sweep(base, rates, rounds=3)
        # At 11 Mb/s the reliable coverage area is much smaller: fewer
        # packets make it at all and the loss fraction in-window grows.
        assert eleven.lost_before_fraction > one.lost_before_fraction
        # Cooperation still helps at the high rate.
        assert eleven.lost_after_fraction < eleven.lost_before_fraction


class TestHelloPeriodSweep:
    def test_runs_and_recovers_for_all_periods(self, base):
        periods = axis("carq.hello_period_s", [0.5, 3.0])
        for point in sweep(base, periods, rounds=2):
            assert point.lost_after_fraction < point.lost_before_fraction
