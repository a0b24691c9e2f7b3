"""Golden determinism pins: exact rows per scenario kind.

These constants assert bit-identical behaviour of the plugin wirings:
same seeds → same trajectories → same channel draws → the very same
aggregates, serial or parallel, with the reception fast path on (the
default) or forced exhaustive (see ``test_fast_path_ab.py``).

They are regression pins, not physics: if a deliberate wiring or stream
change shifts them, re-record and explain in EXPERIMENTS.md.  Last
re-record: the keyed-randomness channel rework (PR 3) — fading and
shadowing became pure functions of ``(link, transmission)`` so the
medium can cull unreachable receivers without perturbing any other
link's draws, which necessarily re-realised every stochastic sequence
(calibration bands were re-checked; see EXPERIMENTS.md).
"""

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.report import download_summaries, sweep_points
from repro.campaign.spec import CampaignSpec, axis, config_to_dict
from repro.campaign.store import MemoryStore
from repro.scenarios.bidirectional import BidirectionalConfig
from repro.scenarios.highway import HighwayConfig
from repro.scenarios.multi_ap import MultiApConfig
from repro.scenarios.urban import UrbanScenarioConfig, platoon_size_points


def platoon_size_spec(
    base: UrbanScenarioConfig, sizes: list[int], *, rounds: int
) -> CampaignSpec:
    """The ``platoon-size`` preset's shape over *base* and *sizes*."""
    return CampaignSpec.from_dict(
        {
            "name": "platoon-size",
            "scenario": "urban",
            "seed": base.seed,
            "rounds": rounds,
            "base": config_to_dict(base),
            "axes": [
                {"name": "platoon.n_cars", "points": platoon_size_points(sizes)}
            ],
        }
    )


def run(spec: CampaignSpec) -> MemoryStore:
    store = MemoryStore()
    run_campaign(spec, store, workers=1)
    return store


def rows(points) -> list[tuple]:
    return [
        (p.parameter, p.tx_by_ap_mean, p.lost_before_fraction, p.lost_after_fraction)
        for p in points
    ]


class TestUrbanGolden:
    def test_platoon_size_rows_exact(self):
        base = UrbanScenarioConfig(seed=55, round_duration_s=40.0)
        spec = platoon_size_spec(base, [1, 2], rounds=2)
        assert rows(sweep_points(run(spec), spec)) == [
            (1, 87.0, 0.0, 0.0),
            (2, 86.75, 0.14697406340057637, 0.14697406340057637),
        ]

    def test_full_duration_round_exact(self):
        base = UrbanScenarioConfig(seed=55)
        spec = CampaignSpec(
            name="g-u",
            scenario="urban",
            seed=55,
            rounds=1,
            base=config_to_dict(base),
        )
        assert rows(sweep_points(run(spec), spec)) == [
            ((), 156.66666666666666, 0.251063829787234, 0.031914893617021274),
        ]


class TestHighwayGolden:
    def test_speed_axis_rows_exact(self):
        base = HighwayConfig(seed=5, rounds=1, speed_ms=25.0, road_length_m=2000.0)
        spec = CampaignSpec(
            name="g-hw",
            scenario="highway",
            seed=base.seed,
            rounds=1,
            base=config_to_dict(base),
            axes=(axis("speed_ms", [20.0, 30.0]),),
        )
        assert rows(sweep_points(run(spec), spec)) == [
            (20.0, 1650.0, 0.2723232323232323, 0.15656565656565657),
            (30.0, 1302.3333333333333, 0.33043255694906576, 0.22011773739442028),
        ]


class TestMultiApGolden:
    def test_download_summary_exact(self):
        base = MultiApConfig(
            seed=13,
            rounds=1,
            road_length_m=4000.0,
            ap_spacing_m=800.0,
            file_blocks=60,
            speed_ms=15.0,
        )
        spec = CampaignSpec(
            name="g-ma",
            scenario="multi_ap",
            seed=base.seed,
            rounds=1,
            base=config_to_dict(base),
        )
        (summary,) = download_summaries(run(spec), spec)
        assert (
            summary.parameter,
            summary.aps_visited_coop_mean,
            summary.aps_visited_direct_mean,
            summary.completed_pairs,
        ) == ((), 1.0, 1.0, 3)


class TestBidirectionalGolden:
    def test_default_geometry_round_exact(self):
        base = BidirectionalConfig(rounds=1, oncoming_cars=2)
        spec = CampaignSpec(
            name="g-bd",
            scenario="bidirectional",
            seed=base.seed,
            rounds=1,
            base=config_to_dict(base),
        )
        assert rows(sweep_points(run(spec), spec)) == [
            ((), 1738.0, 0.5264672036823935, 0.3784042961258151),
        ]


class TestParallelParity:
    def test_workers_do_not_change_rows(self, tmp_path):
        """The registry path preserves the engine's core guarantee."""
        base = UrbanScenarioConfig(seed=55, round_duration_s=40.0)
        spec = platoon_size_spec(base, [1, 2], rounds=1)
        serial = sweep_points(run(spec), spec)
        from repro.campaign.store import JsonlStore

        with JsonlStore(tmp_path / "par.jsonl") as store:
            run_campaign(spec, store, workers=2)
            parallel = sweep_points(store, spec)
        assert parallel == serial
