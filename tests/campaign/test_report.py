"""Report folds: sweep parity with a direct round loop, Table-1 shapes."""

from dataclasses import replace

import pytest

from repro.analysis import compute_table1
from repro.campaign.executor import run_campaign
from repro.campaign.report import (
    DownloadSummary,
    aggregate_matrices,
    download_summaries,
    matrices_by_round,
    sweep_points,
)
from repro.campaign.spec import CampaignSpec, config_to_dict
from repro.campaign.store import MemoryStore
from repro.errors import CampaignError
from repro.scenarios.common import collect_matrices
from repro.scenarios.multi_ap import MultiApConfig
from repro.scenarios.urban import (
    UrbanScenarioConfig,
    build_urban_round,
    platoon_size_points,
)


BASE = UrbanScenarioConfig(seed=55, round_duration_s=40.0)


def platoon_size_spec(sizes: list[int], *, rounds: int) -> CampaignSpec:
    """The ``platoon-size`` preset's shape over :data:`BASE`."""
    return CampaignSpec.from_dict(
        {
            "name": "platoon-size",
            "scenario": "urban",
            "seed": BASE.seed,
            "rounds": rounds,
            "base": config_to_dict(BASE),
            "axes": [
                {"name": "platoon.n_cars", "points": platoon_size_points(sizes)}
            ],
        }
    )


def serial_sweep(sizes: list[int], *, rounds: int):
    spec = platoon_size_spec(sizes, rounds=rounds)
    store = MemoryStore()
    run_campaign(spec, store, workers=1)
    return sweep_points(store, spec)


def direct_matrices(cfg: UrbanScenarioConfig, rounds: int):
    """The reference: build, run and collect each round by hand."""
    by_round = []
    for index in range(rounds):
        ctx = build_urban_round(cfg, index)
        ctx.run()
        by_round.append(collect_matrices(ctx.capture, ctx.cars))
    return by_round


class TestSweepParity:
    """The acceptance bar: campaign == direct serial round loop, bit for bit."""

    def test_platoon_sweep_matches_legacy_serial_loop(self):
        direct = []
        for size in [1, 2]:
            styles = tuple(
                ("normal", "timid", "aggressive")[i % 3] for i in range(size)
            )
            cfg = replace(
                BASE,
                platoon=replace(BASE.platoon, n_cars=size, driver_styles=styles),
            )
            direct.append(aggregate_matrices(direct_matrices(cfg, 2), size))

        assert serial_sweep([1, 2], rounds=2) == direct

    def test_parallel_store_reports_identical_points(self, tmp_path):
        from repro.campaign.store import JsonlStore

        spec = platoon_size_spec([1, 2], rounds=2)
        with JsonlStore(tmp_path / "s.jsonl") as store:
            run_campaign(spec, store, workers=2)
            parallel_points = sweep_points(store, spec)
        assert parallel_points == serial_sweep([1, 2], rounds=2)


class TestMatricesByRound:
    @pytest.fixture(scope="class")
    def executed(self):
        spec = CampaignSpec(
            name="single",
            scenario="urban",
            seed=55,
            rounds=2,
            base=config_to_dict(BASE),
        )
        store = MemoryStore()
        run_campaign(spec, store, workers=1)
        return spec, store

    def test_feeds_compute_table1(self, executed):
        spec, store = executed
        rounds = matrices_by_round(store, spec)
        assert len(rounds) == 2
        rows = compute_table1(rounds)
        assert rows  # one row per car that associated

    def test_matches_direct_runner_output(self, executed):
        spec, store = executed
        stored = matrices_by_round(store, spec)
        assert stored == direct_matrices(BASE, 2)

    def test_requires_labels_when_gridded(self, tmp_path):
        spec = platoon_size_spec([1, 2], rounds=1)
        with pytest.raises(CampaignError, match="grid point"):
            matrices_by_round(MemoryStore(), spec)

    def test_unknown_labels_rejected(self, executed):
        spec, store = executed
        with pytest.raises(CampaignError, match="not part"):
            matrices_by_round(store, spec, labels=(99,))


class TestIncompleteStore:
    def test_missing_row_names_point_and_round(self):
        spec = platoon_size_spec([1], rounds=1)
        with pytest.raises(CampaignError, match="resume"):
            sweep_points(MemoryStore(), spec)


class TestDownloadSummaries:
    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="dl",
            scenario="multi_ap",
            seed=77,
            rounds=1,
            base=config_to_dict(MultiApConfig()),
        )

    def put_row(self, store, spec, outcomes):
        task = spec.expand()[0]
        store.put(task.task_id(), task.key(), {"outcomes": outcomes})

    def test_aggregates_paired_outcomes(self):
        spec = self.spec()
        store = MemoryStore()
        self.put_row(
            store,
            spec,
            [
                {"aps_visited_coop": 2, "aps_visited_direct": 4},
                {"aps_visited_coop": 3, "aps_visited_direct": 5},
                {"aps_visited_coop": 1, "aps_visited_direct": None},  # unpaired
            ],
        )
        (summary,) = download_summaries(store, spec)
        assert summary.completed_pairs == 2
        assert summary.aps_visited_coop_mean == pytest.approx(2.5)
        assert summary.aps_visited_direct_mean == pytest.approx(4.5)
        assert summary.visit_reduction_fraction == pytest.approx(1 - 2.5 / 4.5)

    def test_no_completions_raises(self):
        spec = self.spec()
        store = MemoryStore()
        self.put_row(store, spec, [{"aps_visited_coop": None, "aps_visited_direct": None}])
        with pytest.raises(CampaignError, match="no car completed"):
            download_summaries(store, spec)

    def test_wrong_scenario_rejected(self):
        spec = platoon_size_spec([1], rounds=1)
        with pytest.raises(CampaignError, match="multi_ap"):
            download_summaries(MemoryStore(), spec)

    def test_sweep_points_reject_multi_ap(self):
        with pytest.raises(CampaignError, match="DownloadSummary"):
            sweep_points(MemoryStore(), self.spec())


class TestDownloadSummaryShape:
    def test_zero_direct_mean_reduction(self):
        summary = DownloadSummary("x", 0.0, 0.0, 1)
        assert summary.visit_reduction_fraction == 0.0
