"""Executor determinism, caching, and parallel/serial equivalence.

The load-bearing guarantees of the engine live here: the same spec and
seed produce identical stored rows whether tasks run serially, across a
process pool, or resumed from a half-filled store.
"""

import pytest

from repro.campaign.executor import execute_task, run_campaign
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import CampaignSpec, TaskSpec, axis, config_to_dict
from repro.campaign.store import JsonlStore, MemoryStore
from repro.errors import CampaignError
from repro.scenarios.urban import UrbanScenarioConfig


def small_spec(seed: int = 55) -> CampaignSpec:
    """A cheap urban campaign: 2 grid points x 2 rounds, short laps."""
    base = UrbanScenarioConfig(seed=seed, round_duration_s=40.0)
    return CampaignSpec(
        name="exec-test",
        scenario="urban",
        seed=seed,
        rounds=2,
        base=config_to_dict(base),
        axes=(axis("platoon.n_cars", [1, 2]),),
    )


@pytest.fixture(scope="module")
def serial_rows():
    spec = small_spec()
    store = MemoryStore()
    run_campaign(spec, store, workers=1)
    return {t.task_id(): store.get(t.task_id()) for t in spec.expand()}


class TestSerialExecution:
    def test_fills_store_completely(self, serial_rows):
        assert len(serial_rows) == 4
        for row in serial_rows.values():
            assert row["matrices"], "every short lap should record receptions"

    def test_rows_are_reproducible(self, serial_rows):
        spec = small_spec()
        store = MemoryStore()
        run_campaign(spec, store, workers=1)
        assert {t.task_id(): store.get(t.task_id()) for t in spec.expand()} == (
            serial_rows
        )


class TestParallelExecution:
    def test_two_workers_match_serial_bitwise(self, serial_rows, tmp_path):
        spec = small_spec()
        with JsonlStore(tmp_path / "par.jsonl") as store:
            stats = run_campaign(spec, store, workers=2)
        assert stats.executed == 4
        reloaded = JsonlStore(tmp_path / "par.jsonl")
        assert {
            t.task_id(): reloaded.get(t.task_id()) for t in spec.expand()
        } == serial_rows


class TestCachingAndResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "store.jsonl"
        with JsonlStore(path) as store:
            first = run_campaign(spec, store, workers=1)
        assert (first.executed, first.cached) == (4, 0)
        with JsonlStore(path) as store:
            second = run_campaign(spec, store, workers=1)
        assert (second.executed, second.cached) == (0, 4)

    def test_resume_executes_only_missing_tasks(self, serial_rows, tmp_path):
        spec = small_spec()
        tasks = spec.expand()
        path = tmp_path / "store.jsonl"
        with JsonlStore(path) as store:
            for task in tasks[:3]:  # pre-fill as an interrupted run would
                store.put(task.task_id(), task.key(), serial_rows[task.task_id()])
        with JsonlStore(path) as store:
            stats = run_campaign(spec, store, workers=1)
            assert (stats.executed, stats.cached) == (1, 3)
            assert {
                t.task_id(): store.get(t.task_id()) for t in tasks
            } == serial_rows

    def test_progress_ticks_for_cached_and_executed(self, serial_rows):
        spec = small_spec()
        store = MemoryStore()
        tasks = spec.expand()
        store.put(tasks[0].task_id(), tasks[0].key(), serial_rows[tasks[0].task_id()])
        progress = ProgressReporter(len(tasks), stream=__import__("io").StringIO())
        run_campaign(spec, store, workers=1, progress=progress)
        assert progress.done == 4
        assert progress.cached == 1

    def test_different_seed_misses_cache(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with JsonlStore(path) as store:
            run_campaign(small_spec(seed=55), store, workers=1)
            stats = run_campaign(small_spec(seed=56), store, workers=1)
        assert stats.cached == 0
        assert stats.executed == 4


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(CampaignError, match="worker"):
            run_campaign(small_spec(), MemoryStore(), workers=0)

    def test_unknown_scenario_task_rejected(self):
        task = TaskSpec(
            campaign="x",
            scenario="martian",
            seed=1,
            round_index=0,
            labels=(),
            overrides={},
            base={},
        )
        with pytest.raises(CampaignError, match="scenario"):
            execute_task(task)
