"""``repro campaign verify``: read-only store/sidecar integrity checks."""

import json
import os

import pytest

from repro.campaign.spec import CampaignSpec, axis, config_to_dict
from repro.campaign.store import FailureLog, JsonlStore, MetricsLog
from repro.campaign.verify import verify_store
from repro.errors import CampaignError
from repro.scenarios.urban import UrbanScenarioConfig


def small_spec(seed: int = 55) -> CampaignSpec:
    base = UrbanScenarioConfig(seed=seed, round_duration_s=40.0)
    return CampaignSpec(
        name="verify-test",
        scenario="urban",
        seed=seed,
        rounds=2,
        base=config_to_dict(base),
        axes=(axis("platoon.n_cars", [1, 2]),),
    )


def fill_store(path, spec, skip=0):
    tasks = spec.expand()
    with JsonlStore(path) as store:
        for task in tasks[skip:]:
            store.put(task.task_id(), task.key(), {"v": 1})
    return tasks


class TestCleanStores:
    def test_complete_store_verifies_ok(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "s.jsonl"
        fill_store(path, spec)
        report = verify_store(path, spec=spec)
        assert report.ok
        assert (report.rows, report.distinct_tasks) == (4, 4)
        assert not report.missing
        assert "OK" in report.render()

    def test_store_without_spec_checks_shape_only(self, tmp_path):
        path = tmp_path / "s.jsonl"
        fill_store(path, small_spec())
        report = verify_store(path)
        assert report.ok
        assert report.missing == ()

    def test_duplicates_are_counted_not_failed(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "s.jsonl"
        tasks = fill_store(path, spec)
        with JsonlStore(path) as store:  # re-run appends a second row
            store.put(tasks[0].task_id(), tasks[0].key(), {"v": 2})
        report = verify_store(path, spec=spec)
        assert report.ok
        assert report.duplicates == 1
        assert report.rows == 5


class TestDefects:
    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(CampaignError, match="no result store"):
            verify_store(tmp_path / "absent.jsonl")

    def test_torn_tail_is_a_warning(self, tmp_path):
        path = tmp_path / "s.jsonl"
        fill_store(path, small_spec())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"task_id": "x", "key"')  # torn mid-append
        report = verify_store(path)
        assert report.ok
        assert any("torn final line" in w.message for w in report.warnings)
        # ...and verification healed nothing: the torn bytes are intact.
        with open(path, encoding="utf-8") as handle:
            assert handle.read().endswith('{"task_id": "x", "key"')

    def test_interior_corruption_is_an_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps(
                {"task_id": "a", "key": "k", "row": {}}
            ) + "\n")
        report = verify_store(path)
        assert not report.ok
        assert any("corrupt at line 1" in e.message for e in report.errors)
        assert "CORRUPT" in report.render()

    def test_wrong_shape_row_is_flagged(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"task_id": 7, "row": {}}) + "\n")
            handle.write(json.dumps(
                {"task_id": "a", "key": "k", "row": {}}
            ) + "\n")
        report = verify_store(path)
        assert not report.ok


class TestAccounting:
    def test_missing_tasks_are_errors(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "s.jsonl"
        fill_store(path, spec, skip=1)
        report = verify_store(path, spec=spec)
        assert not report.ok
        assert len(report.missing) == 1
        assert any("incomplete campaign" in e.message for e in report.errors)

    def test_quarantined_tasks_count_as_accounted(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "s.jsonl"
        tasks = fill_store(path, spec, skip=1)
        with FailureLog(FailureLog.sidecar_path(path)) as failures:
            failures.put_quarantine(
                tasks[0].task_id(), tasks[0].key(), 3, "transient", "boom"
            )
        report = verify_store(path, spec=spec)
        assert report.ok
        assert report.quarantined == 1
        assert not report.missing

    def test_fully_quarantined_campaign_without_store_file(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "s.jsonl"
        with FailureLog(FailureLog.sidecar_path(path)) as failures:
            for task in spec.expand():
                failures.put_quarantine(
                    task.task_id(), task.key(), 2, "transient", "boom"
                )
        report = verify_store(path, spec=spec)
        assert report.ok
        assert report.rows == 0
        assert any("store file absent" in w.message for w in report.warnings)

    def test_unknown_rows_are_warnings(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "s.jsonl"
        fill_store(path, spec)
        with JsonlStore(path) as store:
            store.put("deadbeef", "{}", {"v": 1})
        report = verify_store(path, spec=spec)
        assert report.ok
        assert report.unknown == ("deadbeef",)

    def test_stale_quarantine_is_a_warning(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "s.jsonl"
        tasks = fill_store(path, spec)
        with FailureLog(FailureLog.sidecar_path(path)) as failures:
            failures.put_quarantine(
                tasks[0].task_id(), tasks[0].key(), 3, "transient", "boom"
            )
        report = verify_store(path, spec=spec)
        assert report.ok
        assert any("stale" in w.message for w in report.warnings)

    def test_metrics_sidecar_is_scanned(self, tmp_path):
        path = tmp_path / "s.jsonl"
        fill_store(path, small_spec())
        with MetricsLog(MetricsLog.sidecar_path(path)) as metrics:
            metrics.put_task("a", "k", 0.5, {"counters": {}})
        report = verify_store(path)
        assert report.metrics_records == 1

    def test_verify_accepts_path_objects(self, tmp_path):
        path = tmp_path / "s.jsonl"
        fill_store(path, small_spec())
        assert verify_store(path).ok
        assert os.path.samefile(verify_store(path).store_path, path)
