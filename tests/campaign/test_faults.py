"""Hard process faults: SIGKILLed workers, SIGINTed campaigns, resume.

These are the integration pins for the supervised executor: a worker
killed with SIGKILL (the OOM shape) must not hang or abort the campaign;
an interrupted parent must checkpoint gracefully and exit 130; a resumed
run must re-execute exactly the missing tasks and converge on the same
bits as an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import multiprocessing

import pytest

from repro.campaign import executor
from repro.campaign.chaos import ChaosSpec
from repro.campaign.executor import run_campaign
from repro.campaign.resilience import RetryPolicy
from repro.campaign.spec import CampaignSpec, axis, config_to_dict
from repro.campaign.store import JsonlStore, MemoryStore
from repro.scenarios.urban import UrbanScenarioConfig

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def slow_spec(rounds: int = 2, duration_s: float = 300.0) -> CampaignSpec:
    """Tasks long enough to be killed mid-flight (~0.5 s each on a
    2-vCPU host)."""
    base = UrbanScenarioConfig(seed=55, round_duration_s=duration_s)
    return CampaignSpec(
        name="fault-test",
        scenario="urban",
        seed=55,
        rounds=rounds,
        base=config_to_dict(base),
    )


def quick_spec(rounds: int = 10) -> CampaignSpec:
    """Many fast tasks (for interrupt/resume accounting)."""
    base = UrbanScenarioConfig(seed=55, round_duration_s=40.0)
    return CampaignSpec(
        name="fault-test",
        scenario="urban",
        seed=55,
        rounds=rounds,
        base=config_to_dict(base),
    )


class TestWorkerSigkill:
    def test_sigkilled_worker_is_replaced_and_campaign_completes(
        self, tmp_path, monkeypatch
    ):
        spec = slow_spec()
        clean = MemoryStore()
        run_campaign(spec, clean, workers=1)
        expected = {t.task_id(): clean.get(t.task_id()) for t in spec.expand()}

        # Pool workers are forked, so they run this wrapper: each attempt
        # leaves a file named after its worker's pid before it starts.
        # The killer waits for that evidence of a task in flight instead
        # of guessing from the clock, so it cannot fire after the tasks
        # are done, however fast a round runs on the host.
        started = tmp_path / "started"
        started.mkdir()
        run_attempt = executor._run_attempt

        def announced_attempt(*args):
            (started / str(os.getpid())).touch()
            return run_attempt(*args)

        monkeypatch.setattr(executor, "_run_attempt", announced_attempt)
        killed = threading.Event()

        def kill_one_worker():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                busy = {int(path.name) for path in started.iterdir()}
                for child in multiprocessing.active_children():
                    if child.pid in busy:
                        os.kill(child.pid, signal.SIGKILL)
                        killed.set()
                        return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_one_worker, daemon=True)
        killer.start()
        store = JsonlStore(tmp_path / "killed.jsonl")
        stats = run_campaign(
            spec,
            store,
            workers=2,
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.01),
        )
        killer.join(timeout=30.0)
        assert killed.is_set(), "the killer thread never found a worker"
        assert stats.worker_restarts >= 1, "the kill missed the task in flight"
        assert stats.failed == 0
        assert {
            t.task_id(): store.get(t.task_id()) for t in spec.expand()
        } == expected

    def test_hung_worker_is_reaped_by_timeout(self, tmp_path):
        spec = quick_spec(rounds=4)
        clean = MemoryStore()
        run_campaign(spec, clean, workers=1)
        expected = {t.task_id(): clean.get(t.task_id()) for t in spec.expand()}

        store = JsonlStore(tmp_path / "hung.jsonl")
        stats = run_campaign(
            spec,
            store,
            workers=2,
            # Seed pinned so the keyed schedule provably fires on these
            # task ids (3 first-attempt hangs, at most 3 of 6 attempts).
            chaos=ChaosSpec(rate=0.5, seed=1, kinds=("hang",), hang_s=30.0),
            retry=RetryPolicy(
                max_attempts=6, timeout_s=1.0,
                backoff_base_s=0.01, backoff_max_s=0.05,
            ),
        )
        assert stats.timeouts >= 1, "the pinned schedule must hang once"
        assert stats.failed == 0
        assert {
            t.task_id(): store.get(t.task_id()) for t in spec.expand()
        } == expected


def _run_cli_campaign(store_path, spec_path, *, workers=2):
    env = {**os.environ, "PYTHONPATH": REPO_SRC}
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run",
            "--spec", os.fspath(spec_path),
            "--store", os.fspath(store_path),
            "--workers", str(workers),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for_first_row(proc, store_path, *, timeout_s=120.0):
    """Block until the CLI run has checkpointed its first row.

    A row on disk proves the graceful-signal handler is installed and the
    run is under way, without assuming how fast a task runs: a fixed sleep
    either fires before the handler exists or after the last task.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        assert proc.poll() is None, "the campaign exited before any row"
        if store_path.exists():
            with open(store_path, encoding="utf-8") as handle:
                if any(line.strip() for line in handle):
                    return
        time.sleep(0.01)
    raise AssertionError("no row checkpointed within the deadline")


class TestParentInterrupt:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_interrupt_checkpoints_and_resume_converges(
        self, tmp_path, signum
    ):
        spec = slow_spec(rounds=12, duration_s=120.0)
        clean = MemoryStore()
        run_campaign(spec, clean, workers=1)
        expected = {t.task_id(): clean.get(t.task_id()) for t in spec.expand()}

        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        store_path = tmp_path / "int.jsonl"

        proc = _run_cli_campaign(store_path, spec_path)
        _wait_for_first_row(proc, store_path)  # several still pending
        proc.send_signal(signum)
        _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130, err
        assert "re-run the same command to resume" in err

        checkpointed = 0
        if store_path.exists():
            with open(store_path, encoding="utf-8") as handle:
                checkpointed = sum(1 for line in handle if line.strip())
        assert checkpointed < len(expected), "interrupt landed too late"

        # Resume: exactly the missing tasks execute, then bits match.
        resume = _run_cli_campaign(store_path, spec_path)
        out, err = resume.communicate(timeout=600)
        assert resume.returncode == 0, err
        assert f"{checkpointed} cached" in out
        assert f"{len(expected) - checkpointed} executed" in out
        final = JsonlStore(store_path)
        assert {
            t.task_id(): final.get(t.task_id()) for t in spec.expand()
        } == expected


class TestStaleRowsNeverDuplicate:
    def test_timeout_killed_worker_cannot_double_record(self, tmp_path):
        # A worker reaped at its deadline may already have sent its row;
        # the supervisor drains it instead of double-recording after the
        # retry.  Duplicates on disk are legal (last wins) but the rows
        # must agree bitwise.
        spec = quick_spec(rounds=6)
        store = JsonlStore(tmp_path / "dup.jsonl")
        run_campaign(
            spec,
            store,
            workers=2,
            chaos=ChaosSpec(rate=0.5, seed=9, kinds=("hang",), hang_s=2.0),
            retry=RetryPolicy(
                max_attempts=8, timeout_s=1.0,
                backoff_base_s=0.01, backoff_max_s=0.05,
            ),
        )
        by_task = {}
        with open(store.path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                by_task.setdefault(record["task_id"], set()).add(
                    json.dumps(record["row"], sort_keys=True)
                )
        assert all(len(rows) == 1 for rows in by_task.values())
