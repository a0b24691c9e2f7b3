"""Experiment ``campaign-speedup`` — parallel campaign vs the serial path.

Runs the same platoon-size campaign twice — serial executor and a
2-worker process pool — and reports wall-clock, speedup, and the per-task
throughput.  The engine guarantees the runs are bit-identical (task seeds
depend only on the spec), which this benchmark also verifies row by row:
the speedup is free of reproducibility cost.

On a single-core container the pool adds overhead instead of speed; the
artifact records whatever the hardware gives, the invariant is identity.
"""

import time

from repro.analysis.report import format_table
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, config_to_dict
from repro.campaign.store import MemoryStore
from repro.scenarios.urban import UrbanScenarioConfig, platoon_size_points

SIZES = [2, 3]
ROUNDS = 4
WORKERS = 2


def _timed_run(spec, workers):
    store = MemoryStore()
    start = time.perf_counter()
    stats = run_campaign(spec, store, workers=workers)
    elapsed = time.perf_counter() - start
    rows = {t.task_id(): store.get(t.task_id()) for t in spec.expand()}
    return elapsed, stats, rows


def test_campaign_parallel_speedup(artifact_sink):
    spec = CampaignSpec.from_dict(
        {
            "name": "platoon-size",
            "scenario": "urban",
            "seed": 55,
            "rounds": ROUNDS,
            "base": config_to_dict(UrbanScenarioConfig(seed=55)),
            "axes": [
                {"name": "platoon.n_cars", "points": platoon_size_points(SIZES)}
            ],
        }
    )

    serial_s, serial_stats, serial_rows = _timed_run(spec, workers=1)
    parallel_s, parallel_stats, parallel_rows = _timed_run(spec, workers=WORKERS)

    assert serial_stats.executed == parallel_stats.executed == len(spec.expand())
    # The load-bearing claim: fan-out never changes a row.
    assert parallel_rows == serial_rows

    rows = [
        ["serial", "1", f"{serial_s:.2f} s",
         f"{serial_stats.executed / serial_s:.2f}/s", "1.00x"],
        ["pool", str(WORKERS), f"{parallel_s:.2f} s",
         f"{parallel_stats.executed / parallel_s:.2f}/s",
         f"{serial_s / parallel_s:.2f}x"],
    ]
    text = format_table(
        ["Executor", "Workers", "Wall clock", "Tasks/s", "Speedup"],
        rows,
        title=(
            f"Campaign executor: {len(spec.expand())} urban tasks "
            f"(platoon sizes {SIZES}, {ROUNDS} rounds), rows bit-identical"
        ),
    )
    artifact_sink("campaign-speedup", text)
