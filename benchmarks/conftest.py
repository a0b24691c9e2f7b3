"""Shared fixtures for the benchmark harness.

The urban experiment is expensive (≈0.5 s per round), so one
session-scoped run is shared by every table/figure benchmark.  Each
benchmark writes the artifact it regenerates (table rows / figure series)
to ``benchmarks/output/<experiment id>.txt`` — the numbers recorded in
EXPERIMENTS.md come from these files — and also prints it (visible with
``pytest -s``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.ioutil import atomic_write_json, atomic_write_text
from repro.scenarios import decode_matrix_rows, get_scenario
from repro.scenarios.urban import UrbanScenarioConfig

#: Rounds used by the shared urban run (paper: 30; benches trade a little
#: variance for wall-clock time).
URBAN_ROUNDS = 12

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Machine-readable perf trajectory: kernel and medium throughput numbers
#: land here so future PRs have a baseline to compare against (the CI
#: bench-smoke job uploads it as an artifact).
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_kernel.json"


@pytest.fixture(scope="session")
def urban_matrices():
    """Per-round matrices of one shared multi-round run of the paper testbed."""
    urban = get_scenario("urban")
    cfg = UrbanScenarioConfig(rounds=URBAN_ROUNDS)
    return decode_matrix_rows(
        [urban.run_round(cfg, index) for index in range(URBAN_ROUNDS)]
    )


@pytest.fixture(scope="session")
def bench_json_sink():
    """Writer that merges ``{key: payload}`` entries into BENCH_kernel.json.

    Entries survive across runs (merge, not overwrite), so one invocation
    of ``bench_kernel.py`` and one of the scenario benches together build
    the full perf record.
    """

    def write(key: str, payload: dict) -> None:
        data = {"schema": 1, "entries": {}}
        if BENCH_JSON.exists():
            data = json.loads(BENCH_JSON.read_text())
        data.setdefault("entries", {})[key] = payload
        # Atomic replace: check_bench_regression.py reads this file as a
        # baseline — an interrupt mid-write must never tear it.
        atomic_write_json(BENCH_JSON, data)
        print(f"\n===== BENCH_kernel.json[{key}] =====")
        print(json.dumps(payload, indent=2, sort_keys=True))

    return write


@pytest.fixture(scope="session")
def artifact_sink():
    """Writer that persists benchmark artifacts for EXPERIMENTS.md."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(experiment_id: str, text: str) -> None:
        atomic_write_text(OUTPUT_DIR / f"{experiment_id}.txt", text + "\n")
        print(f"\n===== {experiment_id} =====")
        print(text)

    return write
