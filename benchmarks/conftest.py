"""Shared fixtures for the benchmark harness.

The urban experiment is expensive (≈0.5 s per round), so one
session-scoped run is shared by every table/figure benchmark.  Each
benchmark writes the artifact it regenerates (table rows / figure series)
to ``benchmarks/output/<experiment id>.txt`` — the numbers recorded in
EXPERIMENTS.md come from these files — and also prints it (visible with
``pytest -s``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.ioutil import atomic_write_text
from repro.scenarios import decode_matrix_rows, get_scenario
from repro.scenarios.urban import UrbanScenarioConfig

#: Rounds used by the shared urban run (paper: 30; benches trade a little
#: variance for wall-clock time).
URBAN_ROUNDS = 12

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def urban_matrices():
    """Per-round matrices of one shared multi-round run of the paper testbed."""
    urban = get_scenario("urban")
    cfg = UrbanScenarioConfig(rounds=URBAN_ROUNDS)
    return decode_matrix_rows(
        [urban.run_round(cfg, index) for index in range(URBAN_ROUNDS)]
    )


@pytest.fixture(scope="session")
def artifact_sink():
    """Writer that persists benchmark artifacts for EXPERIMENTS.md."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(experiment_id: str, text: str) -> None:
        atomic_write_text(OUTPUT_DIR / f"{experiment_id}.txt", text + "\n")
        print(f"\n===== {experiment_id} =====")
        print(text)

    return write
