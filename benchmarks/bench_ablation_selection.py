"""Experiment ``ablate-selection`` — cooperator-selection strategies (§6).

The paper leaves "an algorithm for selecting the optimal cooperators" as
future work.  With a 5-car platoon this ablation compares using every
neighbour (the prototype), the best-2 by HELLO RSSI, and a random-2
control: selection should cut responder traffic with only a small loss
penalty, and BestK should beat RandomK.
"""

from dataclasses import replace

import numpy as np

from repro.analysis.report import format_table
from repro.core.selection import AllNeighbors, BestK, RandomK
from repro.scenarios.common import collect_matrices
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round

ROUNDS = 5


def run_strategy(strategy):
    base = UrbanScenarioConfig(seed=777)
    cfg = replace(
        base,
        platoon=replace(
            base.platoon,
            n_cars=5,
            driver_styles=("normal", "timid", "aggressive", "normal", "timid"),
        ),
        carq=replace(base.carq, selection=strategy),
    )
    tx = after = responses = 0
    for index in range(ROUNDS):
        ctx = build_urban_round(cfg, index)
        ctx.run()
        for matrix in collect_matrices(ctx.capture, ctx.cars).values():
            tx += matrix.tx_by_ap
            after += matrix.lost_after_coop
        for car in ctx.cars.values():
            responses += car.protocol.stats.responses_sent
    return {
        "after_pct": 100.0 * after / tx,
        "responses": responses / ROUNDS,
    }


def test_cooperator_selection_ablation(artifact_sink):
    all_neighbors = run_strategy(AllNeighbors())
    best2 = run_strategy(BestK(2))
    random2 = run_strategy(RandomK(2, np.random.default_rng(0)))

    rows = [
        ["all neighbours (paper)", f"{all_neighbors['after_pct']:.1f}%",
         f"{all_neighbors['responses']:.0f}"],
        ["best-2 by RSSI", f"{best2['after_pct']:.1f}%", f"{best2['responses']:.0f}"],
        ["random-2", f"{random2['after_pct']:.1f}%", f"{random2['responses']:.0f}"],
    ]
    text = format_table(
        ["Strategy", "Loss after coop", "Coop responses/round"],
        rows,
        title="Cooperator selection (5-car platoon)",
    )
    artifact_sink("ablate-selection", text)

    # All-neighbours is the delivery upper bound (more diversity on tap).
    assert all_neighbors["after_pct"] <= best2["after_pct"] + 2.0
    # Selection strategies answer with at most as many responder frames.
    assert best2["responses"] <= all_neighbors["responses"] * 1.1
