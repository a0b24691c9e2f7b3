#!/usr/bin/env python3
"""Future-work study (§6): cooperator-selection strategies.

The prototype enlists every one-hop neighbour as a cooperator.  With a
five-car platoon this script compares that against keeping only the two
strongest neighbours (by mean HELLO RSSI) and a random-two control,
showing the trade-off the paper leaves open: fewer cooperators means
fewer responder transmissions but less reception diversity to draw on —
and "strongest RSSI" favours the *nearest* cars, whose losses are the
most correlated with yours, so BestK is not automatically better than
random selection.

Run:  python examples/cooperator_selection.py
"""

from dataclasses import replace

import numpy as np

from repro.analysis import compute_table1
from repro.core.selection import AllNeighbors, BestK, RandomK
from repro.scenarios.common import collect_matrices
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round

ROUNDS = 4


def run(strategy, label):
    base = UrbanScenarioConfig(seed=321, rounds=ROUNDS)
    config = replace(
        base,
        platoon=replace(
            base.platoon,
            n_cars=5,
            driver_styles=("normal", "timid", "aggressive", "normal", "timid"),
        ),
        carq=replace(base.carq, selection=strategy),
    )
    matrices_by_round = []
    responses = 0
    for index in range(ROUNDS):
        # Built by hand, not via run_round: the responder count is a
        # protocol counter, which the result row does not carry.
        ctx = build_urban_round(config, index)
        ctx.run()
        matrices_by_round.append(collect_matrices(ctx.capture, ctx.cars))
        responses += sum(
            car.protocol.stats.responses_sent for car in ctx.cars.values()
        )
    rows = compute_table1(matrices_by_round)
    after = sum(r.lost_after_pct for r in rows.values()) / len(rows)
    responses /= ROUNDS
    print(f"{label:<28} loss after coop {after:5.1f}%   "
          f"responder frames/round {responses:5.0f}")


def main() -> None:
    print(f"Five-car platoon, {ROUNDS} rounds per strategy …\n")
    run(AllNeighbors(), "all neighbours (paper)")
    run(BestK(2), "best-2 by HELLO RSSI")
    run(RandomK(2, np.random.default_rng(7)), "random-2 (control)")


if __name__ == "__main__":
    main()
