#!/usr/bin/env python3
"""The full paper experiment: Table 1 and ASCII renderings of Figs 3–8.

Runs the urban testbed for a configurable number of rounds (default 15;
the paper used 30) and regenerates every evaluation artifact:

* Table 1 — per-car packets transmitted / lost before / lost after;
* Figures 3–5 — P(reception) per packet number of each car's flow, at
  all three cars, with Region I/II/III boundaries;
* Figures 6–8 — after-cooperation vs joint reception (near-optimality).

Run:  python examples/urban_testbed.py [rounds]
"""

import sys

from repro import PAPER_TABLE1, UrbanScenarioConfig
from repro.analysis import (
    ascii_plot,
    compute_table1,
    coop_curves,
    estimate_regions,
    flow_matrices,
    optimality_gap,
    reception_curves,
    render_table1,
)
from repro.mac.frames import NodeId
from repro.scenarios import decode_matrix_rows, get_scenario

CARS = [NodeId(1), NodeId(2), NodeId(3)]
NAMES = {car: f"car {car}" for car in CARS}


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    print(f"Simulating {rounds} rounds of the Fig. 2 urban loop …\n")
    config = UrbanScenarioConfig(rounds=rounds)
    urban = get_scenario("urban")
    by_round = decode_matrix_rows(
        [urban.run_round(config, index) for index in range(rounds)]
    )

    print(render_table1(
        compute_table1(by_round),
        paper_reference=PAPER_TABLE1,
    ))

    for flow in CARS:
        matrices = flow_matrices(by_round, flow)
        curves = reception_curves(matrices, CARS, car_names=NAMES)
        regions = estimate_regions(matrices, CARS)
        figure = 2 + int(flow)
        print(f"\nFigure {figure} — P(reception), packets addressed to car {flow}")
        print(
            f"Region I: pkt 1–{regions.region_i_end}   "
            f"Region II: –{regions.region_iii_start - 1}   "
            f"Region III: –{regions.window_length}"
        )
        print(ascii_plot([curves[car].smoothed(7) for car in CARS]))

    for flow in CARS:
        matrices = flow_matrices(by_round, flow)
        curves = coop_curves(matrices, car_name=f"car {flow}")
        figure = 5 + int(flow)
        print(f"\nFigure {figure} — after-coop vs joint reception, car {flow}")
        print(f"mean optimality gap: {optimality_gap(matrices):.4f}")
        print(ascii_plot([curves.joint.smoothed(7), curves.after_coop.smoothed(7)]))


if __name__ == "__main__":
    main()
