#!/usr/bin/env python3
"""Table-1 comparison as one paired-seed campaign over the mode axis.

The paper's evaluation is comparative: C-ARQ against no cooperation,
persistent in-coverage ARQ, and epidemic relaying.  Since the protocol is
just the ``mode`` field of the scenario configuration, the whole
comparison is a single campaign with ``mode`` as a grid axis — every arm
shares the campaign seed, so all four protocols see the same
trajectories and the same channel realisation structure.

Run:  python examples/protocol_comparison.py
"""

from repro.campaign import (
    CampaignSpec,
    MemoryStore,
    config_to_dict,
    run_campaign,
    sweep_points,
)
from repro.scenarios import PROTOCOL_MODES, get_scenario
from repro.scenarios.urban import UrbanScenarioConfig


def main() -> None:
    base = UrbanScenarioConfig(seed=2008, round_duration_s=85.0)
    spec = CampaignSpec.from_dict(
        {
            "name": "protocol-comparison",
            "scenario": "urban",
            "seed": base.seed,
            "rounds": 5,
            "base": config_to_dict(base),
            "axes": [
                {
                    "name": "mode",
                    "points": [
                        {"label": mode, "overrides": {"mode": mode}}
                        for mode in PROTOCOL_MODES
                    ],
                }
            ],
        }
    )
    print("Running 5 paired rounds per protocol mode …\n")
    store = MemoryStore()
    run_campaign(spec, store, workers=1)

    plugin = get_scenario(spec.scenario)
    print(plugin.report_header)
    for point in sweep_points(store, spec):
        print(plugin.report_line(point))

    print(
        "\nSame seeds in every arm: the before-coop columns differ only "
        "through each protocol's own airtime, and the after-coop column "
        "is the protocol's contribution.  The in-coverage ARQ baseline "
        "folds its gain into the before column (retransmissions are "
        "direct receptions), while epidemic relaying trades much higher "
        "vehicle airtime for its recovery — run "
        "benchmarks/bench_overhead_epidemic.py for the overhead side."
    )


if __name__ == "__main__":
    main()
