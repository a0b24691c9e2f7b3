#!/usr/bin/env python3
"""Highway drive-thru: losses vs speed, with and without cooperation.

Reproduces the paper's motivation scenario (after Ott & Kutscher [1]):
a three-car platoon passes a road-side AP at highway speed using the
lossy 11 Mb/s rate.  Losses around 50–60 % grow with speed; the
Cooperative-ARQ phase in the dark area behind the AP claws a share back
(using the §3.3 batched-REQUEST optimisation — at highway scale the
missing lists are hundreds of packets long).

Run:  python examples/highway_platoon.py
"""

from repro.campaign import (
    CampaignSpec,
    MemoryStore,
    axis,
    config_to_dict,
    run_campaign,
    sweep_points,
)
from repro.scenarios.highway import HighwayConfig
from repro.units import kmh_to_ms, ms_to_kmh


def main() -> None:
    config = HighwayConfig(rounds=3, seed=101)
    speeds = [kmh_to_ms(v) for v in (40.0, 80.0, 120.0)]
    spec = CampaignSpec(
        name="speed",
        scenario="highway",
        seed=config.seed,
        rounds=config.rounds,
        base=config_to_dict(config),
        axes=(axis("speed_ms", speeds),),
    )
    print("Sweeping drive-thru speed (3 rounds each) …\n")
    store = MemoryStore()
    run_campaign(spec, store)
    points = sweep_points(store, spec)

    print(f"{'speed':>10} {'pkts in window':>15} {'lost before':>12} "
          f"{'lost after':>11} {'coop gain':>10}")
    for point in points:
        print(
            f"{ms_to_kmh(point.parameter):>7.0f} km/h "
            f"{point.tx_by_ap_mean:>15.0f} "
            f"{100 * point.lost_before_fraction:>11.1f}% "
            f"{100 * point.lost_after_fraction:>10.1f}% "
            f"{100 * point.reduction_fraction:>9.0f}%"
        )

    print(
        "\nThe contact window shrinks roughly as 1/speed while the loss "
        "fraction worsens — the regime that motivates delay-tolerant "
        "cooperative recovery between infostations."
    )


if __name__ == "__main__":
    main()
