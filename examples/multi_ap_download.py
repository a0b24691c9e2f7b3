#!/usr/bin/env python3
"""Future-work study (§6): how many infostations does a download need?

A platoon drives a long road with APs every 800 m, each cyclically
broadcasting the 250 blocks of a per-car file.  Between APs the cars run
the Cooperative-ARQ phase.  The script reports, per car, how many
infostations had to be passed before the file was complete — with
cooperation versus direct reception only (computed post-hoc from the
same simulation run, so the comparison is paired).

Run:  python examples/multi_ap_download.py
"""

import math

from repro.scenarios.multi_ap import (
    MultiApConfig,
    build_multi_ap_round,
    collect_download_outcomes,
)


def fmt(aps: float) -> str:
    return "never" if math.isinf(aps) else f"{aps:.0f}"


def main() -> None:
    config = MultiApConfig(rounds=2, seed=42)
    n_aps = len(config.ap_positions())
    print(
        f"Road: {config.road_length_m / 1000:.0f} km, {n_aps} infostations "
        f"every {config.ap_spacing_m:.0f} m, file of {config.file_blocks} "
        f"blocks per car, platoon at {config.speed_ms * 3.6:.0f} km/h\n"
    )

    print(f"{'round':>5} {'car':>4} {'APs (C-ARQ)':>12} {'APs (direct)':>13}")
    coop_total, direct_total, pairs = 0.0, 0.0, 0
    for round_index in range(config.rounds):
        ctx = build_multi_ap_round(config, round_index)
        ctx.run()
        for outcome in collect_download_outcomes(ctx):
            print(
                f"{round_index:>5} {outcome.car:>4} "
                f"{fmt(outcome.aps_visited_coop):>12} "
                f"{fmt(outcome.aps_visited_direct):>13}"
            )
            if math.isfinite(outcome.aps_visited_direct):
                coop_total += outcome.aps_visited_coop
                direct_total += outcome.aps_visited_direct
                pairs += 1

    if pairs:
        saving = 100.0 * (1.0 - coop_total / direct_total)
        print(
            f"\nMean: {coop_total / pairs:.1f} APs with C-ARQ vs "
            f"{direct_total / pairs:.1f} without — {saving:.0f}% fewer "
            "infostation visits thanks to dark-area cooperation."
        )


if __name__ == "__main__":
    main()
