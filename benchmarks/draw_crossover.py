"""Measure the batch kernel's draw crossover: per-lane vs vectorized draws.

    PYTHONPATH=src python3 benchmarks/draw_crossover.py [--passes 400] [--repeats 3]

For each survivor count n, a static AP broadcasts to n receivers that
drive away from it at 20 m/s, one broadcast per 7 ms, and all pass the
reachability cull.  This runs on the corridor (``multi_ap``) and highway
(``trace``) channel stacks at their scenarios' default radio settings.
:func:`repro.radio.batch.broadcast_samples` runs with ``DRAW_CROSSOVER``
forced to 0 (every survivor set drawn vectorized) and to a value no set
reaches (always per lane), each on a fresh channel of the same seed.
Each pass is timed on its own.  The table gives the median µs per pass,
as the median over ``--repeats`` runs that alternate which branch goes
first.  The break-even is the smallest n from which the vectorized draw
is no slower at every larger n measured.  The cull before the draw is
the same on both branches.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.geom import Vec2
from repro.mac.frames import NodeId
from repro.radio import batch
from repro.radio.phy import RadioConfig
from repro.scenarios import channels, get_scenario
from repro.scenarios.common import AP_NODE_ID
from repro.sim import Simulator

SURVIVORS = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32)
HEADROOM_DB = 12.0


def _corridor(sim: Simulator):
    return channels.corridor_channel(get_scenario("multi_ap").default_config().radio, sim)


def _highway(sim: Simulator):
    return channels.highway_channel(
        get_scenario("trace").default_config().radio, sim, AP_NODE_ID
    )


STACKS = (("corridor (multi_ap)", _corridor), ("highway (trace)", _highway))


def pass_median_us(make_channel, n: int, crossover: int, passes: int) -> float:
    """Median µs of one ``broadcast_samples`` call over *passes* broadcasts."""
    channel = make_channel(Simulator(seed=11))
    tx_power = get_scenario("multi_ap").default_config().radio.ap_tx_power_dbm
    threshold = RadioConfig().noise_floor_dbm - 10.0
    tx_pos = Vec2(0.0, 5.0)
    start_xs = 20.0 + (250.0 / n) * np.arange(n)
    ys = np.zeros(n)
    rx_ids = [NodeId(i + 1) for i in range(n)]
    gains = np.zeros(n)
    floors = np.full(n, threshold)
    saved = batch.DRAW_CROSSOVER
    batch.DRAW_CROSSOVER = crossover
    timings = []
    try:
        for k in range(passes):
            now = 0.007 * k
            xs = start_xs + 20.0 * now
            if k in (0, passes - 1):
                losses = channel.link_budget_batch(tx_pos, xs, ys)[1]
                if not (tx_power - losses + HEADROOM_DB >= floors).all():
                    raise RuntimeError("every lane must survive the cull")
            begin = time.perf_counter_ns()
            batch.broadcast_samples(
                channel, AP_NODE_ID, rx_ids, tx_pos, xs, ys, gains, floors,
                tx_power, HEADROOM_DB, now, k + 1,
            )
            timings.append(time.perf_counter_ns() - begin)
    finally:
        batch.DRAW_CROSSOVER = saved
    return statistics.median(timings[passes // 10:]) / 1000.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    never = max(SURVIVORS) + 1
    print(f"{'stack':<22}{'survivors':>10}{'vectorized_us':>15}{'per_lane_us':>13}")
    for name, make_channel in STACKS:
        break_even = None
        for n in SURVIVORS:
            vectorized, per_lane = [], []
            for repeat in range(args.repeats):
                order = [(0, vectorized), (never, per_lane)]
                for crossover, sink in order[:: 1 if repeat % 2 == 0 else -1]:
                    sink.append(pass_median_us(make_channel, n, crossover, args.passes))
            vec_us = statistics.median(vectorized)
            lane_us = statistics.median(per_lane)
            if vec_us > lane_us:
                break_even = None
            elif break_even is None:
                break_even = n
            print(f"{name:<22}{n:>10}{vec_us:>15.1f}{lane_us:>13.1f}")
        print(f"{name:<22} break-even at {break_even} survivors")


if __name__ == "__main__":
    main()
