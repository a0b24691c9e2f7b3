"""Experiment ``multi-ap`` — APs needed to download a file (§6).

"…study how the presented loss reduction can reduce the number of APs
that a vehicular node needs to visit to download a file."  Infostations
every 800 m cyclically broadcast a 250-block file per car; cooperative
recovery runs in the gaps.  Paired comparison on identical channel
realisations: infostations passed until the file is complete, with
C-ARQ vs direct reception only.
"""

import math

from repro.analysis.report import format_table
from repro.scenarios.multi_ap import (
    MultiApConfig,
    build_multi_ap_round,
    collect_download_outcomes,
)

ROUNDS = 3


def download_outcomes(cfg: MultiApConfig):
    outcomes = []
    for index in range(cfg.rounds):
        ctx = build_multi_ap_round(cfg, index)
        ctx.run()
        outcomes.extend(collect_download_outcomes(ctx))
    return outcomes


def test_multi_ap_download(benchmark, artifact_sink):
    cfg = MultiApConfig(rounds=ROUNDS, seed=67)

    outcomes = benchmark.pedantic(
        download_outcomes, args=(cfg,), rounds=1, iterations=1
    )
    coop = [o.aps_visited_coop for o in outcomes if math.isfinite(o.aps_visited_coop)]
    direct = [
        o.aps_visited_direct for o in outcomes if math.isfinite(o.aps_visited_direct)
    ]
    coop_incomplete = sum(1 for o in outcomes if math.isinf(o.aps_visited_coop))
    direct_incomplete = sum(1 for o in outcomes if math.isinf(o.aps_visited_direct))

    def fmt(values, incomplete):
        if not values:
            return f"never completed ({incomplete} cars)"
        mean = sum(values) / len(values)
        return f"{mean:.1f} APs (+{incomplete} never finished)"

    text = format_table(
        ["Scheme", "Infostations needed for the 250-block file"],
        [
            ["C-ARQ (coop in gaps)", fmt(coop, coop_incomplete)],
            ["direct reception only", fmt(direct, direct_incomplete)],
        ],
        title=f"Multi-AP download, {len(outcomes)} car-rounds, APs every "
        f"{cfg.ap_spacing_m:.0f} m",
    )
    artifact_sink("multi-ap", text)

    # Paired: cooperation never delays completion, and on aggregate
    # completes with strictly fewer infostation visits.
    for outcome in outcomes:
        assert outcome.aps_visited_coop <= outcome.aps_visited_direct
    finished_pairs = [
        (o.aps_visited_coop, o.aps_visited_direct)
        for o in outcomes
        if math.isfinite(o.aps_visited_direct)
    ]
    if finished_pairs:
        assert sum(c for c, _ in finished_pairs) < sum(d for _, d in finished_pairs)
    assert coop_incomplete <= direct_incomplete


def test_multi_ap_large_n_fast_path(benchmark):
    """Largest-N corridor: 20 infostations + 48 cars (68 radios).

    A dense car wave passing closely spaced infostations: every
    broadcast past its transmitter's reach horizon offers the whole wave
    as candidates (the batch kernel's regime), while infostations out of
    every car's reach beacon unheard — so this case measures the
    *blended* end-to-end win, protocol and event kernel included, not
    just the reception pipeline.  Two arms over a
    fixed 10-simulated-second window, the production path and the
    exhaustive scalar oracle; outcomes are pinned bit-identical by
    ``tests/scenarios/test_fast_path_ab.py``.
    """
    import dataclasses
    import time

    def window_seconds(fast_path: bool) -> float:
        cfg = MultiApConfig(
            road_length_m=4000.0,
            ap_spacing_m=200.0,
            n_cars=48,
            file_blocks=250,
            speed_ms=15.0,
            seed=5,
        )
        cfg = dataclasses.replace(
            cfg,
            radio=dataclasses.replace(cfg.radio, reception_fast_path=fast_path),
        )
        ctx = build_multi_ap_round(cfg, 0)
        t0 = time.perf_counter()
        ctx.sim.run(until=10.0)
        return time.perf_counter() - t0

    batch = benchmark.pedantic(window_seconds, args=(True,), rounds=1, iterations=1)
    exhaustive = window_seconds(False)
    print(f"\n68 radios, 10 s window: batch {batch:.3f} s, "
          f"exhaustive {exhaustive:.3f} s, speedup {exhaustive / batch:.2f}")
    # Generous floor: one window per arm is a noisy timing.
    assert exhaustive / batch > 1.5
