"""Experiment ``sweep-speed`` — highway drive-thru losses vs speed.

Reproduces the motivation scenario (Ott & Kutscher [1], cited in §1/§4):
a platoon passing a road-side AP at highway speeds suffers on the order
of 50–60 % losses at the lossy 11 Mb/s setting, getting worse with speed,
and C-ARQ recovers a substantial share in the dark area behind the AP.
"""

from repro.analysis.report import format_table
from repro.campaign import (
    CampaignSpec,
    MemoryStore,
    axis,
    config_to_dict,
    run_campaign,
    sweep_points,
)
from repro.scenarios.highway import HighwayConfig
from repro.units import ms_to_kmh

SPEEDS_MS = [10.0, 20.0, 30.0, 40.0]
ROUNDS = 3


def speed_sweep(cfg: HighwayConfig):
    spec = CampaignSpec(
        name="speed",
        scenario="highway",
        seed=cfg.seed,
        rounds=cfg.rounds,
        base=config_to_dict(cfg),
        axes=(axis("speed_ms", SPEEDS_MS),),
    )
    store = MemoryStore()
    run_campaign(spec, store)
    return sweep_points(store, spec)


def test_highway_speed_sweep(benchmark, artifact_sink):
    cfg = HighwayConfig(rounds=ROUNDS, seed=31)

    points = benchmark.pedantic(speed_sweep, args=(cfg,), rounds=1, iterations=1)

    rows = [
        [
            f"{ms_to_kmh(point.parameter):.0f} km/h",
            f"{point.tx_by_ap_mean:.0f}",
            f"{100 * point.lost_before_fraction:.1f}%",
            f"{100 * point.lost_after_fraction:.1f}%",
            f"{100 * point.reduction_fraction:.0f}%",
        ]
        for point in points
    ]
    text = format_table(
        ["Speed", "Pkts in window", "Lost before", "Lost after", "Coop reduction"],
        rows,
        title="Drive-thru losses vs speed (11 Mb/s, after [1])",
    )
    artifact_sink("sweep-speed", text)

    # Shape: losses in the 30–70 % band reported by [1] for the fast passes,
    # window shrinking with speed, and cooperation always helping.
    assert points[-1].lost_before_fraction > 0.3
    assert points[0].tx_by_ap_mean > points[-1].tx_by_ap_mean
    for point in points:
        assert point.lost_after_fraction < point.lost_before_fraction
    # Loss fraction worsens from the slowest to the fastest pass.
    assert points[-1].lost_before_fraction > points[0].lost_before_fraction


def test_highway_large_n_fast_path(benchmark):
    """Largest-N highway: 96 vehicles over 14.6 km of dense traffic.

    Dense through-traffic (``spread_along_road``, 150 m gaps) is the
    batch kernel's target regime: each broadcast reaches most of the
    fleet, so per-candidate Python cost dominates the scalar path.  Two
    arms over a fixed 5-simulated-second window — the production path
    (culling + vectorized batch kernel, the default) and the exhaustive
    scalar oracle; outcomes are pinned bit-identical by the A/B test.
    """
    import dataclasses
    import time

    from repro.scenarios.highway import build_highway_round

    def window_seconds(fast_path: bool) -> float:
        cfg = HighwayConfig(
            n_cars=96,
            gap_m=150.0,
            speed_ms=30.0,
            road_length_m=14625.0,
            seed=5,
            spread_along_road=True,
        )
        cfg = dataclasses.replace(
            cfg,
            radio=dataclasses.replace(cfg.radio, reception_fast_path=fast_path),
        )
        ctx = build_highway_round(cfg, 0)
        t0 = time.perf_counter()
        ctx.sim.run(until=5.0)
        return time.perf_counter() - t0

    batch = benchmark.pedantic(window_seconds, args=(True,), rounds=1, iterations=1)
    exhaustive = window_seconds(False)
    print(f"\n97 radios, 5 s window: batch {batch:.3f} s, "
          f"exhaustive {exhaustive:.3f} s, speedup {exhaustive / batch:.2f}")
    # Generous floor: one window per arm is a noisy timing.
    assert exhaustive / batch > 1.4
