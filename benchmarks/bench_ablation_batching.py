"""Experiment ``ablate-batching`` — per-packet vs batched REQUESTs.

§3.3: "one optimization that arises directly is to include in the REQUEST
messages all the missing packets, instead of sending a REQUEST for each
one."  The ablation quantifies it: same recovery, several-fold fewer
request frames and less dark-area airtime.
"""

from dataclasses import replace

from repro.analysis.report import format_table
from repro.scenarios.common import collect_matrices
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round

ROUNDS = 6


def run_variant(max_batch: int):
    base = UrbanScenarioConfig(seed=501)
    cfg = replace(base, carq=replace(base.carq, max_batch=max_batch))
    request_frames = recovered = after = tx = 0
    for index in range(ROUNDS):
        ctx = build_urban_round(cfg, index)
        ctx.run()
        for car in ctx.cars.values():
            request_frames += car.protocol.stats.request_frames_sent
        for matrix in collect_matrices(ctx.capture, ctx.cars).values():
            tx += matrix.tx_by_ap
            after += matrix.lost_after_coop
            recovered += matrix.lost_before_coop - matrix.lost_after_coop
    return {
        "request_frames": request_frames / ROUNDS,
        "recovered": recovered / ROUNDS,
        "after_pct": 100.0 * after / tx,
    }


def test_batched_requests_ablation(benchmark, artifact_sink):
    per_packet = run_variant(max_batch=1)
    batched = benchmark.pedantic(run_variant, args=(64,), rounds=1, iterations=1)

    text = format_table(
        ["Variant", "REQUEST frames/round", "Recovered pkts/round", "Loss after coop"],
        [
            [
                "per-packet (paper §3.3 base)",
                f"{per_packet['request_frames']:.0f}",
                f"{per_packet['recovered']:.1f}",
                f"{per_packet['after_pct']:.1f}%",
            ],
            [
                "batched (§3.3 optimisation)",
                f"{batched['request_frames']:.0f}",
                f"{batched['recovered']:.1f}",
                f"{batched['after_pct']:.1f}%",
            ],
        ],
        title="Batched vs per-packet REQUESTs (urban testbed)",
    )
    artifact_sink("ablate-batching", text)

    # Batched requests need several-fold fewer frames at equal recovery.
    assert batched["request_frames"] < per_packet["request_frames"] / 3
    assert batched["after_pct"] <= per_packet["after_pct"] + 2.0
