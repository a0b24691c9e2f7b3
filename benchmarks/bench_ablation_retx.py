"""Experiment ``ablate-retx`` — retransmission policies vs C-ARQ (§3.2/§6).

The paper disables AP retransmissions so the whole coverage window carries
*new* data, betting on dark-area recovery.  This ablation measures the
trade: the paper's design (no retx + C-ARQ) against blind double
transmission and against the in-coverage NACK/ARQ baseline, all on the
same testbed.  Metric: distinct packets delivered to the destination
(after any recovery) per AP data frame spent — airtime efficiency.
"""

from dataclasses import replace

from repro.analysis.report import format_table
from repro.core.retransmission import FixedRetransmission
from repro.scenarios.common import collect_matrices
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round

ROUNDS = 5


def _efficiency(matrices, ap_frames):
    delivered = sum(m.tx_by_ap - m.lost_after_coop for m in matrices.values())
    return delivered, delivered / max(ap_frames, 1)


def run_carq(retx_policy=None):
    cfg = UrbanScenarioConfig(seed=909)
    delivered_total = frames_total = 0
    after = tx = 0
    for index in range(ROUNDS):
        ctx = build_urban_round(cfg, index)
        if retx_policy is not None:
            ctx.ap._retx_policy = retx_policy
        ctx.run()
        matrices = collect_matrices(ctx.capture, ctx.cars)
        delivered, _ = _efficiency(matrices, ctx.ap.iface.frames_sent)
        delivered_total += delivered
        frames_total += ctx.ap.iface.frames_sent
        for matrix in matrices.values():
            tx += matrix.tx_by_ap
            after += matrix.lost_after_coop
    return {
        "efficiency": delivered_total / frames_total,
        "after_pct": 100.0 * after / tx,
    }


def run_arq_baseline():
    cfg = UrbanScenarioConfig(seed=909, mode="arq")
    delivered_total = frames_total = after = tx = 0
    for index in range(ROUNDS):
        ctx = build_urban_round(cfg, index)
        ctx.run()
        matrices = collect_matrices(ctx.capture, ctx.cars)
        delivered, _ = _efficiency(matrices, ctx.ap.iface.frames_sent)
        delivered_total += delivered
        frames_total += ctx.ap.iface.frames_sent
        for matrix in matrices.values():
            tx += matrix.tx_by_ap
            after += matrix.lost_after_coop
    return {
        "efficiency": delivered_total / frames_total,
        "after_pct": 100.0 * after / tx,
    }


def test_retransmission_ablation(artifact_sink):
    carq = run_carq()
    double_tx = run_carq(FixedRetransmission(2))
    arq = run_arq_baseline()

    text = format_table(
        ["Scheme", "Residual loss", "Delivered pkts / AP frame"],
        [
            ["no retx + C-ARQ (paper)", f"{carq['after_pct']:.1f}%",
             f"{carq['efficiency']:.3f}"],
            ["2× blind retx + C-ARQ", f"{double_tx['after_pct']:.1f}%",
             f"{double_tx['efficiency']:.3f}"],
            ["in-coverage NACK ARQ, no coop", f"{arq['after_pct']:.1f}%",
             f"{arq['efficiency']:.3f}"],
        ],
        title="Retransmission policy ablation (urban testbed)",
    )
    artifact_sink("ablate-retx", text)

    # The paper's bet: C-ARQ without retransmissions uses AP airtime more
    # efficiently than either spending it on blind copies or on ARQ.
    assert carq["efficiency"] > double_tx["efficiency"]
    assert carq["efficiency"] > arq["efficiency"]
    # And still ends with less residual loss than the ARQ baseline.
    assert carq["after_pct"] < arq["after_pct"]
