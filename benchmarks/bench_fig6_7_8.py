"""Experiments ``fig6``/``fig7``/``fig8`` — after-coop vs joint reception.

The paper's key near-optimality result: for every car the probability of
holding a packet *after* the Cooperative-ARQ phase is almost coincident
with the joint probability that *any* platoon car received it — the
protocol behaves like "a virtual car which uses the better reception
conditions of all of them".
"""

import pytest

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.joint import coop_curves, optimality_gap
from repro.analysis.report import format_series
from repro.analysis.stats import flow_matrices
from repro.mac.frames import NodeId

CARS = [NodeId(1), NodeId(2), NodeId(3)]


@pytest.mark.parametrize("flow_car", CARS, ids=["fig6", "fig7", "fig8"])
def test_after_coop_vs_joint_figure(flow_car, urban_matrices, artifact_sink):
    matrices = flow_matrices(urban_matrices, flow_car)

    curves = coop_curves(matrices, car_name=f"car {flow_car}")
    gap = optimality_gap(matrices)

    figure_number = 5 + int(flow_car)
    smoothed = [curves.joint.smoothed(7), curves.after_coop.smoothed(7)]
    text = (
        f"Figure {figure_number}: reception with C-ARQ in car {flow_car} "
        f"vs joint reception\nmean optimality gap (joint − after-coop) = {gap:.4f}\n"
        + ascii_plot(smoothed, title="")
        + "\n"
        + format_series(smoothed, every=15)
    )
    artifact_sink(f"fig{figure_number}", text)

    # Shape assertions ----------------------------------------------------
    # 1. Near-optimality: the two curves are "almost coincident".
    assert gap <= 0.02

    # 2. Pointwise: after-coop never exceeds joint (no invented packets),
    #    and tracks it within a small margin almost everywhere.
    after = curves.after_coop.probabilities
    joint = curves.joint.probabilities
    close = 0
    for a, j in zip(after, joint):
        assert a <= j + 1e-9
        if j - a <= 0.15:
            close += 1
    assert close / len(joint) > 0.9
