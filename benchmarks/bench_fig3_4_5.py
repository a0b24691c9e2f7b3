"""Experiments ``fig3``/``fig4``/``fig5`` — per-packet reception curves.

Each figure plots, for the flow addressed to car *i*, the probability that
each of the three cars received each packet number directly from the AP.
The paper's shape: the destination's curve is high while it is deep in
coverage and collapses at its own entry (Region I) or exit (Region III)
edge, where the *other* cars — shifted in space — still receive well.
"""

import pytest

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.reception_prob import reception_curves
from repro.analysis.regions import estimate_regions
from repro.analysis.report import format_series
from repro.analysis.stats import flow_matrices
from repro.mac.frames import NodeId

CARS = [NodeId(1), NodeId(2), NodeId(3)]
NAMES = {car: f"car {car}" for car in CARS}


@pytest.mark.parametrize("flow_car", CARS, ids=["fig3", "fig4", "fig5"])
def test_reception_probability_figure(flow_car, urban_matrices, artifact_sink):
    matrices = flow_matrices(urban_matrices, flow_car)

    curves = reception_curves(matrices, CARS, car_names=NAMES)
    smoothed = [curves[car].smoothed(7) for car in CARS]
    regions = estimate_regions(matrices, CARS)

    figure_number = 2 + int(flow_car)
    header = (
        f"Figure {figure_number}: P(reception) of packets addressed to car "
        f"{flow_car}\nRegion I ends ~pkt {regions.region_i_end}, Region III "
        f"starts ~pkt {regions.region_iii_start} (window ≈ {regions.window_length})"
    )
    text = (
        header
        + "\n"
        + ascii_plot(smoothed, title="")
        + "\n"
        + format_series(smoothed, every=15)
    )
    artifact_sink(f"fig{figure_number}", text)

    # Shape assertions ----------------------------------------------------
    destination = curves[flow_car].probabilities
    others = [curves[car].probabilities for car in CARS if car != flow_car]
    window = regions.window_length

    # Region II: the destination receives most packets directly.
    mid = slice(regions.region_i_end + 5, regions.region_iii_start - 5)
    mid_values = destination[mid]
    assert sum(mid_values) / max(len(mid_values), 1) > 0.5

    # Region structure exists: I and III are non-trivial slices.
    assert 1 <= regions.region_i_end < regions.region_iii_start <= window

    # Staggered platoon: for car 1's flow the followers lag at the start;
    # for car 3's flow the leaders fade at the end (paper Figs 3 and 5).
    if flow_car == NodeId(1):
        head = slice(0, max(regions.region_i_end - 5, 3))
        for other in others:
            assert sum(destination[head]) >= sum(other[head])
    if flow_car == NodeId(3):
        tail = slice(regions.region_iii_start + 5, window)
        leader = curves[NodeId(1)].probabilities
        assert sum(destination[tail]) >= sum(leader[tail])
