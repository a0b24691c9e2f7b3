"""Experiment ``table1`` — regenerate the paper's Table 1.

Paper values (30 rounds, urban loop): per-car losses before cooperation
23.4 / 26.9 / 28.6 %, after cooperation 10.5 / 17.3 / 15.7 % — i.e.
cooperation roughly halves residual loss.  The check prints the
regenerated table next to the paper's percentages.
"""

from repro.analysis.stats import PAPER_TABLE1, compute_table1
from repro.analysis.report import render_table1


def test_table1(urban_matrices, artifact_sink):
    rows = compute_table1(urban_matrices)
    text = render_table1(rows, paper_reference=PAPER_TABLE1)
    artifact_sink("table1", text)

    # Shape assertions: cooperation roughly halves losses for every car.
    for row in rows.values():
        assert row.lost_after_mean < row.lost_before_mean
        assert row.loss_reduction_pct > 30.0
        assert 15.0 < row.lost_before_pct < 50.0
