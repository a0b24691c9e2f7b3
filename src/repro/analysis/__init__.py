"""Post-processing: from reception matrices to the paper's tables/figures.

* :mod:`repro.analysis.stats` — Table 1 (mean/σ of transmitted / lost
  before / lost after, per car), the paper's published Table 1, and the
  per-flow selection the figures consume;
* :mod:`repro.analysis.reception_prob` — per-packet-number reception
  probability curves (Figures 3–5);
* :mod:`repro.analysis.joint` — after-cooperation vs joint curves
  (Figures 6–8) and the near-optimality gap;
* :mod:`repro.analysis.regions` — Region I/II/III boundaries;
* :mod:`repro.analysis.report` — ASCII tables / series and CSV output.
"""

from repro.analysis.stats import (
    PAPER_TABLE1,
    Table1Row,
    compute_table1,
    flow_matrices,
)
from repro.analysis.reception_prob import ProbabilityCurve, reception_curves
from repro.analysis.joint import CoopCurves, coop_curves, optimality_gap
from repro.analysis.regions import Regions, estimate_regions
from repro.analysis.report import (
    format_series,
    format_table,
    render_table1,
    write_csv,
)
from repro.analysis.ascii_plot import ascii_plot

__all__ = [
    "CoopCurves",
    "PAPER_TABLE1",
    "ascii_plot",
    "ProbabilityCurve",
    "Regions",
    "Table1Row",
    "compute_table1",
    "coop_curves",
    "estimate_regions",
    "flow_matrices",
    "format_series",
    "format_table",
    "optimality_gap",
    "reception_curves",
    "render_table1",
    "write_csv",
]
