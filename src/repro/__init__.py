"""Reproduction of *A Cooperative ARQ for Delay-Tolerant Vehicular
Networks* (Morillo-Pozo, Trullols, Barceló, García-Vidal — ICDCS
Workshops 2008).

Quick start::

    from repro import PAPER_TABLE1, UrbanScenarioConfig
    from repro.analysis import compute_table1, render_table1
    from repro.scenarios import decode_matrix_rows, get_scenario

    config = UrbanScenarioConfig(rounds=5)  # the paper's testbed, seed 2008
    urban = get_scenario("urban")
    rows = [urban.run_round(config, i) for i in range(config.rounds)]
    table = compute_table1(decode_matrix_rows(rows))
    print(render_table1(table, paper_reference=PAPER_TABLE1))

Package map
-----------
``repro.core``
    The paper's contribution: the Cooperative-ARQ vehicle protocol and
    its extensions (batched requests, cooperator selection, AP
    retransmission policies).
``repro.sim`` / ``repro.geom`` / ``repro.mobility`` / ``repro.radio`` /
``repro.mac`` / ``repro.net``
    The substrates: discrete-event kernel, geometry, IDM platoon
    mobility, statistical 802.11 PHY, CSMA medium, nodes/applications.
``repro.baselines``
    No-cooperation, in-coverage ARQ, and epidemic-exchange comparisons.
``repro.trace`` / ``repro.analysis``
    Capture and the post-processing that regenerates Table 1 and
    Figures 3–8, next to the paper's published Table 1.
``repro.scenarios``
    The scenario plugin registry: every runnable scenario (urban,
    highway, multi-AP, bidirectional, …) as one registration bundling
    config, wiring, row collection and aggregation, with the protocol
    (C-ARQ or any baseline) a sweepable ``mode`` field.  A plugin's
    ``run_round`` runs one round to its result row.
``repro.campaign``
    Campaign engine: declarative specs expanded into content-addressed
    tasks, executed in parallel against a resumable JSONL result store
    (the ``repro campaign`` CLI and the paper commands run through it);
    all scenario dispatch goes through ``repro.scenarios``.
"""

from repro.analysis import PAPER_TABLE1
from repro.core import CarqConfig, CarqProtocol, VehicleNode
from repro.scenarios.urban import UrbanScenarioConfig
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "CarqConfig",
    "CarqProtocol",
    "PAPER_TABLE1",
    "Simulator",
    "UrbanScenarioConfig",
    "VehicleNode",
    "__version__",
]
