"""Result rows and their folds: the data contract between layers.

Scenario plugins reduce a finished round to a plain JSON *row*; the
campaign store persists rows; the report layer folds a grid point's rows
back into one summary object.  This module owns all three shapes:

* the reception-matrix codec (``encode_matrix`` / ``decode_matrix``,
  and ``decode_matrix_rows`` for a list of rows) — the common payload
  of coverage-style scenarios;
* :class:`SweepPoint` and :func:`aggregate_matrices` — the sweep-table
  fold (re-exported by :mod:`repro.campaign.report`);
* :class:`DownloadSummary` and :func:`summarize_downloads` — the
  multi-AP file-download fold.

Living here (below the campaign layer) lets plugins declare their
``summarize`` callables without importing campaign modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CampaignError
from repro.mac.frames import NodeId
from repro.trace.matrix import ReceptionMatrix


def encode_matrix(matrix: ReceptionMatrix) -> dict:
    """JSON shape of a reception matrix."""
    return {
        "flow": int(matrix.flow),
        "window": list(matrix.window),
        "direct": {
            str(int(car)): sorted(seqs) for car, seqs in matrix.direct.items()
        },
        "after_coop": sorted(matrix.after_coop),
    }


def decode_matrix(data: dict) -> ReceptionMatrix:
    """Rebuild a reception matrix from its JSON shape."""
    return ReceptionMatrix(
        flow=NodeId(data["flow"]),
        window=(data["window"][0], data["window"][1]),
        direct={
            NodeId(int(car)): frozenset(seqs)
            for car, seqs in data["direct"].items()
        },
        after_coop=frozenset(data["after_coop"]),
    )


def decode_matrix_rows(rows: list[dict]) -> list[dict[NodeId, ReceptionMatrix]]:
    """Stored rows → per-round ``{flow: matrix}`` dicts, row order."""
    rounds = []
    for row in rows:
        matrices = [decode_matrix(m) for m in row.get("matrices", [])]
        rounds.append({matrix.flow: matrix for matrix in matrices})
    return rounds


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: loss fractions aggregated over cars and rounds."""

    parameter: float | str
    tx_by_ap_mean: float
    lost_before_fraction: float
    lost_after_fraction: float

    @property
    def reduction_fraction(self) -> float:
        """Relative loss reduction achieved by cooperation."""
        if self.lost_before_fraction == 0.0:
            return 0.0
        return 1.0 - self.lost_after_fraction / self.lost_before_fraction


def aggregate_matrices(
    matrices_by_round: list[dict[NodeId, ReceptionMatrix]], parameter
) -> SweepPoint:
    """Fold per-round reception matrices into one :class:`SweepPoint`."""
    tx = before = after = 0
    n = 0
    for round_matrices in matrices_by_round:
        for matrix in round_matrices.values():
            tx += matrix.tx_by_ap
            before += matrix.lost_before_coop
            after += matrix.lost_after_coop
            n += 1
    if n == 0 or tx == 0:
        raise CampaignError(
            f"sweep point {parameter!r} produced no reception data"
        )
    return SweepPoint(
        parameter=parameter,
        tx_by_ap_mean=tx / n,
        lost_before_fraction=before / tx,
        lost_after_fraction=after / tx,
    )


def summarize_matrices(rows: list[dict], parameter) -> SweepPoint:
    """The plugin ``summarize`` fold for matrix-row scenarios."""
    return aggregate_matrices(decode_matrix_rows(rows), parameter)


#: CLI report table shared by every sweep-style scenario.
SWEEP_REPORT_HEADER = (
    f"{'parameter':>12} {'pkts':>7} {'before':>8} {'after':>7} {'gain':>6}"
)


def sweep_report_line(point: SweepPoint) -> str:
    """One CLI report row for a :class:`SweepPoint`."""
    return (
        f"{point.parameter!s:>12} {point.tx_by_ap_mean:>7.0f} "
        f"{100 * point.lost_before_fraction:>7.1f}% "
        f"{100 * point.lost_after_fraction:>6.1f}% "
        f"{100 * point.reduction_fraction:>5.0f}%"
    )


@dataclass(frozen=True)
class DownloadSummary:
    """Aggregated multi-AP file-download outcome for one grid point."""

    parameter: float | str
    aps_visited_coop_mean: float
    aps_visited_direct_mean: float
    completed_pairs: int

    @property
    def visit_reduction_fraction(self) -> float:
        """Relative reduction in AP visits achieved by cooperation."""
        if self.aps_visited_direct_mean == 0.0:
            return 0.0
        return 1.0 - self.aps_visited_coop_mean / self.aps_visited_direct_mean


def summarize_downloads(rows: list[dict], parameter) -> DownloadSummary:
    """Fold download-outcome rows into one :class:`DownloadSummary`.

    Cars that never completed the file under *direct* reception are
    excluded (both columns), keeping the comparison paired — the rule
    ``repro multi-ap`` reports by.
    """
    coop = direct = 0.0
    pairs = 0
    for row in rows:
        for outcome in row.get("outcomes", []):
            if outcome["aps_visited_direct"] is None:
                continue
            coop_visits = outcome["aps_visited_coop"]
            if coop_visits is None:
                continue
            coop += coop_visits
            direct += outcome["aps_visited_direct"]
            pairs += 1
    if pairs == 0:
        raise CampaignError(
            f"download point {parameter!r}: no car completed the file"
        )
    return DownloadSummary(
        parameter=parameter,
        aps_visited_coop_mean=coop / pairs,
        aps_visited_direct_mean=direct / pairs,
        completed_pairs=pairs,
    )


#: CLI report table for the download study.
DOWNLOAD_REPORT_HEADER = (
    f"{'parameter':>12} {'APs coop':>9} {'APs direct':>11} {'saved':>6}"
)


def download_report_line(summary: DownloadSummary) -> str:
    """One CLI report row for a :class:`DownloadSummary`."""
    return (
        f"{summary.parameter!s:>12} {summary.aps_visited_coop_mean:>9.1f} "
        f"{summary.aps_visited_direct_mean:>11.1f} "
        f"{100 * summary.visit_reduction_fraction:>5.0f}%"
    )
