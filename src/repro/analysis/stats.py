"""Table 1: per-car loss statistics over the experiment rounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.mac.frames import NodeId
from repro.trace.matrix import ReceptionMatrix

#: Paper Table 1 — (lost-before %, lost-after %) per car, 30 rounds.
PAPER_TABLE1: dict[NodeId, tuple[float, float]] = {
    NodeId(1): (23.4, 10.5),
    NodeId(2): (26.9, 17.3),
    NodeId(3): (28.6, 15.7),
}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class Table1Row:
    """One car's row of the paper's Table 1.

    All counts are per-round means with sample standard deviations; the
    percentage columns are the means of the per-round percentages,
    mirroring the paper's presentation.
    """

    car: NodeId
    rounds: int
    tx_by_ap_mean: float
    tx_by_ap_std: float
    lost_before_mean: float
    lost_before_std: float
    lost_before_pct: float
    lost_after_mean: float
    lost_after_std: float
    lost_after_pct: float

    @property
    def loss_reduction_pct(self) -> float:
        """Relative reduction of lost packets thanks to cooperation."""
        if self.lost_before_mean == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.lost_after_mean / self.lost_before_mean)


def compute_table1(
    matrices_by_round: list[dict[NodeId, ReceptionMatrix]],
) -> dict[NodeId, Table1Row]:
    """Aggregate per-round reception matrices into Table 1 rows.

    Parameters
    ----------
    matrices_by_round:
        One dict per round, mapping each car to its flow's matrix.  Rounds
        in which a car never associated are skipped for that car.

    Raises
    ------
    AnalysisError
        If no round contains any data.
    """
    per_car: dict[NodeId, list[ReceptionMatrix]] = {}
    for round_matrices in matrices_by_round:
        for car, matrix in round_matrices.items():
            per_car.setdefault(car, []).append(matrix)
    if not per_car:
        raise AnalysisError("no reception data in any round")

    rows: dict[NodeId, Table1Row] = {}
    for car, matrices in sorted(per_car.items()):
        tx = [float(m.tx_by_ap) for m in matrices]
        before = [float(m.lost_before_coop) for m in matrices]
        after = [float(m.lost_after_coop) for m in matrices]
        before_pct = [100.0 * b / t for b, t in zip(before, tx)]
        after_pct = [100.0 * a / t for a, t in zip(after, tx)]
        rows[car] = Table1Row(
            car=car,
            rounds=len(matrices),
            tx_by_ap_mean=_mean(tx),
            tx_by_ap_std=_std(tx),
            lost_before_mean=_mean(before),
            lost_before_std=_std(before),
            lost_before_pct=_mean(before_pct),
            lost_after_mean=_mean(after),
            lost_after_std=_std(after),
            lost_after_pct=_mean(after_pct),
        )
    return rows


def flow_matrices(
    matrices_by_round: list[dict[NodeId, ReceptionMatrix]], car: NodeId
) -> list[ReceptionMatrix]:
    """All rounds' matrices of one car's flow (rounds missing it skipped).

    This is the input of the per-flow figure curves (Figures 3–8).

    Raises
    ------
    AnalysisError
        If the car never associated in any round.
    """
    matrices = [
        round_matrices[car]
        for round_matrices in matrices_by_round
        if car in round_matrices
    ]
    if not matrices:
        raise AnalysisError(f"car {car} never associated in any round")
    return matrices
