"""Aggregation of stored campaign rows into the paper's result shapes.

This is the read side of the engine: it never simulates, only folds the
JSON rows a campaign stored back into the objects the existing analysis
stack consumes.  *How* a grid point's rows fold is the scenario plugin's
``summarize`` callable — this module only walks the grid, fetches rows,
and dispatches, so it contains no per-scenario knowledge at all.

:class:`SweepPoint` and :class:`DownloadSummary` live in
:mod:`repro.scenarios.summaries` (plugins declare their folds there,
below the campaign layer, next to the matrix codec this module decodes
rows with); they are re-exported here.
"""

from __future__ import annotations

from repro.campaign.spec import CampaignSpec, TaskSpec
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.mac.frames import NodeId
from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.summaries import (  # noqa: F401  (re-exported API)
    DownloadSummary,
    SweepPoint,
    aggregate_matrices,
    decode_matrix_rows,
)
from repro.trace.matrix import ReceptionMatrix


def _point_tasks(spec: CampaignSpec) -> list[tuple[tuple, list[TaskSpec]]]:
    """Tasks grouped by grid point, grid order, rounds ascending."""
    groups: dict[tuple, list[TaskSpec]] = {
        labels: [] for labels, _ in spec.points()
    }
    for task in spec.expand():
        groups[task.labels].append(task)
    return list(groups.items())


def _fetch_row(store: ResultStore, task: TaskSpec) -> dict:
    task_id = task.task_id()
    if not store.has(task_id):
        raise CampaignError(
            f"campaign {task.campaign!r} is incomplete: no stored row for "
            f"point {task.labels!r} round {task.round_index} — "
            "resume the run to fill the store"
        )
    return store.get(task_id)


def _parameter(labels: tuple):
    return labels[0] if len(labels) == 1 else labels


def matrices_by_round(
    store: ResultStore, spec: CampaignSpec, labels: tuple | None = None
) -> list[dict[NodeId, ReceptionMatrix]]:
    """Stored matrices of one grid point, in round order.

    The return shape is exactly what
    :func:`repro.analysis.stats.compute_table1` and the figure curves
    consume, so a campaign store can regenerate every paper artifact.
    ``labels`` may be omitted for a gridless (single-point) campaign.
    """
    points = spec.points()
    if labels is None:
        if len(points) != 1:
            raise CampaignError(
                "campaign has several grid points; pass the labels of one"
            )
        labels = points[0][0]
    for point_labels, tasks in _point_tasks(spec):
        if point_labels == tuple(labels):
            return decode_matrix_rows([_fetch_row(store, task) for task in tasks])
    raise CampaignError(f"grid point {labels!r} is not part of the campaign")


def point_summaries(store: ResultStore, spec: CampaignSpec) -> list:
    """One plugin summary per grid point, grid order.

    The summary type is the scenario plugin's ``summary_cls``
    (:class:`SweepPoint` for coverage sweeps, :class:`DownloadSummary`
    for the download study, anything a third-party plugin declares).
    """
    plugin = get_scenario(spec.scenario)
    summaries = []
    for labels, tasks in _point_tasks(spec):
        rows = [_fetch_row(store, task) for task in tasks]
        summaries.append(plugin.summarize(rows, _parameter(labels)))
    return summaries


def _scenarios_summarizing(summary_cls: type) -> str:
    """Registered scenario names whose plugins fold into *summary_cls*."""
    names = [
        name
        for name in scenario_names()
        if get_scenario(name).summary_cls is summary_cls
    ]
    return ", ".join(names) or "none registered"


def sweep_points(store: ResultStore, spec: CampaignSpec) -> list[SweepPoint]:
    """One :class:`SweepPoint` per grid point, grid order.

    Bit-identical to folding the rows of a direct ``run_round`` loop:
    the fold sums the same integer counters over the same rounds, only
    sourced from the store.
    Campaigns whose scenario folds into something else are refused.
    """
    plugin = get_scenario(spec.scenario)
    if plugin.summary_cls is not SweepPoint:
        raise CampaignError(
            f"{spec.scenario!r} campaigns aggregate into "
            f"{plugin.summary_cls.__name__}, not sweep points; "
            "use download_summaries / point_summaries"
        )
    return point_summaries(store, spec)


def download_summaries(
    store: ResultStore, spec: CampaignSpec
) -> list[DownloadSummary]:
    """Per-grid-point download summaries of a download-style campaign.

    Cars that never completed the file under *direct* reception are
    excluded (both columns), keeping the comparison paired — the rule
    ``repro multi-ap`` reports by.
    """
    plugin = get_scenario(spec.scenario)
    if plugin.summary_cls is not DownloadSummary:
        raise CampaignError(
            f"download_summaries requires a download-style campaign "
            f"({_scenarios_summarizing(DownloadSummary)}), "
            f"got scenario {spec.scenario!r}"
        )
    return point_summaries(store, spec)


def render_metrics_report(metrics, *, top: int = 12) -> str:
    """The ``campaign report --metrics`` section: telemetry folded across
    all executed tasks of a campaign's :class:`MetricsLog` sidecar.

    Merges every per-task snapshot (type-driven, exact — see
    :func:`repro.obs.registry.merge_snapshots`), then renders the same
    breakdown ``repro stats`` prints for a single round, prefixed with
    per-task wall-clock statistics and the slowest task.
    """
    from repro.obs import merge_snapshots
    from repro.obs.export import render_stats_report

    records = metrics.task_records()
    if not records:
        return "no per-task metrics recorded (run with --metrics)"
    elapsed = [record["elapsed_s"] for record in records]
    total_s = sum(elapsed)
    slowest = max(records, key=lambda record: record["elapsed_s"])
    lines = [
        f"telemetry over {len(records)} executed task(s): "
        f"{total_s:.2f} s total, {total_s / len(records):.2f} s/task mean, "
        f"slowest {slowest['elapsed_s']:.2f} s (task {slowest['task_id'][:12]})",
    ]
    merged = merge_snapshots([record["metrics"] for record in records])
    lines.append(render_stats_report(merged, elapsed_s=total_s, top=top))
    return "\n".join(lines)
