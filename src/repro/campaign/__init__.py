"""Campaign engine: declarative, parallel, resumable experiment execution.

The paper's every result is a pile of independent simulation rounds; this
package turns "run one experiment" into "execute a campaign of many":

* :mod:`repro.campaign.spec` — JSON-serialisable :class:`CampaignSpec`
  (scenario kind + base config + parameter grid + rounds) expanded into
  content-addressed :class:`TaskSpec` units;
* :mod:`repro.campaign.seeding` — deterministic seed derivation, so
  serial, parallel, and resumed runs are bit-identical;
* :mod:`repro.campaign.executor` — supervised multiprocessing fan-out
  (worker respawn, retries, timeouts, graceful SIGINT checkpointing)
  with a serial fallback and store-backed caching;
* :mod:`repro.campaign.resilience` — retry/backoff/timeout policy and
  the failure taxonomy;
* :mod:`repro.campaign.chaos` — deterministic fault injection for
  exercising the recovery paths in tests and CI;
* :mod:`repro.campaign.store` — append-only JSONL result store keyed by
  task content hash (resume-after-interrupt) plus an in-memory variant
  and the metrics / failure sidecar logs;
* :mod:`repro.campaign.verify` — store/sidecar integrity checking for
  CI gates (``repro campaign verify``);
* :mod:`repro.campaign.report` — folds stored rows back into the
  existing :class:`SweepPoint` / Table-1 shapes;
* :mod:`repro.campaign.progress` — tick/rate/ETA reporting.

The ``repro campaign`` CLI and the paper commands (``table1``,
``figures``, ``highway``, ``multi-ap``) all run their rounds on this
engine.
"""

from repro.campaign.chaos import ChaosSpec
from repro.campaign.executor import CampaignRunStats, execute_task, run_campaign
from repro.campaign.progress import ProgressReporter
from repro.campaign.resilience import (
    FailureKind,
    RetryPolicy,
    TaskFailure,
    classify_exception,
)
from repro.campaign.report import (
    DownloadSummary,
    SweepPoint,
    aggregate_matrices,
    download_summaries,
    matrices_by_round,
    point_summaries,
    sweep_points,
)
from repro.campaign.seeding import derive_seed, point_seed
from repro.campaign.spec import (
    CampaignSpec,
    GridAxis,
    GridPoint,
    TaskSpec,
    axis,
    config_from_dict,
    config_to_dict,
)
from repro.campaign.store import (
    FailureLog,
    JsonlStore,
    MemoryStore,
    MetricsLog,
    ResultStore,
)

__all__ = [
    "CampaignRunStats",
    "CampaignSpec",
    "ChaosSpec",
    "DownloadSummary",
    "FailureKind",
    "FailureLog",
    "GridAxis",
    "GridPoint",
    "JsonlStore",
    "MemoryStore",
    "MetricsLog",
    "ProgressReporter",
    "ResultStore",
    "RetryPolicy",
    "SweepPoint",
    "TaskFailure",
    "TaskSpec",
    "classify_exception",
    "aggregate_matrices",
    "axis",
    "config_from_dict",
    "config_to_dict",
    "derive_seed",
    "download_summaries",
    "execute_task",
    "matrices_by_round",
    "point_seed",
    "point_summaries",
    "run_campaign",
    "sweep_points",
]
