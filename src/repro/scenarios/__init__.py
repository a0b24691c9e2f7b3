"""Scenario plugins: one registry, one wiring path, every scenario.

This package owns everything between "a configuration dataclass" and "a
JSON result row": the plugin registry the campaign engine and CLI
dispatch through, the shared wiring pieces scenarios compose from, and
the built-in scenario set.

* :mod:`repro.scenarios.registry` — :class:`ScenarioPlugin` and the
  registry (``register`` / ``get_scenario`` / ``scenario_names``);
* :mod:`repro.scenarios.configs` — config dataclass ↔ JSON codec and
  dotted-path overrides (the declarative campaign substrate);
* :mod:`repro.scenarios.modes` — the protocol-mode factory making
  ``carq`` / ``nocoop`` / ``arq`` / ``epidemic`` a sweepable config
  field instead of separate builders;
* :mod:`repro.scenarios.channels` — propagation-stack presets (urban
  canyon, open highway, infostation corridor);
* :mod:`repro.scenarios.common` — per-round seeding, flow layout,
  vehicle-population spawning, matrix collection;
* :mod:`repro.scenarios.summaries` — result-row codecs and the folds
  back into :class:`SweepPoint` / :class:`DownloadSummary`;
* :mod:`repro.scenarios.urban` / :mod:`~repro.scenarios.highway` /
  :mod:`~repro.scenarios.multi_ap` /
  :mod:`~repro.scenarios.bidirectional` /
  :mod:`~repro.scenarios.trace` — the built-in scenarios.

Importing this package registers the built-in set.  A plugin's
:meth:`ScenarioPlugin.run_round` runs one round to its result row; the
campaign engine (:mod:`repro.campaign`) calls it once per task.
"""

from repro.scenarios.common import AP_NODE_ID, round_seed
from repro.scenarios.configs import (
    apply_override,
    config_from_dict,
    config_to_dict,
)
from repro.scenarios.modes import (
    BASELINE_MODES,
    PROTOCOL_MODES,
    build_vehicle,
    reception_state,
    validate_mode,
)
from repro.scenarios.registry import (
    ScenarioPlugin,
    ScenarioPreset,
    all_scenarios,
    get_scenario,
    has_scenario,
    register,
    scenario_names,
    scenario_table_markdown,
)
from repro.scenarios.summaries import (
    DownloadSummary,
    SweepPoint,
    aggregate_matrices,
    decode_matrix,
    decode_matrix_rows,
    encode_matrix,
)

# Built-in plugins register themselves at import time.
from repro.scenarios import urban as _urban  # noqa: E402  isort: skip
from repro.scenarios import highway as _highway  # noqa: E402  isort: skip
from repro.scenarios import multi_ap as _multi_ap  # noqa: E402  isort: skip
from repro.scenarios import bidirectional as _bidirectional  # noqa: E402  isort: skip
from repro.scenarios import trace as _trace  # noqa: E402  isort: skip

__all__ = [
    "AP_NODE_ID",
    "BASELINE_MODES",
    "DownloadSummary",
    "PROTOCOL_MODES",
    "ScenarioPlugin",
    "ScenarioPreset",
    "SweepPoint",
    "aggregate_matrices",
    "all_scenarios",
    "apply_override",
    "build_vehicle",
    "config_from_dict",
    "config_to_dict",
    "decode_matrix",
    "decode_matrix_rows",
    "encode_matrix",
    "get_scenario",
    "has_scenario",
    "reception_state",
    "register",
    "round_seed",
    "scenario_names",
    "scenario_table_markdown",
    "validate_mode",
]
