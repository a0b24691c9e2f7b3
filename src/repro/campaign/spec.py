"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a whole study — a scenario kind, a base
configuration, a grid of parameter variations and a round count — as a
plain JSON-serialisable value.  :meth:`CampaignSpec.expand` flattens it
into one :class:`TaskSpec` per (grid point, round): the independent unit
of work the executor fans out over processes.

Every task is content-addressed: :meth:`TaskSpec.task_id` hashes the
canonical JSON of everything that determines the task's result (scenario,
config, overrides, seed, round index).  The result store keys rows by
this hash, which is what makes campaigns cacheable and resumable — the
same task always lands on the same row, no matter when or where it ran.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.errors import CampaignError
from repro.scenarios import get_scenario
from repro.scenarios.configs import (  # noqa: F401  (re-exported API)
    apply_override,
    config_from_dict,
    config_to_dict,
)


@dataclass(frozen=True)
class GridPoint:
    """One value on a grid axis.

    ``label`` is the human-facing parameter value (what ends up in
    ``SweepPoint.parameter``); ``overrides`` maps dotted config paths to
    the values realising it — one label may change several fields (a
    bigger platoon also needs more driver styles).
    """

    label: int | float | str
    overrides: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"label": self.label, "overrides": dict(self.overrides)}

    @staticmethod
    def from_dict(data: dict) -> "GridPoint":
        return GridPoint(label=data["label"], overrides=dict(data.get("overrides", {})))


@dataclass(frozen=True)
class GridAxis:
    """A named sweep dimension; the grid is the product of all axes."""

    name: str
    points: tuple[GridPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise CampaignError(f"axis {self.name!r} has no points")

    def to_dict(self) -> dict:
        return {"name": self.name, "points": [p.to_dict() for p in self.points]}

    @staticmethod
    def from_dict(data: dict) -> "GridAxis":
        return GridAxis(
            name=data["name"],
            points=tuple(GridPoint.from_dict(p) for p in data["points"]),
        )


def axis(name: str, labels, path: str | None = None) -> GridAxis:
    """Convenience: one axis whose labels each override a single field."""
    target = path if path is not None else name
    return GridAxis(
        name=name,
        points=tuple(GridPoint(label=v, overrides={target: v}) for v in labels),
    )


@dataclass(frozen=True)
class TaskSpec:
    """One independent unit of work: one round at one grid point.

    A task carries everything needed to execute it in any process —
    parallel and serial runs are bit-identical because the simulation
    seed depends only on (``seed``, ``round_index``), never on execution
    order (see :mod:`repro.campaign.seeding`).
    """

    campaign: str
    scenario: str
    seed: int
    round_index: int
    labels: tuple
    overrides: dict
    base: dict

    def key(self) -> str:
        """Canonical JSON identifying this task's result."""
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "round": self.round_index,
            "base": self.base,
            "overrides": self.overrides,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def task_id(self) -> str:
        """Content hash of :meth:`key` — the store's row key."""
        return hashlib.sha256(self.key().encode()).hexdigest()

    def config(self):
        """Materialise the scenario configuration this task runs."""
        cls = get_scenario(self.scenario).config_cls
        cfg = config_from_dict(cls, self.base)
        cfg = replace(cfg, seed=self.seed)
        for path, value in sorted(self.overrides.items()):
            cfg = apply_override(cfg, path, value)
        return cfg


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative, JSON-serialisable description of a whole study.

    Attributes
    ----------
    name:
        Campaign identifier (store rows record it; reports print it).
    scenario:
        A registered scenario kind (see
        :func:`repro.scenarios.scenario_names`).
    seed:
        Campaign master seed.  With ``independent_seeds`` off (the
        default) every grid point runs its rounds from this seed; on,
        each grid point derives its own seed from the master and its
        labels.
    rounds:
        Independent repetitions per grid point.
    base:
        JSON shape of the scenario base configuration (see
        :func:`config_to_dict`); grid points override fields of it.
    axes:
        Sweep dimensions; the task grid is their cartesian product.
    """

    name: str
    scenario: str
    seed: int
    rounds: int
    base: dict
    axes: tuple[GridAxis, ...] = ()
    independent_seeds: bool = False

    def __post_init__(self) -> None:
        get_scenario(self.scenario)  # raises CampaignError when unknown
        if self.rounds < 1:
            raise CampaignError("a campaign needs at least one round")

    # -- grid ----------------------------------------------------------------

    def points(self) -> list[tuple[tuple, dict]]:
        """Flat grid: (labels, merged overrides) per point, product order."""
        grid: list[tuple[tuple, dict]] = [((), {})]
        for ax in self.axes:
            grid = [
                (labels + (point.label,), {**overrides, **point.overrides})
                for labels, overrides in grid
                for point in ax.points
            ]
        return grid

    def expand(self) -> list[TaskSpec]:
        """The flat task list: every grid point times every round."""
        from repro.campaign.seeding import point_seed

        tasks = []
        for labels, overrides in self.points():
            seed = (
                point_seed(self.seed, labels) if self.independent_seeds else self.seed
            )
            for round_index in range(self.rounds):
                tasks.append(
                    TaskSpec(
                        campaign=self.name,
                        scenario=self.scenario,
                        seed=seed,
                        round_index=round_index,
                        labels=labels,
                        overrides=overrides,
                        base=self.base,
                    )
                )
        return tasks

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "seed": self.seed,
            "rounds": self.rounds,
            "base": self.base,
            "axes": [ax.to_dict() for ax in self.axes],
            "independent_seeds": self.independent_seeds,
        }

    @staticmethod
    def from_dict(data: dict) -> "CampaignSpec":
        try:
            return CampaignSpec(
                name=data["name"],
                scenario=data["scenario"],
                seed=data["seed"],
                rounds=data["rounds"],
                base=dict(data["base"]),
                axes=tuple(GridAxis.from_dict(ax) for ax in data.get("axes", [])),
                independent_seeds=bool(data.get("independent_seeds", False)),
            )
        except KeyError as exc:
            raise CampaignError(f"campaign spec is missing field {exc}") from None

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"campaign spec is not valid JSON: {exc}") from None
        return CampaignSpec.from_dict(data)

    def save(self, path) -> None:
        from repro.ioutil import atomic_write_text

        # Atomic: an interrupt mid-save must never leave a half-written
        # spec for a later --spec run (or resume) to choke on.
        atomic_write_text(path, self.to_json() + "\n")

    @staticmethod
    def load(path) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_json(handle.read())
