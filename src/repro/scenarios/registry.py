"""The scenario plugin registry: one wiring path for every scenario.

A :class:`ScenarioPlugin` bundles everything the rest of the system needs
to run and report a scenario kind — its configuration dataclass, the
per-round builder, the row collector that reduces a finished round to a
JSON-storable dict, and the aggregator that folds stored rows back into
summary objects.  The campaign layer (spec validation, task execution,
report folds) and the CLI dispatch exclusively through this registry, so
adding a scenario is one :func:`register` call: no executor tables, no
report special cases, no CLI edits.

Plugins register themselves at import time from their defining modules;
importing :mod:`repro.scenarios` loads the built-in set (urban, highway,
multi_ap, bidirectional, trace).  Third-party plugins must live in an importable
module and register at its import: campaign workers on platforms without
``fork`` (the executor's ``spawn`` fallback) re-import rather than
inherit the parent's registry, so a plugin registered only by a script's
``__main__`` body would be missing there.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.errors import ScenarioError

if typing.TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Callable, Mapping


@dataclass(frozen=True)
class ScenarioPreset:
    """A named, zero-argument campaign recipe a plugin ships with.

    ``build`` returns a plain :class:`~repro.campaign.spec.CampaignSpec`
    JSON dict (never a ``CampaignSpec`` instance — plugins sit below the
    campaign layer and must not import it).  The CLI materialises the
    dict via ``CampaignSpec.from_dict``.
    """

    name: str
    description: str
    build: "Callable[[], dict]"


@dataclass(frozen=True)
class ScenarioPlugin:
    """Everything defining one runnable scenario kind.

    Attributes
    ----------
    name:
        Registry key; also the ``scenario`` field of campaign specs.
    description:
        One line for ``repro scenarios`` and the README scenario table.
    config_cls:
        The scenario's configuration dataclass.  Must be constructible
        from defaults and round-trip through
        :func:`repro.scenarios.configs.config_to_dict`.
    build_round:
        ``(config, round_index) -> context``; the context exposes
        ``run()`` executing the round to completion.
    collect_row:
        ``(finished context) -> dict``; the JSON row a campaign stores.
    summarize:
        ``(rows, parameter) -> summary_cls`` — folds one grid point's
        rows (all rounds) into one summary object.
    summary_cls:
        The type :attr:`summarize` returns (e.g. ``SweepPoint``), used by
        typed report entry points to refuse mismatched campaigns.
    report_header / report_line:
        The CLI report table: a header string and a ``summary -> str``
        formatter.
    modes:
        Protocol modes the scenario's config accepts in its ``mode``
        field (``("carq",)`` when the scenario is cooperative-only).
    presets:
        Campaign recipes the CLI offers under ``--preset``.
    """

    name: str
    description: str
    config_cls: type
    build_round: "Callable[[typing.Any, int], typing.Any]"
    collect_row: "Callable[[typing.Any], dict]"
    summarize: "Callable[[list[dict], typing.Any], typing.Any]"
    summary_cls: type
    report_header: str
    report_line: "Callable[[typing.Any], str]"
    modes: tuple[str, ...] = ("carq",)
    presets: tuple[ScenarioPreset, ...] = ()

    def run_round(self, config, round_index: int) -> dict:
        """Build, execute, and reduce one round to its result row.

        When a span tracer is installed (see :mod:`repro.obs`) the whole
        round — build, run, collect — is wrapped in a ``round`` span, the
        root of the round → slot → broadcast → batch-kernel hierarchy.
        """
        from repro import obs

        tracer = obs.tracer()
        if tracer is None:
            ctx = self.build_round(config, round_index)
            ctx.run()
            return self.collect_row(ctx)
        with tracer.span(
            "round", cat="campaign", scenario=self.name, round=round_index
        ):
            ctx = self.build_round(config, round_index)
            ctx.run()
            return self.collect_row(ctx)

    def default_config(self):
        """The scenario configuration with every field at its default."""
        return self.config_cls()


_PLUGINS: dict[str, ScenarioPlugin] = {}


def register(plugin: ScenarioPlugin) -> ScenarioPlugin:
    """Add *plugin* to the registry; duplicate names are rejected."""
    if plugin.name in _PLUGINS:
        raise ScenarioError(
            f"scenario {plugin.name!r} is already registered "
            f"(by {_PLUGINS[plugin.name].config_cls.__name__})"
        )
    _PLUGINS[plugin.name] = plugin
    return plugin


def unregister(name: str) -> None:
    """Remove a plugin (test isolation helper)."""
    _PLUGINS.pop(name, None)


def get_scenario(name: str) -> ScenarioPlugin:
    """The plugin registered under *name*.

    Raises
    ------
    ScenarioError
        When nothing is registered under *name*; the message lists the
        known scenario kinds.
    """
    try:
        return _PLUGINS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario kind {name!r}; registered: "
            f"{', '.join(scenario_names())}"
        ) from None


def has_scenario(name: str) -> bool:
    """Whether *name* is a registered scenario kind."""
    return name in _PLUGINS


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_PLUGINS)


def all_scenarios() -> list[ScenarioPlugin]:
    """All registered plugins, name order."""
    return [_PLUGINS[name] for name in scenario_names()]


def scenario_table_markdown() -> str:
    """The README scenario table, generated from plugin metadata.

    One source of truth: ``repro scenarios --markdown`` prints this and
    the README embeds it, so the docs can never drift from the registry.
    """
    lines = [
        "| Scenario | Protocol modes | Presets | What it studies |",
        "| --- | --- | --- | --- |",
    ]
    for plugin in all_scenarios():
        presets = ", ".join(f"`{p.name}`" for p in plugin.presets) or "—"
        modes = ", ".join(f"`{m}`" for m in plugin.modes)
        lines.append(
            f"| `{plugin.name}` | {modes} | {presets} | {plugin.description} |"
        )
    return "\n".join(lines)


def _flatten_config(data: dict, prefix: str = "") -> list[tuple[str, object]]:
    """Nested config dict → sorted ``(dotted path, default)`` pairs."""
    rows: list[tuple[str, object]] = []
    for key, value in sorted(data.items()):
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_config(value, prefix=f"{path}."))
        else:
            rows.append((path, value))
    return rows


def scenario_reference_markdown() -> str:
    """The full scenario reference — the content of ``docs/SCENARIOS.md``.

    Generated entirely from registry metadata (descriptions, modes,
    presets) and each plugin's default configuration (every dotted
    config path with its default — exactly the paths campaign grid
    axes and ``--set`` accept), so the document cannot drift from the
    code: ``repro scenarios --doc`` regenerates it and
    ``tests/test_docs.py`` diffs the committed file against the output.
    """
    import json

    from repro.scenarios.configs import config_to_dict

    lines = [
        "<!-- Generated by `repro scenarios --doc`. Do not edit by hand:",
        "     regenerate with `PYTHONPATH=src python -m repro scenarios --doc "
        "> docs/SCENARIOS.md`",
        "     (tests/test_docs.py diffs this file against the generator). -->",
        "",
        "# Scenario reference",
        "",
        "Every scenario is a plugin in the `repro.scenarios` registry; the",
        "campaign engine and CLI dispatch through it exclusively.  Run any",
        "scenario with `repro campaign run --scenario <name>` (gridless",
        "default configuration) or `--preset <preset>` (a shipped study);",
        "override any config field below with `--set <path>=<value>` or a",
        "campaign grid axis over the same dotted path.  See",
        "[ARCHITECTURE.md](ARCHITECTURE.md) for where scenarios sit in the",
        "stack.",
        "",
    ]
    for plugin in all_scenarios():
        config = plugin.default_config()
        lines.append(f"## `{plugin.name}`")
        lines.append("")
        lines.append(f"{plugin.description}.")
        lines.append("")
        lines.append(
            f"- **Config class:** `{plugin.config_cls.__module__}."
            f"{plugin.config_cls.__name__}`"
        )
        lines.append(
            f"- **Protocol modes:** {', '.join(f'`{m}`' for m in plugin.modes)}"
        )
        lines.append(
            f"- **Summary shape:** `{plugin.summary_cls.__name__}`"
        )
        lines.append("")
        if plugin.presets:
            lines.append("**Presets**")
            lines.append("")
            for preset in plugin.presets:
                lines.append(f"- `{preset.name}` — {preset.description}")
            lines.append("")
        lines.append("**Configuration fields** (dotted `--set` paths)")
        lines.append("")
        lines.append("| Path | Default |")
        lines.append("| --- | --- |")
        for path, default in _flatten_config(config_to_dict(config)):
            lines.append(f"| `{path}` | `{json.dumps(default)}` |")
        lines.append("")
    # No trailing newline: ``print()`` (the CLI) adds exactly one, so
    # ``repro scenarios --doc > docs/SCENARIOS.md`` ends with a single
    # newline and the docs-sync test compares against ``… + "\n"``.
    return "\n".join(lines).rstrip()
