"""Scenario configuration dataclass ↔ JSON codec and dotted overrides.

Every scenario plugin's configuration is a (possibly nested) frozen
dataclass; campaigns ship them around as plain JSON dicts.  The codec
here is what makes that declarative layer work: ``config_to_dict`` /
``config_from_dict`` round-trip a config through its JSON shape, and
``apply_override`` rebuilds a frozen config with one dotted-path field
replaced — the mechanism behind campaign grid axes and ``--set``.

This module sits below both the scenario plugins and the campaign layer
(:mod:`repro.campaign.spec` re-exports it), so plugins can build preset
spec dicts without importing campaign code.  The plugins' configs check
their speeds, lengths and durations with :func:`require_positive`.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace

from repro.errors import CampaignError, ConfigurationError

#: Dataclass fields that hold nested configuration dataclasses, by class.
#: Kept as an explicit registry (rather than typing introspection) because
#: ``CarqConfig.selection`` is a TYPE_CHECKING-only forward reference that
#: ``typing.get_type_hints`` cannot resolve at runtime.
_NESTED_FIELDS: dict[type, dict[str, type]] = {}


def _nested_fields(cls: type) -> dict[str, type]:
    """Field name → nested dataclass type, discovered from defaults."""
    cached = _NESTED_FIELDS.get(cls)
    if cached is not None:
        return cached
    nested = {}
    probe = cls()  # every scenario config is constructible from defaults
    for f in fields(cls):
        value = getattr(probe, f.name)
        if is_dataclass(value):
            nested[f.name] = type(value)
    _NESTED_FIELDS[cls] = nested
    return nested


def config_to_dict(cfg) -> dict:
    """JSON shape of a scenario configuration dataclass.

    Raises :class:`CampaignError` when a field cannot be represented in
    JSON (e.g. a custom ``CarqConfig.selection`` strategy object): such
    configs cannot ride a declarative campaign.
    """
    out: dict = {}
    for f in fields(type(cfg)):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            out[f.name] = config_to_dict(value)
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        elif value is None or isinstance(value, (bool, int, float, str)):
            out[f.name] = value
        else:
            raise CampaignError(
                f"config field {type(cfg).__name__}.{f.name} holds "
                f"{value!r}, which is not JSON-serialisable"
            )
    return out


def config_from_dict(cls: type, data: dict):
    """Rebuild a configuration dataclass from its JSON shape.

    Missing fields take the dataclass defaults (spec base dicts may be
    partial); unknown keys are rejected so a typo in a hand-written spec
    file fails loudly instead of silently running the default value.
    """
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise CampaignError(
            f"unknown config field(s) for {cls.__name__}: "
            f"{', '.join(sorted(unknown))}"
        )
    nested = _nested_fields(cls)
    defaults = cls()
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.name in nested:
            value = config_from_dict(nested[f.name], value)
        elif isinstance(getattr(defaults, f.name), tuple):
            value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def apply_override(cfg, path: str, value):
    """Return *cfg* with the dotted-``path`` field replaced by *value*.

    ``"platoon.n_cars"`` rebuilds the nested frozen dataclass chain;
    list values targeting tuple-typed fields are converted.  The value
    must have the type of the field's current value (an int passes for
    a float; a field that holds ``None`` takes any value), so a
    mistyped ``--set`` fails here, naming the value, instead of deep
    inside a round.
    """
    head, _, rest = path.partition(".")
    try:
        current = getattr(cfg, head)
    except AttributeError:
        raise CampaignError(
            f"override path {path!r} does not exist on {type(cfg).__name__}"
        ) from None
    if rest:
        if not is_dataclass(current):
            raise CampaignError(f"override path {path!r} descends into a leaf field")
        return replace(cfg, **{head: apply_override(current, rest, value)})
    if isinstance(current, tuple) and isinstance(value, list):
        value = tuple(value)
    if not _fits(current, value):
        raise CampaignError(
            f"override {head}={value!r} does not fit {type(cfg).__name__}."
            f"{head}, which holds a {type(current).__name__}"
        )
    return replace(cfg, **{head: value})


def _fits(current, value) -> bool:
    """Whether *value* may replace *current* (see :func:`apply_override`)."""
    if current is None:
        return True
    if isinstance(current, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(current, int) and not isinstance(current, bool):
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, type(current))


def require_positive(what: str, **values: float) -> None:
    """Raise :class:`ConfigurationError` unless every value is finite and > 0.

    The message names *what* and the first offending field with its
    value.  ``value <= 0.0`` would let NaN through, and a NaN or infinite
    speed, length or duration gives a round that ends at NaN (the
    simulator refuses to run until then) or never.
    """
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"{what} must be positive and finite: {name}={value!r}"
            )
