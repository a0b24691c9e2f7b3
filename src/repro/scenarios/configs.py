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
their values with :func:`repro.errors.require_positive` and
:func:`repro.errors.require_finite`.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

from repro.errors import CampaignError

#: Dataclass fields that hold nested configuration dataclasses, by class.
#: Kept as an explicit registry (rather than typing introspection) because
#: ``CarqConfig.selection`` is a TYPE_CHECKING-only forward reference that
#: ``typing.get_type_hints`` cannot resolve at runtime.
_NESTED_FIELDS: dict[type, dict[str, type]] = {}

#: The type a field whose default is ``None`` takes besides ``None``, by
#: its declared annotation (a string: configs use postponed
#: annotations).  A field declared any other way, such as
#: ``CarqConfig.selection``, holds an object no JSON value can be, so it
#: takes only ``None``.
_OPTIONAL_TYPES: dict[str, type] = {
    "int | None": int,
    "float | None": float,
    "str | None": str,
}


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
    Each value must fit its field by :func:`apply_override`'s rule (a
    nested config takes a dict), so a mistyped one fails here, naming
    the field and the value, instead of in every task that builds it.
    """
    if not isinstance(data, dict):
        raise CampaignError(
            f"config {data!r} does not fit {cls.__name__}, which takes a dict"
        )
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
        else:
            value = _fitting(cls, f.name, getattr(defaults, f.name), value)
        kwargs[f.name] = value
    return cls(**kwargs)


def apply_override(cfg, path: str, value):
    """Return *cfg* with the dotted-``path`` field replaced by *value*.

    ``"platoon.n_cars"`` rebuilds the nested frozen dataclass chain;
    list values targeting tuple-typed fields are converted.  The value
    must have the field's type (an int passes for a float; see
    :func:`_fitting`), so a mistyped ``--set`` fails here, naming the
    value, instead of deep inside a round.
    """
    return _override(cfg, path, path, value)


def _override(cfg, path: str, below: str, value):
    """:func:`apply_override` of the dotted *below* under *cfg*, where
    *below* is the tail of *path*; errors name the whole *path*."""
    head, _, rest = below.partition(".")
    try:
        current = getattr(cfg, head)
    except AttributeError:
        raise CampaignError(
            f"override path {path!r} does not exist: "
            f"{type(cfg).__name__} has no field {head!r}"
        ) from None
    if rest:
        if not is_dataclass(current):
            raise CampaignError(f"override path {path!r} descends into a leaf field")
        return replace(cfg, **{head: _override(current, path, rest, value)})
    return replace(cfg, **{head: _fitting(type(cfg), head, current, value)})


def _fitting(cls: type, name: str, current, value):
    """*value* for the field *name* of *cls*, which holds *current*.

    A list for a tuple field becomes a tuple.  Then the value must have
    the field's type, or :class:`CampaignError` names it.  That type is
    the one of *current*, except for a field whose default is ``None``:
    it takes ``None`` or a value of the type its annotation declares
    (see :data:`_OPTIONAL_TYPES`).  An int passes for a float; a bool
    passes for neither.
    """
    if isinstance(current, tuple) and isinstance(value, list):
        value = tuple(value)
    declared = next(f for f in fields(cls) if f.name == name)
    if declared.default is None:
        if value is None:
            return value
        kind = _OPTIONAL_TYPES.get(declared.type)
        takes = declared.type if kind is not None else "only None"
    else:
        kind = type(current)
        takes = f"a {kind.__name__}"
    if kind is None:
        fits = False
    elif kind is float:
        fits = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        fits = isinstance(value, int) and not isinstance(value, bool)
    else:
        fits = isinstance(value, kind)
    if not fits:
        raise CampaignError(
            f"{name}={value!r} does not fit {cls.__name__}.{name}, "
            f"which takes {takes}"
        )
    return value
