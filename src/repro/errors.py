"""Exception hierarchy for the ``repro`` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.  The
two value checks every configuration dataclass uses,
:func:`require_positive` and :func:`require_finite`, live here too, below
every package that defines one.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: scheduling into the past, running a simulator that has been
    stopped and not reset, or resuming a finished process.
    """


class ConfigurationError(ReproError):
    """A configuration dataclass carries invalid or inconsistent values."""


class GeometryError(ReproError):
    """A geometric primitive was constructed or queried out of domain."""


class MobilityError(ReproError):
    """A mobility model was asked for a state it cannot produce."""


class TraceFormatError(MobilityError):
    """A mobility trace file could not be parsed or validated.

    Examples: malformed SUMO FCD XML, an ns-2 ``setdest`` command for a
    node without an initial position, duplicate timestamps that disagree
    on position, or an unknown length unit.  Subclasses
    :class:`MobilityError` because a broken trace is, to every caller
    above the parser, a mobility substrate that cannot be built.
    """


class RadioError(ReproError):
    """A PHY-layer computation received out-of-domain inputs."""


class MacError(ReproError):
    """The MAC layer was driven through an illegal state transition."""


class ProtocolError(ReproError):
    """The C-ARQ protocol state machine was driven illegally."""


class AnalysisError(ReproError):
    """Post-processing was asked to analyse inconsistent trace data."""


class ObsError(ReproError):
    """The observability layer was used or configured incorrectly.

    Examples: registering one metric name under two types, merging
    histograms with different bucket bounds, closing a span that was
    never opened, or exporting a malformed Chrome trace document.
    """


class CampaignError(ReproError):
    """A campaign spec, store, or execution request is invalid.

    Examples: a spec that cannot be serialised to JSON, a corrupt result
    store, or a report over a store that is missing task rows.
    """


class ChaosError(ReproError):
    """A deterministically *injected* fault from the chaos harness.

    Raised inside a campaign worker when the fault-injection schedule
    (:mod:`repro.campaign.chaos`) selects the ``raise`` kind for a
    ``(task, attempt)`` pair.  The executor classifies it as transient —
    the injection is keyed by attempt number, so a retry draws a fresh
    decision — which is exactly how a recoverable infrastructure error
    should behave.  Kept separate from :class:`CampaignError` so a
    chaos-injected failure can never be mistaken for an invalid spec or
    store.
    """


class ScenarioError(CampaignError):
    """The scenario plugin registry was used incorrectly.

    Examples: looking up a scenario name nobody registered, or
    registering two plugins under the same name.  Subclasses
    :class:`CampaignError` because campaigns dispatch through the
    registry: an unknown scenario in a spec is both a registry miss and
    an invalid campaign, and callers catching campaign failures must see
    it either way.
    """


def require_positive(what: str, **values: float) -> None:
    """Raise :class:`ConfigurationError` unless every value is finite and > 0.

    The message names *what* and the first offending field with its
    value.  ``value <= 0.0`` would let NaN through, and a NaN or infinite
    speed, length, duration, rate or period gives a round that ends at
    NaN (the simulator refuses to run until then), never ends, or never
    sends.
    """
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"{what} must be positive and finite: {name}={value!r}"
            )


def require_finite(what: str, **values: float) -> None:
    """Raise :class:`ConfigurationError` unless every value is finite.

    For offsets, gains and losses, which may be zero or negative: a NaN
    one makes every comparison it reaches false, so a reachability bound
    fed one culls every link and the round runs empty.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{what} must be finite: {name}={value!r}")
